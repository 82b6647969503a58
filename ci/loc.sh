#!/usr/bin/env bash
# loc: print the repo's production Go line count — every tracked .go file
# that is not a test (*_test.go), not analyzer fixture data (testdata/) and
# not the benchmark module (cmd/cosmos-bench, which BENCHMARK.json freezes).
# Raw lines, comments and blanks included: the number is a ratchet, not a
# quality metric.
#
#   ci/loc.sh             print the count
#   ci/loc.sh --check     also fail when it exceeds MAX below
#
# ROADMAP aim 2 says this number goes down. CI runs --check, so a PR that
# grows production code must raise MAX in the same diff — where a reviewer
# sees it — and a PR that shrinks it lowers MAX to lock the gain in.
set -euo pipefail

MAX=20860 # PR 22 (parent: 20781): +79 — the maintained posting-list interval index (sorted runs, tombstones, compaction, the cover probe) and the compiled cover test are bigger than the rebuilt-per-epoch index, prune cell, unionOf/extend, coverCandidates, neighborLocked, sortedDirs/sortedNodeSet, nodeIn and the five query.Interval bound helpers they replace
# PR 23 (parent: 20860): 20860, not raised and not lowered — Tuple.Tag/Owned, the wire lift of the tag, the user-side column comparison, the fabric view with atomic link counters and the stream-keyed epoch come to what dirSnap/streamSnapEntry/snapDir's merge walk/dirSnap.stream/dirtyAny, the user handler's strip copy, residualAttrs' tag bookkeeping, tagFilter, the locked Peer/CountData/CountControl and the hand-rolled sorts of Nodes/sortedLinks took

cd "$(dirname "$0")/.."
count=$(git ls-files '*.go' |
  grep -v -e '_test\.go$' -e '/testdata/' -e '^cmd/cosmos-bench/' |
  xargs cat | wc -l)
echo "$count"

if [ "${1:-}" = "--check" ] && [ "$count" -gt "$MAX" ]; then
  echo "loc: $count non-test Go lines exceed the recorded ceiling $MAX." >&2
  echo "loc: delete code, or raise MAX in ci/loc.sh in this PR and say why." >&2
  exit 1
fi

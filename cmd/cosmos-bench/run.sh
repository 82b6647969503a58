#!/usr/bin/env bash
# Builds cosmos-bench from the sources of the checkout this script sits in
# and runs it from the checkout's root with the arguments given. Everything
# the build writes (binary, Go build cache) stays under .bench_build in the
# checkout; nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/cosmos-bench" .) >&2
cd "$root"
exec "$build/cosmos-bench" "$@"

package pubsub

import (
	"math"
	"slices"
	"sort"

	"repro/internal/query"
	"repro/internal/stream"
)

// This file implements attribute-level candidate intersection — the second
// pruning stage of the matching engine. The stream posting lists bound the
// candidates of a tuple by the per-stream population; for large populations
// with selective filters that is still O(candidates) interval tests per
// tuple. The prune index cuts the evaluated set down to the candidates whose
// compiled interval on one chosen attribute actually admits the tuple's
// value:
//
//   - per (direction, stream) and per constrained attribute, the candidates'
//     compiled query.Intervals are held twice: sorted by lower bound as an
//     implicit balanced stabbing tree (augmented with the subtree's maximal
//     upper bound), and sorted by upper bound for an O(log n) stab-count
//     estimate;
//   - candidates with no compiled interval on the attribute (unconstrained,
//     or constrained only by raw/string filters) are listed in `rest` — they
//     are candidates regardless of the tuple's value on that attribute;
//   - at match time the broker picks the most selective constrained
//     attribute of the incoming tuple (smallest estimated stab count plus
//     rest), stabs the tree, and evaluates only stabbed ∪ rest, in
//     posting-list order.
//
// The stab test uses only the interval's pure bounds (query.AdmitsLower ∧
// AdmitsUpper) — a superset of Interval.ContainsFloat (which additionally
// rejects disequality points, string constraints and contradictions) — so
// the selected set is always a superset of the matching set and the exact
// compiledSub.matches run on it reproduces the full scan bit for bit
// (TestPrunedCandidateSuperset). String-typed or NaN tuple values cannot be
// pruned on (their comparisons fall back to raw predicates) and fall back
// to the full posting list, exactly as before.
//
// The index is built lazily, lock-free, once per snapshot epoch of the
// stream: add/remove re-freeze the affected stream into the next epoch, and
// the first route through that epoch builds its index (streamSnap.pruneIndex,
// which relies on buildAttrPruneIndex being a pure function of the frozen
// posting list). A built index is immutable; a new epoch replaces, never
// mutates.

// pruneMin is the posting-list population below which the prune index is
// not built (streamSnap.pruneIndex): selection and merge overhead beats a
// handful of direct interval tests. Package variable so tests can force
// pruning on tiny populations.
var pruneMin = 16

// attrPruneIndex is the prune index of one (direction, stream) posting
// list.
type attrPruneIndex struct {
	attrs []attrIvIndex // one per constrained attribute, sorted by name
}

// attrIvIndex indexes the compiled intervals of one attribute over one
// posting list. Positions are indices into the frozen posting list the
// index was built from, so they never go stale.
type attrIvIndex struct {
	attr string
	// entries is sorted by query.LowerLess and read as an implicit
	// balanced BST (midpoint recursion): all entries left of an index sort
	// at-or-before it, all entries right of it sort at-or-after.
	entries []ivEntry
	// maxUp[i] is the query.UpperMax over the implicit subtree rooted at
	// i: if it rejects the probe value, no interval in the subtree admits
	// it and the descent prunes the whole subtree.
	maxUp []query.Interval
	// ups holds the same intervals sorted by query.UpperLess, for the
	// binary-search stab-count estimate.
	ups []query.Interval
	// rest lists the posting-list positions with no compiled interval on
	// attr, ascending.
	rest []int32
}

// ivEntry is one candidate's compiled interval on one attribute.
type ivEntry struct {
	iv  query.Interval
	pos int32
}

// buildAttrPruneIndex compiles the prune index of one posting list, or
// returns nil when no candidate constrains any attribute.
func buildAttrPruneIndex(cands []*compiledSub) *attrPruneIndex {
	byAttr := make(map[string][]ivEntry)
	for pos, c := range cands {
		for gi := range c.groups {
			g := &c.groups[gi]
			byAttr[g.attr] = append(byAttr[g.attr], ivEntry{iv: g.iv, pos: int32(pos)})
		}
	}
	if len(byAttr) == 0 {
		return nil
	}
	names := make([]string, 0, len(byAttr))
	for a := range byAttr {
		names = append(names, a)
	}
	sort.Strings(names)
	idx := &attrPruneIndex{attrs: make([]attrIvIndex, 0, len(names))}
	for _, a := range names {
		entries := byAttr[a]
		constrained := make([]bool, len(cands))
		for _, e := range entries {
			constrained[e.pos] = true
		}
		var rest []int32
		for pos := range cands {
			if !constrained[pos] {
				rest = append(rest, int32(pos))
			}
		}
		sort.Slice(entries, func(i, j int) bool { return query.LowerLess(entries[i].iv, entries[j].iv) })
		ups := make([]query.Interval, len(entries))
		for i, e := range entries {
			ups[i] = e.iv
		}
		sort.Slice(ups, func(i, j int) bool { return query.UpperLess(ups[i], ups[j]) })
		ai := attrIvIndex{attr: a, entries: entries, ups: ups, rest: rest,
			maxUp: make([]query.Interval, len(entries))}
		buildMaxUp(ai.entries, ai.maxUp, 0, len(entries))
		idx.attrs = append(idx.attrs, ai)
	}
	return idx
}

// buildMaxUp fills the subtree upper-bound augmentation of the implicit
// tree over entries[l:r) and returns the segment's maximum.
func buildMaxUp(entries []ivEntry, maxUp []query.Interval, l, r int) (query.Interval, bool) {
	if l >= r {
		return query.Interval{}, false
	}
	m := (l + r) / 2
	best := entries[m].iv
	if left, ok := buildMaxUp(entries, maxUp, l, m); ok {
		best = query.UpperMax(best, left)
	}
	if right, ok := buildMaxUp(entries, maxUp, m+1, r); ok {
		best = query.UpperMax(best, right)
	}
	maxUp[m] = best
	return best, true
}

// estimate returns an O(log n) stab-count estimate for value v: the number
// of lower bounds admitting v minus the number of upper bounds rejecting
// it. Exact for non-empty bound pairs; an estimate is all attribute
// selection needs (the stab itself is exact).
func (ai *attrIvIndex) estimate(v float64) int {
	admitLo := sort.Search(len(ai.entries), func(i int) bool { return !ai.entries[i].iv.AdmitsLower(v) })
	rejectHi := sort.Search(len(ai.ups), func(i int) bool { return ai.ups[i].AdmitsUpper(v) })
	if est := admitLo - rejectHi; est > 0 {
		return est
	}
	return 0
}

// stab appends to out the posting-list positions whose interval bounds
// admit v, walking the implicit tree over entries[l:r): a subtree whose
// maximal upper bound rejects v holds no admitting interval, and once a
// node's lower bound rejects v every entry to its right does too.
func stabTree(entries []ivEntry, maxUp []query.Interval, l, r int, v float64, out []int32) []int32 {
	for l < r {
		m := (l + r) / 2
		if !maxUp[m].AdmitsUpper(v) {
			return out
		}
		out = stabTree(entries, maxUp, l, m, v, out)
		if !entries[m].iv.AdmitsLower(v) {
			return out
		}
		if entries[m].iv.AdmitsUpper(v) {
			out = append(out, entries[m].pos)
		}
		l = m + 1
	}
	return out
}

// pruneSelect picks the most selective constrained attribute of the tuple
// and stabs its interval tree, returning the posting-list positions worth
// evaluating in ascending (registration) order. ok is false — the caller
// scans the full posting list — when there is no index, no usable
// constrained attribute, or the estimated yield is too close to the full
// population (nCands) to pay for the merge. The returned slice aliases bufs
// scratch and is valid until the next call. Pure with respect to ai — it
// writes only into bufs — so concurrent lock-free routes may share ai.
func pruneSelect(ai *attrPruneIndex, t stream.Tuple, nCands int, bufs *routeBufs) ([]int32, bool) {
	if ai == nil {
		return nil, false
	}
	best := -1
	bestEst := 0
	bestAbsent := false
	for i := range ai.attrs {
		a := &ai.attrs[i]
		v, ok := t.Get(a.attr)
		var est int
		absent := false
		switch {
		case !ok:
			// The tuple lacks the attribute: every constrained
			// candidate fails its group test, so only rest remains.
			est, absent = len(a.rest), true
		case v.Type == stream.String || math.IsNaN(v.F):
			// Interval bounds cannot express Compare's string/NaN
			// semantics; this attribute cannot prune.
			continue
		default:
			est = a.estimate(v.F) + len(a.rest)
		}
		if best < 0 || est < bestEst {
			best, bestEst, bestAbsent = i, est, absent
		}
	}
	if best < 0 || 2*bestEst >= nCands {
		return nil, false
	}
	a := &ai.attrs[best]
	if bestAbsent {
		return a.rest, true
	}
	v, _ := t.Get(a.attr)
	stab := stabTree(a.entries, a.maxUp, 0, len(a.entries), v.F, bufs.stab[:0])
	bufs.stab = stab
	// Restore posting-list order. The tree emits lower-bound order, which
	// correlates with registration order only by accident, so this must
	// not assume near-sortedness (slices.Sort is O(k log k) regardless).
	slices.Sort(stab)
	sel := mergePos(stab, a.rest, bufs.sel[:0])
	bufs.sel = sel
	return sel, true
}

// mergePos merges two ascending position slices (disjoint by construction:
// a posting-list entry is either constrained on the attribute or in rest).
func mergePos(a, b []int32, out []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

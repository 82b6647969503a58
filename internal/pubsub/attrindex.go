package pubsub

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/query"
	"repro/internal/stream"
)

// This file implements the interval index of one (direction, stream)
// posting list, which both candidate selections stab: matching (matchIter)
// with the tuple's value on its most selective constrained attribute,
// covering (coverIter) with one point of the NEW subscription's folded
// interval — a cover's bounds on an attribute must admit every point of a
// non-empty interval it covers. The exact test (compiledSub.matches,
// compiledSub.covers) runs on the survivors in posting-list order, so the
// outcome is the full scan's bit for bit (TestPrunedCandidateSuperset,
// TestFirstCoverIdentical).
//
// The index is MAINTAINED, not rebuilt: postList.add/remove (index.go)
// derive the next version under Broker.mu and an epoch shares the current
// one by pointer. A version is immutable. Per constrained attribute it holds
//
//   - live: every candidate ever added with a compiled interval on the
//     attribute, as sorted runs of doubling size (the logarithmic method:
//     O(log n) runs, and a merge builds a NEW run, never touching one an
//     epoch holds) plus a tail of the newest entries in insertion order. An
//     insertion appends to the tail; a full tail (tailMax entries) is sorted
//     once into a run, which merges linearly with the trailing runs it
//     outgrows — amortised O(log n) per insertion and a constant number of
//     objects;
//   - gone: the same over the candidates removed since the last compaction.
//     Counting them out keeps the stab-count estimate exact — it is the
//     number of live entries a stab returns once the tombstones are dropped
//     — so the maintained index decides as a rebuilt one would
//     (TestMaintainedIndexMatchesRebuilt), and an index of one attribute,
//     with nothing to choose between, skips the estimate and decides on the
//     stab's own count (selectBy; TestSingleAttributeStabIsItsOwnEstimate);
//   - rest: the positions with no compiled interval on the attribute —
//     candidates whatever the probe value. Positions only grow, so rest is
//     append-only and versions share its backing array, as they share a
//     tail's: each version reads only its own length, and only the newest
//     appends.
//
// Entries are bounds only (closedBounds) plus the candidate's position:
// disequality points, string constraints and contradictions are the exact
// test's business (a contradiction, lo > hi, is the one entry the estimate
// can count as −1 and no stab returns: wherever both are consulted the stab's
// count decides). Removed positions are filtered out of every selection
// against the posting list's sorted tombstone set.

// pruneMin is the posting-list population below which no index is kept:
// selection and merge overhead beats a handful of direct interval tests, and
// small lists (the query middleware's) pay nothing for upkeep. Package
// variable so tests can force indexing on tiny populations.
var pruneMin = 16

// tailMax is the number of entries an attribute's tail holds before they
// become a run: a stab or count scans the tail linearly. Package variable so
// tests can force flushes and merges on tiny populations.
var tailMax = 32

// closedBounds returns the closed float64 interval admitting what iv's
// bounds admit: an open bound moves to the adjacent float64, which is exact
// for every finite bound (x < v ⟺ x ≤ prev(v)). An open infinite bound
// stays put and so admits the infinity it excludes — a superset, which is
// all a candidate selection needs.
func closedBounds(iv query.Interval) (lo, hi float64) {
	lo, hi = iv.Lo, iv.Hi
	if iv.LoOpen {
		lo = math.Nextafter(lo, math.Inf(1))
	}
	if iv.HiOpen {
		hi = math.Nextafter(hi, math.Inf(-1))
	}
	return lo, hi
}

// ivEntry is one candidate's bounds on one attribute.
type ivEntry struct {
	lo, hi float64
	// maxHi is the greatest hi in the implicit subtree rooted at this entry
	// (midpoint recursion over the run): below the probe value, nothing in
	// the subtree admits it.
	maxHi float64
	pos   int32
}

// ivRun is one immutable sorted run of entries.
//
// cosmoslint:snapshot
type ivRun struct {
	entries []ivEntry // by lo, read as an implicit balanced BST
	his     []float64 // the same entries' hi, ascending
}

// newRun builds a run from entries in any order, taking ownership of them.
func newRun(entries []ivEntry) *ivRun {
	slices.SortFunc(entries, func(a, b ivEntry) int { return cmp.Compare(a.lo, b.lo) })
	his := make([]float64, len(entries))
	for i := range entries {
		his[i] = entries[i].hi
	}
	slices.Sort(his)
	fillMaxHi(entries)
	return &ivRun{entries: entries, his: his}
}

// mergeRuns returns the run holding the entries of both, by a linear merge of
// their sorted arrays. Neither argument is written.
func mergeRuns(a, b *ivRun) *ivRun {
	entries := mergeSorted(a.entries, b.entries, func(x, y ivEntry) bool { return x.lo < y.lo })
	fillMaxHi(entries)
	return &ivRun{entries: entries, his: mergeSorted(a.his, b.his, func(x, y float64) bool { return x < y })}
}

// mergeSorted merges two ascending slices into a new one.
func mergeSorted[T any](a, b []T, less func(x, y T) bool) []T {
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if less(b[0], a[0]) {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

func fillMaxHi(entries []ivEntry) float64 {
	if len(entries) == 0 {
		return math.Inf(-1)
	}
	m := len(entries) / 2
	e := &entries[m]
	e.maxHi = max(e.hi, fillMaxHi(entries[:m]), fillMaxHi(entries[m+1:]))
	return e.maxHi
}

// stabRun appends the positions of the entries admitting v: a subtree whose
// maxHi is below v holds none, and once an entry's lo is above v so is
// every entry to its right.
func stabRun(entries []ivEntry, v float64, out []int32) []int32 {
	for len(entries) > 0 {
		m := len(entries) / 2
		e := &entries[m]
		if e.maxHi < v {
			return out
		}
		out = stabRun(entries[:m], v, out)
		if e.lo > v {
			return out
		}
		if v <= e.hi {
			out = append(out, e.pos)
		}
		entries = entries[m+1:]
	}
	return out
}

// runSet is the logarithmic-method collection of runs, longest (oldest)
// first, each at least twice as long as its successor, plus the tail: the
// entries pushed since the last run was made, in insertion order.
type runSet struct {
	runs []*ivRun
	tail []ivEntry
}

// push returns the set with one more entry. The entry is appended to the
// tail in place — beyond every older version's length, so the receiver's
// view is left intact. A full tail becomes a run, merged with every trailing
// run less than twice as long as what follows it; the receiver's runs are
// never written.
func (rs runSet) push(e ivEntry) runSet {
	if rs.tail == nil {
		rs.tail = make([]ivEntry, 0, tailMax)
	}
	rs.tail = append(rs.tail, e)
	if len(rs.tail) < tailMax {
		return rs
	}
	r, n := newRun(slices.Clone(rs.tail)), len(rs.runs)
	for n > 0 && len(rs.runs[n-1].entries) < 2*len(r.entries) {
		n--
		r = mergeRuns(rs.runs[n], r)
	}
	return runSet{runs: append(rs.runs[:n:n], r)}
}

// count returns lower bounds admitting v minus upper bounds rejecting it,
// summed over the runs and the tail — the number of entries admitting v when
// every entry has lo ≤ hi. Not clamped per run, so it is a function of the
// entries alone, whatever runs hold them.
func (rs runSet) count(v float64) int {
	n := 0
	for _, r := range rs.runs {
		n += sort.Search(len(r.entries), func(i int) bool { return r.entries[i].lo > v })
		n -= sort.Search(len(r.his), func(i int) bool { return r.his[i] >= v })
	}
	for _, e := range rs.tail {
		if e.lo <= v {
			n++
		}
		if e.hi < v {
			n--
		}
	}
	return n
}

// stab appends the positions of the entries admitting v, in no particular
// order.
func (rs runSet) stab(v float64, out []int32) []int32 {
	for _, r := range rs.runs {
		out = stabRun(r.entries, v, out)
	}
	for _, e := range rs.tail {
		if e.lo <= v && v <= e.hi {
			out = append(out, e.pos)
		}
	}
	return out
}

// attrIndex indexes one attribute over one posting list.
//
// cosmoslint:snapshot
type attrIndex struct {
	attr       string
	live, gone runSet
	// rest lists the positions with no compiled interval on attr,
	// ascending; restGone counts the removed ones among them.
	rest     []int32
	restGone int
}

// estimate returns the number of live candidates a stab with v selects.
func (a *attrIndex) estimate(v float64) int {
	return max(a.live.count(v)-a.gone.count(v), 0) + a.restLive()
}

func (a *attrIndex) restLive() int { return len(a.rest) - a.restGone }

// attrPruneIndex is one version of the index of one posting list.
//
// cosmoslint:snapshot
type attrPruneIndex struct {
	attrs []attrIndex // one per attribute any candidate constrained, by name
}

func entryOf(g *attrGroup, pos int32) ivEntry {
	lo, hi := closedBounds(g.iv)
	return ivEntry{lo: lo, hi: hi, pos: pos}
}

// buildAttrPruneIndex indexes a posting list view from scratch: one run per
// attribute over its live records, no tombstones. It is the compaction
// path, the first build when a population reaches pruneMin, and the oracle
// the maintained versions are held to.
func buildAttrPruneIndex(ss *streamSnap) *attrPruneIndex {
	// Every attribute with the number of records constraining it, so each
	// array below is allocated once at its final size.
	type attrCount struct {
		attr string
		n    int
	}
	var names []attrCount
	it := ss.scan()
	for c := it.next(); c != nil; c = it.next() {
		for gi := range c.groups {
			i := slices.IndexFunc(names, func(a attrCount) bool { return a.attr == c.groups[gi].attr })
			if i < 0 {
				i = len(names)
				names = append(names, attrCount{attr: c.groups[gi].attr})
			}
			names[i].n++
		}
	}
	slices.SortFunc(names, func(a, b attrCount) int { return cmp.Compare(a.attr, b.attr) })
	idx := &attrPruneIndex{attrs: make([]attrIndex, 0, len(names))}
	for _, name := range names {
		entries := make([]ivEntry, 0, name.n)
		var rest []int32
		if k := ss.live() - name.n; k > 0 {
			rest = make([]int32, 0, k)
		}
		it := ss.scan()
		for c := it.next(); c != nil; c = it.next() {
			if g := groupOf(c.groups, name.attr); g != nil {
				entries = append(entries, entryOf(g, it.pos()))
			} else {
				rest = append(rest, it.pos())
			}
		}
		idx.attrs = append(idx.attrs, attrIndex{attr: name.attr, live: runSet{runs: []*ivRun{newRun(entries)}}, rest: rest})
	}
	return idx
}

// with returns the next version: candidate c at position pos added — past
// every position indexed so far — or, with gone set, tombstoned. nDead is
// the posting list's tombstone count: an attribute c is the first to
// constrain starts with every earlier position, removed ones included, in
// rest.
func (ai *attrPruneIndex) with(c *compiledSub, pos int32, gone bool, nDead int) *attrPruneIndex {
	// Sized for the attributes already indexed: an attribute c is the first
	// to constrain is rare, and its append grows the slice.
	attrs := make([]attrIndex, 0, len(ai.attrs))
	for _, a := range ai.attrs {
		next := attrIndex{attr: a.attr, live: a.live, gone: a.gone, rest: a.rest, restGone: a.restGone}
		switch g := groupOf(c.groups, a.attr); {
		case g != nil && gone:
			next.gone = a.gone.push(entryOf(g, pos))
		case g != nil:
			next.live = a.live.push(entryOf(g, pos))
		case gone:
			next.restGone++
		default:
			// In place: versions are derived one from the next, so only
			// the newest appends, beyond every older version's length.
			next.rest = append(a.rest, pos)
		}
		attrs = append(attrs, next)
	}
	for gi := range c.groups {
		g := &c.groups[gi]
		if gone || slices.ContainsFunc(ai.attrs, func(a attrIndex) bool { return a.attr == g.attr }) {
			continue
		}
		rest := make([]int32, pos)
		for i := range rest {
			rest[i] = int32(i)
		}
		attrs = append(attrs, attrIndex{attr: g.attr, live: runSet{}.push(entryOf(g, pos)), rest: rest, restGone: nDead})
	}
	if len(attrs) > len(ai.attrs) {
		slices.SortFunc(attrs, func(a, b attrIndex) int { return cmp.Compare(a.attr, b.attr) })
	}
	return &attrPruneIndex{attrs: attrs}
}

// candIter walks the candidates of one posting list in registration order:
// the selected positions when a stab pruned the list, else every position
// that is not a tombstone.
type candIter struct {
	cands  []*compiledSub
	dead   []int32 // full scan only: removed positions, ascending
	sel    []int32
	pruned bool
	i, di  int
}

// next returns the next candidate, or nil at the end.
func (it *candIter) next() *compiledSub {
	if it.pruned {
		if it.i == len(it.sel) {
			return nil
		}
		it.i++
		return it.cands[it.sel[it.i-1]]
	}
	for it.i < len(it.cands) {
		it.i++
		if it.di < len(it.dead) && int(it.dead[it.di]) == it.i-1 {
			it.di++
			continue
		}
		return it.cands[it.i-1]
	}
	return nil
}

// pos returns the position of the candidate a full scan returned last.
func (it *candIter) pos() int32 { return int32(it.i - 1) }

// scan walks the whole list.
func (ss *streamSnap) scan() candIter { return candIter{cands: ss.cands, dead: ss.dead} }

// matchIter walks the candidates worth evaluating against t: the probe on an
// attribute is the tuple's value. A tuple lacking the attribute fails every
// candidate constraining it, so only rest remains; a string or NaN value
// cannot prune (interval bounds cannot express Compare's semantics there).
func (ss *streamSnap) matchIter(t *stream.Tuple, bufs *routeBufs) candIter {
	return ss.selectBy(bufs, func(attr string) (float64, bool, bool) {
		v, ok := t.Get(attr)
		return v.F, !ok, !ok || (v.Type != stream.String && !math.IsNaN(v.F))
	})
}

// coverIter walks the candidates that could cover a subscription whose
// filters fold to fold (foldSelections): the probe on an attribute the
// subscription constrains is one point of its interval (probePoint).
// Attributes it leaves unconstrained cannot prune — a candidate constraining
// one may still cover through a vacuous bound.
func (ss *streamSnap) coverIter(fold []attrGroup, bufs *routeBufs) candIter {
	return ss.selectBy(bufs, func(attr string) (float64, bool, bool) {
		g := groupOf(fold, attr)
		if g == nil {
			return 0, false, false
		}
		v, ok := probePoint(g.iv)
		return v, false, ok
	})
}

// selectBy asks probe for a value to stab each indexed attribute with
// (absent: no value, only rest qualifies; !ok: the attribute cannot prune),
// picks the attribute with the smallest estimated yield and stabs it. It
// falls back to the full list when there is no index, no usable attribute,
// or the selection is too close to the population (half of it) to pay for
// the merge. An index of ONE attribute has nothing to choose between, so it
// skips the estimate — two binary searches per run, more than the stab they
// would price — and lets the stab count its own survivors: the estimate is
// that count (entries admitting v, removed ones counted out, plus rest), so
// the decision is the same one. The selection aliases bufs scratch until the
// next call; nothing else is written, so concurrent lock-free routes may
// share ss.
func (ss *streamSnap) selectBy(bufs *routeBufs, probe func(attr string) (v float64, absent, ok bool)) candIter {
	it := ss.scan()
	if ss.idx == nil {
		return it
	}
	var best *attrIndex
	var bestEst int
	var bestV float64
	bestAbsent := false
	for i := range ss.idx.attrs {
		a := &ss.idx.attrs[i]
		v, absent, ok := probe(a.attr)
		if !ok {
			continue
		}
		est := a.restLive() // what any stab of a selects at least
		if !absent && len(ss.idx.attrs) > 1 {
			est = a.estimate(v)
		}
		if best == nil || est < bestEst {
			best, bestEst, bestV, bestAbsent = a, est, v, absent
		}
	}
	if best == nil || 2*bestEst >= ss.live() {
		return it
	}
	stab := bufs.stab[:0]
	if !bestAbsent {
		stab = best.live.stab(bestV, stab)
		bufs.stab = stab
		// At most every tombstone is among the stabbed: too many already?
		if 2*(len(stab)-len(ss.dead)+best.restLive()) >= ss.live() {
			return it
		}
		// Runs emit lower-bound order, which correlates with registration
		// order only by accident, and the tail follows them: sort.
		slices.Sort(stab)
	}
	// Merge with rest (disjoint by construction: a candidate either has an
	// interval on the attribute or is in rest), dropping tombstones.
	sel, rest := bufs.sel[:0], best.rest
	for len(stab) > 0 || len(rest) > 0 {
		var p int32
		if len(rest) == 0 || (len(stab) > 0 && stab[0] < rest[0]) {
			p, stab = stab[0], stab[1:]
		} else {
			p, rest = rest[0], rest[1:]
		}
		if _, gone := slices.BinarySearch(ss.dead, p); !gone {
			sel = append(sel, p)
		}
	}
	bufs.sel = sel
	if 2*len(sel) >= ss.live() {
		return it // the exact count of what was estimated above
	}
	it.sel, it.pruned = sel, true
	return it
}

// probePoint returns a point of iv's bounds to stab for covers with. Every
// numeric filter iv implies holds at every point inside iv's bounds
// (Interval.Implies reads nothing else for a numeric literal), so a cover's
// bounds admit the point. No point is offered when the interval admits
// nothing — it implies everything, so every candidate passes on this
// attribute — when it is string-constrained, when no float64 lies inside
// the bounds, or when the point is one iv excludes.
func probePoint(iv query.Interval) (float64, bool) {
	if iv.Empty() || iv.EqString != nil || len(iv.NeStrings) > 0 {
		return 0, false
	}
	lo, hi := closedBounds(iv)
	p := lo
	if math.IsInf(lo, -1) {
		p = min(hi, 0)
	}
	return p, lo <= p && p <= hi && !slices.Contains(iv.NotEq, p)
}

package pubsub

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// This file implements the broker-side routing state and matching index:
// the same inverted-index discipline the optimizer uses for query-graph
// edge construction (internal/querygraph), applied to event routing. The
// subscriptions a broker knows — the interests recorded per neighbor
// direction and the local client subscriptions — live in one dirIndex per
// direction holding
//
//   - stream → posting list (registration order), so a tuple is matched only
//     against subscriptions that list its stream instead of every
//     subscription the broker knows;
//   - per subscription, the conjunctive selection filters compiled into one
//     query.Interval per attribute, so matching evaluates one membership
//     test per constrained attribute instead of one predicate walk each;
//   - per (direction, stream), the incrementally maintained union of the
//     subscriptions' attribute projections, so the common all-match case
//     forwards with the precomputed union instead of rebuilding it per
//     tuple;
//   - per subscription, its lifecycle state: the epoch it was issued in
//     (seq) and the neighbors it was actually propagated to (sentTo), which
//     re-propagation replays and retraction cleanup walk.
//
// The index is maintained under Broker.mu at subscribe/propagate/retract
// time. The package tests hold it to a reference broker (reference_test.go)
// that keeps plain record slices, matches with Subscription.Matches and
// recomputes covering from scratch: identical forwarding decisions, local
// delivery sets and orders, projection attribute sets, recorded routing
// state and therefore traffic counters — the same discipline as
// querygraph's naive edge-construction oracle.
//
// The index also feeds the lock-free snapshot read path (snapshot.go):
// add/remove mark the touched streams dirty so publishLocked can re-freeze
// only those, and a posting list (postList) never changes what a
// published epoch holds of it — every mutation replaces the list's frozen
// view with the next one. See CONCURRENCY.md.

// matchIndex is one broker's routing state: one dirIndex per neighbor
// direction plus one for local client subscriptions.
type matchIndex struct {
	locals *dirIndex
	dirs   map[topology.NodeID]*dirIndex
	// dirOrder caches the direction keys ascending, so cover scans, replay
	// and un-suppression sweeps iterate deterministically without
	// re-sorting the key set per call.
	dirOrder nodeSet
	// dirty marks the streams whose posting list changed, in any direction
	// (every dirIndex marks into it), since the last snapshot publish, which
	// re-derives exactly those entries of the epoch's stream table.
	dirty map[string]bool
}

func newMatchIndex() *matchIndex {
	dirty := make(map[string]bool)
	return &matchIndex{locals: newDirIndex(dirty), dirs: make(map[topology.NodeID]*dirIndex), dirty: dirty}
}

// dir returns the index of one neighbor direction, creating it on first use.
func (m *matchIndex) dir(n topology.NodeID) *dirIndex {
	d, ok := m.dirs[n]
	if !ok {
		d = newDirIndex(m.dirty)
		m.dirs[n] = d
		m.dirOrder.set(n)
	}
	return d
}

// dropDir deletes a direction's index wholesale. Only DetachNeighbor calls
// it, after retracting every record the direction held — what remains is at
// most the empty container maps and reorder tombstones, which die with the
// link (no message can ever arrive from the direction again). A posting list
// a racing propagation left behind is marked dirty, so it leaves the epoch.
func (m *matchIndex) dropDir(n topology.NodeID) {
	for s := range m.dir(n).byStream {
		m.dirty[s] = true
	}
	delete(m.dirs, n)
	m.dirOrder.clear(n)
}

// dirIndex indexes the subscriptions of one direction (a neighbor, or the
// broker's locals).
type dirIndex struct {
	// subs holds every record in registration order (regSeq ascending).
	subs []*compiledSub
	// byStream holds the posting lists. A subscription listing a stream
	// twice appears once (matching is per-subscription, not per-listing);
	// a list is deleted with its last record, so an idle broker's routing
	// tables drain to empty.
	byStream map[string]*postList
	// retracted holds tombstones for retractions that arrived before
	// the subscription they withdraw (ID → retracted epoch). Sends
	// happen outside the broker lock, so a retraction can overtake the
	// propagation it chases (concurrent brokers, or the asynchronous
	// TCP transport); without the tombstone the late-arriving record
	// would be installed with no retraction ever coming. A tombstone is
	// consumed by the propagation it suppresses, or superseded by a
	// newer epoch of the ID.
	retracted map[string]uint64
	// byID holds the newest record of each subscription ID; older ones hang
	// off it through compiledSub.olderID, so find/removeByID are O(records
	// per ID) instead of a scan over the whole direction.
	byID map[string]*compiledSub
	// dirty is the broker-wide matchIndex.dirty set add/remove mark into.
	dirty map[string]bool
}

func newDirIndex(dirty map[string]bool) *dirIndex {
	return &dirIndex{
		byStream:  make(map[string]*postList),
		retracted: make(map[string]uint64),
		byID:      make(map[string]*compiledSub),
		dirty:     dirty,
	}
}

// add appends a compiled subscription to the direction and to the posting
// list of every stream it lists.
func (d *dirIndex) add(c *compiledSub) {
	d.subs = append(d.subs, c)
	c.olderID, d.byID[c.sub.ID] = d.byID[c.sub.ID], c
	for i, s := range c.sub.Streams {
		if slices.Contains(c.sub.Streams[:i], s) {
			continue
		}
		pl := d.byStream[s]
		if pl == nil {
			pl = &postList{streamSnap: &streamSnap{}, keepRefs: make(map[string]int)}
			d.byStream[s] = pl
		}
		pl.add(c)
		d.dirty[s] = true
	}
}

// posting returns the current view of one stream's posting list, empty when
// the direction holds no record on the stream.
func (d *dirIndex) posting(s string) *streamSnap {
	if pl := d.byStream[s]; pl != nil {
		return pl.streamSnap
	}
	return &streamSnap{}
}

// find returns the most recently added record with the given subscription
// ID, or nil. Directions hold at most one record per ID (propagate replaces
// on newer epochs); locals may briefly hold more when a client reuses an ID
// without unsubscribing, and then the newest registration owns it.
func (d *dirIndex) find(id string) *compiledSub { return d.byID[id] }

// byRegSeq orders a record against a registration number; d.subs and every
// posting list are sorted by it.
func byRegSeq(c *compiledSub, seq uint64) int { return cmp.Compare(c.regSeq, seq) }

// remove deletes one record from the direction and from its posting lists.
// d.subs and the ID chain are spliced in place — no epoch reads them.
func (d *dirIndex) remove(c *compiledSub) {
	if i, ok := slices.BinarySearchFunc(d.subs, c.regSeq, byRegSeq); ok {
		d.subs = slices.Delete(d.subs, i, i+1)
	}
	switch newest := d.byID[c.sub.ID]; {
	case newest != c:
		for newest.olderID != c {
			newest = newest.olderID
		}
		newest.olderID = c.olderID
	case c.olderID == nil:
		delete(d.byID, c.sub.ID)
	default:
		d.byID[c.sub.ID] = c.olderID
	}
	for i, s := range c.sub.Streams {
		if slices.Contains(c.sub.Streams[:i], s) {
			continue
		}
		d.dirty[s] = true
		if d.byStream[s].remove(c) {
			delete(d.byStream, s)
		}
	}
}

// postList is the posting list of one (direction, stream) pair: the current
// frozen view — records, tombstones, interval index, projection union — which
// add/remove REPLACE with the next one (an epoch shares it by pointer and
// never sees it change), and the counts the union is kept by. Touched only
// under Broker.mu.
type postList struct {
	*streamSnap
	// keepRefs counts, per attribute, the records whose projection list
	// names it; the view's union is rebuilt when a count crosses zero.
	keepRefs map[string]int
}

func (pl *postList) add(c *compiledSub) {
	// The append lands beyond every older view's length.
	next := &streamSnap{cands: append(pl.cands, c), dead: pl.dead, union: pl.ref(c.keep, 1), idx: pl.idx}
	switch {
	case next.idx != nil:
		next.idx = next.idx.with(c, int32(len(pl.cands)), false, len(pl.dead))
	case next.live() >= pruneMin:
		next.idx = buildAttrPruneIndex(next)
	}
	pl.streamSnap = next
}

// remove drops one record and reports whether the list is now empty (the
// caller deletes it, index and union with it). The record is tombstoned —
// in dead and in the index — until the tombstones pass an eighth of the
// live population; then list and index are rebuilt without them: a removal
// costs O(log n) amortised, and removed records pin a bounded share.
func (pl *postList) remove(c *compiledSub) (empty bool) {
	pos, ok := slices.BinarySearchFunc(pl.cands, c.regSeq, byRegSeq)
	at, gone := slices.BinarySearch(pl.dead, int32(pos))
	if !ok || gone {
		return false
	}
	next := &streamSnap{cands: pl.cands, union: pl.ref(c.keep, -1)}
	if live := pl.live() - 1; 8*(len(pl.dead)+1) > live {
		next.cands = make([]*compiledSub, 0, live)
		it := pl.scan()
		for x := it.next(); x != nil; x = it.next() {
			if x != c {
				next.cands = append(next.cands, x)
			}
		}
		if live >= pruneMin {
			next.idx = buildAttrPruneIndex(next)
		}
	} else {
		if at == len(pl.dead) {
			// Past every tombstone — removals mostly come in registration
			// order — the append lands beyond every older view's length.
			next.dead = append(pl.dead, int32(pos))
		} else {
			next.dead = slices.Insert(slices.Clip(pl.dead), at, int32(pos)) // clipped: Insert copies
		}
		if pl.idx != nil && live >= pruneMin {
			next.idx = pl.idx.with(c, int32(pos), true, 0)
		}
	}
	pl.streamSnap = next
	return len(next.cands) == 0
}

// ref counts one record's projection list into (delta 1) or out of (delta
// -1) the union and returns the union to publish: the current slice while
// its content stands, else a fresh sorted one — route hands the slice to
// in-flight hops outside the broker lock, so a published one is never
// written. It is read only when every record matched and none keeps all
// attributes (matchSnap), so records with a nil projection need no count.
func (pl *postList) ref(keep []string, delta int) []string {
	changed := pl.union == nil
	for _, a := range keep {
		n := pl.keepRefs[a] + delta
		changed = changed || n == 0 || n == delta
		if n == 0 {
			delete(pl.keepRefs, a)
		} else {
			pl.keepRefs[a] = n
		}
	}
	if !changed {
		return pl.union
	}
	union := slices.AppendSeq(make([]string, 0, len(pl.keepRefs)), maps.Keys(pl.keepRefs))
	slices.Sort(union)
	return union
}

// removeByID removes every record with the given subscription ID and
// returns them in registration order (empty when the ID is unknown — the
// caller treats that as a no-op).
func (d *dirIndex) removeByID(id string) []*compiledSub {
	var removed []*compiledSub
	for c := d.byID[id]; c != nil; c = c.olderID {
		removed = append(removed, c)
	}
	slices.Reverse(removed)
	for _, c := range removed {
		d.remove(c)
	}
	return removed
}

// compiledSub is one recorded subscription with its matching and lifecycle
// state: the projection list sorted, the filters partitioned into
// string-equality tests, compiled per-attribute interval groups (numeric
// selections) and a raw remainder evaluated predicate-by-predicate, the
// issuing epoch, and the propagation record. Nothing here is keyed by
// attribute name: what the hot path reads is flat, sorted data, and what only
// a slow path needs (a group's original predicates) it re-derives from sub.
type compiledSub struct {
	sub     *Subscription
	handler Handler // locals only
	// olderID chains the direction's records of one subscription ID, newest
	// (dirIndex.byID) to oldest. Mutated under Broker.mu.
	olderID *compiledSub
	// seq is the epoch the subscription was issued in (Subscription.Seq
	// at record time): a later incarnation of a reused ID carries a
	// higher seq, superseding records and outrunning stale retractions.
	seq uint64
	// srcDir is the direction the record was received from (-1 for local
	// client subscriptions) and regSeq its broker-wide registration
	// number. Together they define the canonical sweep order (locals
	// first, then directions ascending, registration order within) that
	// un-suppression re-propagates in, whichever enumeration produced the
	// candidates.
	srcDir topology.NodeID
	regSeq uint64
	// sentTo records the neighbors this subscription was actually
	// propagated to. Covering suppression of another subscription toward
	// neighbor n is sound only when the covering one was sent to n, and
	// retraction follows exactly these edges. Mutated under Broker.mu.
	sentTo nodeSet
	// coveredBy is the covered-by churn index, forward side: coveredBy[n]
	// is the record whose propagation toward n suppressed this one.
	// Invariant (maintained at propagate/replay/retract/un-suppress time,
	// under Broker.mu): the suppressor is still recorded, has sentTo[n],
	// and covers this subscription; the entry is deleted the moment the
	// suppressor is removed or this record is removed or sent.
	coveredBy map[topology.NodeID]*compiledSub
	// suppresses is the reverse side: every (record, neighbor) decision
	// this record's propagation is currently suppressing. Retraction
	// un-suppression visits exactly this set instead of every record
	// sharing a stream.
	suppresses map[covEdge]bool
	// keep is sub.Attrs strictly ascending (sub.Attrs itself when it already
	// is): nil keeps every attribute; an empty non-nil list mirrors an
	// explicitly empty projection list.
	keep []string
	// tag, when non-empty, is a compiled `__q == "tag"` filter (the
	// result-stream split of every middleware user subscription): one
	// compare against the tuple header.
	tag    string
	strEq  []strEqTest
	groups []attrGroup
	raw    []query.Predicate
}

// nodeSet is a small set of overlay nodes, ascending — a broker has a
// handful of neighbors, so a record's propagation marks are a slice, not a
// map.
type nodeSet []topology.NodeID

func (s nodeSet) has(n topology.NodeID) bool { return slices.Contains(s, n) }

func (s *nodeSet) set(n topology.NodeID) {
	if i, ok := slices.BinarySearch(*s, n); !ok {
		*s = slices.Insert(*s, i, n)
	}
}

func (s *nodeSet) clear(n topology.NodeID) {
	if i, ok := slices.BinarySearch(*s, n); ok {
		*s = slices.Delete(*s, i, i+1)
	}
}

// strEqTest is a compiled `attr == "literal"` filter on a payload attribute:
// one map lookup, one string compare.
type strEqTest struct{ attr, want string }

// covEdge is one suppressed propagation decision: rec was not sent toward
// to because a covering subscription (the record whose suppresses set holds
// the edge) already was.
type covEdge struct {
	rec *compiledSub
	to  topology.NodeID
}

// suppressEdge records that cov's propagation toward n suppresses rec.
func suppressEdge(cov, rec *compiledSub, n topology.NodeID) {
	if rec.coveredBy == nil {
		rec.coveredBy = make(map[topology.NodeID]*compiledSub)
	}
	rec.coveredBy[n] = cov
	if cov.suppresses == nil {
		cov.suppresses = make(map[covEdge]bool)
	}
	cov.suppresses[covEdge{rec: rec, to: n}] = true
}

// detachCovEdges unlinks a removed record from the covered-by index: edges
// where c is the covered side are deleted from their suppressors, and the
// decisions c itself was suppressing are returned in canonical sweep order
// for reconsideration (their coveredBy entries are cleared — each must now
// either find a new suppressor or be sent).
func detachCovEdges(c *compiledSub) []covEdge {
	for n, cov := range c.coveredBy {
		delete(cov.suppresses, covEdge{rec: c, to: n})
	}
	c.coveredBy = nil
	if len(c.suppresses) == 0 {
		c.suppresses = nil
		return nil
	}
	out := make([]covEdge, 0, len(c.suppresses))
	for e := range c.suppresses {
		delete(e.rec.coveredBy, e.to)
		//lint:maporder freed edges are put into canonical sweep order by sortCovEdges below
		out = append(out, e)
	}
	c.suppresses = nil
	sortCovEdges(out)
	return out
}

// sortCovEdges orders suppressed decisions in canonical sweep order: target
// neighbor ascending, then locals before remote directions (srcDir
// ascending), then registration order.
func sortCovEdges(edges []covEdge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].to != edges[j].to {
			return edges[i].to < edges[j].to
		}
		if edges[i].rec.srcDir != edges[j].rec.srcDir {
			return edges[i].rec.srcDir < edges[j].rec.srcDir
		}
		return edges[i].rec.regSeq < edges[j].rec.regSeq
	})
}

// attrGroup is the compiled conjunction of one attribute's numeric selection
// filters, folded into one interval. What needs the predicates one by one —
// a string-typed or NaN attribute value, whose Compare semantics an interval
// cannot express (holdsUnfolded), and the cover test — re-derives them from
// the subscription's filters with query.NumericSelection, as compileSub did:
// the slow paths pay, the record holds no copy.
type attrGroup struct {
	attr string
	iv   query.Interval
}

// holdsUnfolded evaluates the filters folded into attr's group one by one.
func (c *compiledSub) holdsUnfolded(attr string, t *stream.Tuple) bool {
	for _, f := range c.sub.Filters {
		if p, ok := query.NumericSelection(f); ok && p.Left.Col.Attr == attr && !evalFilter(p, *t) {
			return false
		}
	}
	return true
}

// sortedAttrs returns a projection list strictly ascending: the list itself
// when it already is (nil stays nil = keep all), else a sorted copy without
// duplicates.
func sortedAttrs(attrs []string) []string {
	for i := 1; i < len(attrs); i++ {
		if attrs[i-1] >= attrs[i] {
			sorted := slices.Clone(attrs)
			slices.Sort(sorted)
			return slices.Compact(sorted)
		}
	}
	return attrs
}

// compileSub precomputes the matching state of one subscription. handler is
// non-nil only for local client subscriptions. Filters are kept in
// normalised (column-on-the-left) form: evaluation is indifferent to it and
// the cover test (covers) needs it.
func compileSub(s *Subscription, h Handler) *compiledSub {
	c := &compiledSub{sub: s, handler: h, keep: sortedAttrs(s.Attrs)}
	for _, f := range s.Filters {
		n, ok := query.NumericSelection(f)
		if !ok {
			// Tuple.Get answers "timestamp" and the tag from the tuple header,
			// not from Attrs: the first stays raw, the second compiles to a
			// header compare (a second one, or one against "", stays raw).
			if n.IsSelection() && n.Op == query.Eq && n.Right.Lit != nil && n.Right.Lit.Type == stream.String {
				switch attr, want := n.Left.Col.Attr, n.Right.Lit.S; {
				case attr == stream.TagAttr && c.tag == "" && want != "":
					c.tag = want
					continue
				case attr != stream.TagAttr && attr != "timestamp":
					c.strEq = append(c.strEq, strEqTest{attr, want})
					continue
				}
			}
			c.raw = append(c.raw, n)
			continue
		}
		c.groups = constrainGroup(c.groups, n)
	}
	return c
}

// constrainGroup folds the normalised selection p into its attribute's group
// of gs — a new one, unconstrained, when the attribute has none yet. A record
// constrains a handful of attributes, so the group is found by a scan.
func constrainGroup(gs []attrGroup, p query.Predicate) []attrGroup {
	attr := p.Left.Col.Attr
	g := groupOf(gs, attr)
	if g == nil {
		gs = append(gs, attrGroup{attr: attr, iv: query.FullInterval()})
		g = &gs[len(gs)-1]
	}
	g.iv = g.iv.Constrain(p.Op, *p.Right.Lit)
	return gs
}

// groupOf returns the group of one attribute in gs, or nil.
func groupOf(gs []attrGroup, attr string) *attrGroup {
	for i := range gs {
		if gs[i].attr == attr {
			return &gs[i]
		}
	}
	return nil
}

// foldSelections folds every selection with a literal among filters into one
// interval per bare attribute, in order of first appearance, reusing dst's
// array: query.SelectionIntervalsByAttr as a slice, which a cover decision
// reads without building a map (TestFoldMatchesSelectionIntervals). Unlike
// compiledSub.groups it folds string and NaN literals too — covering reads
// them, matching cannot.
func foldSelections(dst []attrGroup, filters []query.Predicate) []attrGroup {
	dst = dst[:0]
	for _, f := range filters {
		if p := f.Normalize(); p.IsSelection() && p.Right.Lit != nil {
			dst = constrainGroup(dst, p)
		}
	}
	return dst
}

// covers reports whether c admits every message o admits — the covering
// relation Siena uses to suppress redundant subscription propagation: c lists
// every stream of o, keeps every attribute o keeps, and o's filter
// conjunction, folded into fold (foldSelections of o.Filters), implies each
// filter of c. It is sound but not complete: a false result may still be a
// covering pair (filters over disjoint attributes, say), which costs
// propagation but never correctness. The projection check searches the keep
// list, so a cover scan costs one interval-implication walk per candidate and
// allocates nothing; a property test holds it to the reference's refCovers
// (maintained_index_test.go).
func (c *compiledSub) covers(o *Subscription, fold []attrGroup) bool {
	for _, st := range o.Streams {
		if !c.sub.hasStream(st) {
			return false
		}
	}
	if c.keep != nil {
		if o.Attrs == nil {
			return false
		}
		for _, a := range o.Attrs {
			if _, ok := slices.BinarySearch(c.keep, a); !ok {
				return false
			}
		}
	}
	implies := func(attr string, op query.Op, lit stream.Value) bool {
		if g := groupOf(fold, attr); g != nil {
			return g.iv.Implies(op, lit)
		}
		return query.FullInterval().Implies(op, lit)
	}
	if c.tag != "" && !implies(stream.TagAttr, query.Eq, stream.StringVal(c.tag)) {
		return false
	}
	for _, e := range c.strEq {
		if !implies(e.attr, query.Eq, stream.StringVal(e.want)) {
			return false
		}
	}
	for _, f := range c.sub.Filters { // the filters folded into c.groups
		if p, ok := query.NumericSelection(f); ok && !implies(p.Left.Col.Attr, p.Op, *p.Right.Lit) {
			return false
		}
	}
	for _, p := range c.raw {
		if !p.IsSelection() || p.Right.Lit == nil || !implies(p.Left.Col.Attr, p.Op, *p.Right.Lit) {
			return false
		}
	}
	return true
}

// matches reproduces sub.Matches(t) for posting-list candidates (whose
// stream membership is already established): the tag test compares the tuple
// header; a string-equality test passes only on a string-typed value equal to
// its literal (Value.Compare orders every number before every string); each
// compiled group evaluates one
// interval-membership test on the attribute value; string-typed or NaN
// values fall back to the attribute's original predicates; uncompiled filters
// evaluate raw. Conjunction order does not matter (predicate evaluation is
// pure), so the outcome is exactly Subscription.Matches'.
func (c *compiledSub) matches(t *stream.Tuple) bool {
	if c.tag != "" && c.tag != t.Tag {
		return false
	}
	for _, e := range c.strEq {
		if v, ok := t.Attrs[e.attr]; !ok || v.Type != stream.String || v.S != e.want {
			return false
		}
	}
	for i := range c.groups {
		g := &c.groups[i]
		v, ok := t.Get(g.attr)
		if !ok {
			return false
		}
		if v.Type == stream.String || math.IsNaN(v.F) {
			if !c.holdsUnfolded(g.attr, t) {
				return false
			}
		} else if !g.iv.ContainsFloat(v.F) {
			return false
		}
	}
	for _, p := range c.raw {
		if !evalFilter(p, *t) {
			return false
		}
	}
	return true
}

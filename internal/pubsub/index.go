package pubsub

import (
	"math"
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
// time. The retained linear matcher iterates the same records (subs, in
// registration order) but matches and checks covering with the uncompiled
// per-subscription walks; the two are equivalent bit-for-bit: identical
// forwarding decisions, local delivery sets and orders, projection
// attribute sets, and therefore identical traffic counters (enforced by the
// package equivalence tests, the same discipline as querygraph's naive
// edge-construction oracle).
//
// The index also feeds the lock-free snapshot read path (snapshot.go):
// add/remove mark the touched streams in dirtySnap so publishLocked can
// re-freeze only those, and remove REPLACES a posting list with a fresh
// copy instead of splicing it in place — published snapshots alias the
// byStream slices, and an in-place splice would mutate an epoch a
// lock-free route is reading. add may append in place: it writes only at
// indexes beyond every published snapshot's length. See CONCURRENCY.md.

// matchIndex is one broker's routing state: one dirIndex per neighbor
// direction plus one for local client subscriptions.
type matchIndex struct {
	locals *dirIndex
	dirs   map[topology.NodeID]*dirIndex
	// dirOrder caches the direction keys ascending, so cover scans, replay
	// and un-suppression sweeps iterate deterministically without
	// re-sorting the key set per call.
	dirOrder []topology.NodeID
}

func newMatchIndex() *matchIndex {
	return &matchIndex{locals: newDirIndex(), dirs: make(map[topology.NodeID]*dirIndex)}
}

// dir returns the index of one neighbor direction, creating it on first use.
func (m *matchIndex) dir(n topology.NodeID) *dirIndex {
	d, ok := m.dirs[n]
	if !ok {
		d = newDirIndex()
		m.dirs[n] = d
		at := sort.Search(len(m.dirOrder), func(i int) bool { return m.dirOrder[i] >= n })
		m.dirOrder = append(m.dirOrder, 0)
		copy(m.dirOrder[at+1:], m.dirOrder[at:])
		m.dirOrder[at] = n
	}
	return d
}

// dropDir deletes a direction's index wholesale. Only DetachNeighbor calls
// it, after retracting every record the direction held — what remains is at
// most the empty container maps and reorder tombstones, which die with the
// link (no message can ever arrive from the direction again).
func (m *matchIndex) dropDir(n topology.NodeID) {
	if _, ok := m.dirs[n]; !ok {
		return
	}
	delete(m.dirs, n)
	for i, x := range m.dirOrder {
		if x == n {
			m.dirOrder = append(m.dirOrder[:i], m.dirOrder[i+1:]...)
			break
		}
	}
}

// dirIndex indexes the subscriptions of one direction (a neighbor, or the
// broker's locals).
type dirIndex struct {
	subs []*compiledSub
	// byStream holds the posting lists, each in registration order. A
	// subscription listing a stream twice appears once (matching is
	// per-subscription, not per-listing).
	byStream map[string][]*compiledSub
	// union holds the per-stream projection union, maintained
	// incrementally on add and recomputed for the affected streams on
	// remove. Published maps are immutable (copy-on-write): route hands
	// them to in-flight hops outside the broker lock.
	union map[string]*attrUnion
	// retracted holds tombstones for retractions that arrived before
	// the subscription they withdraw (ID → retracted epoch). Sends
	// happen outside the broker lock, so a retraction can overtake the
	// propagation it chases (concurrent brokers, or the asynchronous
	// TCP transport); without the tombstone the late-arriving record
	// would be installed with no retraction ever coming. A tombstone is
	// consumed by the propagation it suppresses, or superseded by a
	// newer epoch of the ID.
	retracted map[string]uint64
	// byID indexes records by subscription ID in registration order, so
	// find/removeByID are O(records per ID) instead of a scan over the
	// whole direction — the dominant cost of a subscribe/unsubscribe
	// cycle against a large stable population.
	byID map[string][]*compiledSub
	// dirtySnap marks the streams whose posting list or union changed
	// since the last snapshot publish, so publishLocked re-freezes only
	// those (snapshot.go). Maintained by add/remove, drained by snapDir.
	dirtySnap map[string]bool
}

func newDirIndex() *dirIndex {
	return &dirIndex{
		byStream:  make(map[string][]*compiledSub),
		union:     make(map[string]*attrUnion),
		retracted: make(map[string]uint64),
		byID:      make(map[string][]*compiledSub),
		dirtySnap: make(map[string]bool),
	}
}

// add appends a compiled subscription, updating posting lists and projection
// unions.
func (d *dirIndex) add(c *compiledSub) {
	d.subs = append(d.subs, c)
	d.byID[c.sub.ID] = append(d.byID[c.sub.ID], c)
	seen := make(map[string]bool, len(c.sub.Streams))
	for _, s := range c.sub.Streams {
		if seen[s] {
			continue
		}
		seen[s] = true
		d.byStream[s] = append(d.byStream[s], c)
		d.union[s] = d.union[s].extend(c.keep)
		d.dirtySnap[s] = true
	}
}

// find returns the most recently added record with the given subscription
// ID, or nil. Directions hold at most one record per ID (propagate replaces
// on newer epochs); locals may briefly hold more when a client reuses an ID
// without unsubscribing, and then the newest registration owns it.
func (d *dirIndex) find(id string) *compiledSub {
	recs := d.byID[id]
	if len(recs) == 0 {
		return nil
	}
	return recs[len(recs)-1]
}

// remove deletes one record, keeping posting lists in registration order
// and recomputing the projection unions of the affected streams. Posting
// lists and unions of streams no longer subscribed are deleted outright, so
// an idle broker's routing tables drain to empty. The surviving posting
// list is a FRESH slice, not an in-place splice: published snapshots alias
// the old one (snapshot.go's sharing discipline), so it must stay intact
// until its epoch is swapped out.
func (d *dirIndex) remove(c *compiledSub) {
	for i, x := range d.subs {
		if x == c {
			d.subs = append(d.subs[:i], d.subs[i+1:]...)
			break
		}
	}
	ids := d.byID[c.sub.ID]
	for i, x := range ids {
		if x == c {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(d.byID, c.sub.ID)
	} else {
		d.byID[c.sub.ID] = ids
	}
	seen := make(map[string]bool, len(c.sub.Streams))
	for _, s := range c.sub.Streams {
		if seen[s] {
			continue
		}
		seen[s] = true
		d.dirtySnap[s] = true
		list := d.byStream[s]
		fresh := make([]*compiledSub, 0, len(list))
		for _, x := range list {
			if x != c {
				fresh = append(fresh, x)
			}
		}
		if len(fresh) == 0 {
			delete(d.byStream, s)
			delete(d.union, s)
			continue
		}
		d.byStream[s] = fresh
		d.union[s] = unionOf(fresh)
	}
}

// removeByID removes every record with the given subscription ID and
// returns them in registration order (empty when the ID is unknown — the
// caller treats that as a no-op).
func (d *dirIndex) removeByID(id string) []*compiledSub {
	removed := append([]*compiledSub(nil), d.byID[id]...)
	for _, c := range removed {
		d.remove(c)
	}
	return removed
}

// coverCandidates returns the recorded subscriptions that could cover sub:
// a covering subscription must list every stream of sub, so the posting list
// of sub's first stream is an exact candidate superset.
func (d *dirIndex) coverCandidates(sub *Subscription) []*compiledSub {
	return d.byStream[sub.Streams[0]]
}

// attrUnion is the projection union of the subscriptions posted on one
// (direction, stream) pair: all is set when any of them keeps every
// attribute (nil Attrs); keep unions the explicit projection lists.
type attrUnion struct {
	all  bool
	keep map[string]bool
}

// unionOf rebuilds a projection union from scratch — the recompute path of
// remove, folding in place instead of chaining per-candidate extends. The
// result is content-identical to the incremental chain: all is set when any
// candidate keeps every attribute, keep unions the explicit lists.
func unionOf(list []*compiledSub) *attrUnion {
	u := &attrUnion{}
	for _, c := range list {
		if c.keep == nil {
			u.all = true
			continue
		}
		if u.keep == nil {
			u.keep = make(map[string]bool, len(c.keep))
		}
		for a := range c.keep {
			u.keep[a] = true
		}
	}
	return u
}

// extend returns the union grown by one subscription's projection set. The
// receiver (and its keep map) is never mutated — hops captured by an
// in-flight route may still reference it — so growth builds a fresh map.
func (u *attrUnion) extend(keep map[string]bool) *attrUnion {
	next := &attrUnion{}
	var old map[string]bool
	if u != nil {
		next.all = u.all
		old = u.keep
	}
	if keep == nil {
		next.all = true
		next.keep = old
		return next
	}
	merged := make(map[string]bool, len(old)+len(keep))
	for a := range old {
		merged[a] = true
	}
	for a := range keep {
		merged[a] = true
	}
	next.keep = merged
	return next
}

// compiledSub is one recorded subscription with its matching and lifecycle
// state: the projection set as a lookup map, the filters partitioned into
// string-equality tests, compiled per-attribute interval groups (numeric
// selections) and a raw remainder evaluated predicate-by-predicate, the
// issuing epoch, and the propagation record.
type compiledSub struct {
	sub     *Subscription
	handler Handler // locals only
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
	sentTo map[topology.NodeID]bool
	// coveredBy is the covered-by churn index, forward side: coveredBy[n]
	// is the record whose propagation toward n suppressed this one.
	// Invariant (maintained at propagate/replay/retract/un-suppress time,
	// under Broker.mu): the suppressor is still recorded, has sentTo[n],
	// and Covers this subscription; the entry is deleted the moment the
	// suppressor is removed or this record is removed or sent.
	coveredBy map[topology.NodeID]*compiledSub
	// suppresses is the reverse side: every (record, neighbor) decision
	// this record's propagation is currently suppressing. Retraction
	// un-suppression visits exactly this set instead of every record
	// sharing a stream.
	suppresses map[covEdge]bool
	// keep mirrors sub.Attrs as a set: nil keeps every attribute; an empty
	// non-nil map mirrors an explicitly empty projection list.
	keep   map[string]bool
	strEq  []strEqTest
	groups []attrGroup
	raw    []query.Predicate
}

// strEqTest is a compiled `attr == "literal"` filter (the result-stream tag
// of every middleware user subscription): one map lookup, one string compare.
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

// sortCovEdges orders suppressed decisions the way the reference sweep
// visits records: target neighbor ascending, then locals before remote
// directions (srcDir ascending), then registration order.
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

// listsAny reports whether the subscription lists any stream of the set —
// the candidate filter of retraction un-suppression (a covering
// subscription lists a superset of the covered one's streams).
func (c *compiledSub) listsAny(streams map[string]bool) bool {
	for _, s := range c.sub.Streams {
		if streams[s] {
			return true
		}
	}
	return false
}

// attrGroup is the compiled conjunction of one attribute's numeric selection
// filters: the folded interval for the fast path, plus the original
// predicates for the fallback on string-typed or NaN attribute values (whose
// Compare semantics an interval cannot express).
type attrGroup struct {
	attr  string
	iv    query.Interval
	preds []query.Predicate
}

// compileSub precomputes the matching state of one subscription. handler is
// non-nil only for local client subscriptions.
func compileSub(s *Subscription, h Handler) *compiledSub {
	c := &compiledSub{sub: s, handler: h, keep: keepSet(s.Attrs)}
	groups := make(map[string]int)
	for _, f := range s.Filters {
		n, ok := query.NumericSelection(f)
		if !ok {
			// n is f normalised. "timestamp" stays raw: Tuple.Get answers it
			// from the tuple header, not from Attrs.
			if n.IsSelection() && n.Op == query.Eq && n.Right.Lit != nil && n.Right.Lit.Type == stream.String && n.Left.Col.Attr != "timestamp" {
				c.strEq = append(c.strEq, strEqTest{n.Left.Col.Attr, n.Right.Lit.S})
				continue
			}
			c.raw = append(c.raw, f)
			continue
		}
		attr := n.Left.Col.Attr
		gi, ok := groups[attr]
		if !ok {
			gi = len(c.groups)
			groups[attr] = gi
			c.groups = append(c.groups, attrGroup{attr: attr, iv: query.FullInterval()})
		}
		g := &c.groups[gi]
		g.iv = g.iv.Constrain(n.Op, *n.Right.Lit)
		g.preds = append(g.preds, f)
	}
	return c
}

// matches reproduces sub.Matches(t) for posting-list candidates (whose
// stream membership is already established): a string-equality test passes
// only on a string-typed value equal to its literal (Value.Compare orders
// every number before every string); each compiled group evaluates one
// interval-membership test on the attribute value; string-typed or NaN
// values fall back to the group's original predicates; uncompiled filters
// evaluate raw. Conjunction order does not matter (predicate evaluation is
// pure), so the outcome is exactly the linear matcher's.
func (c *compiledSub) matches(t stream.Tuple) bool {
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
			for _, p := range g.preds {
				if !evalFilter(p, t) {
					return false
				}
			}
			continue
		}
		if !g.iv.ContainsFloat(v.F) {
			return false
		}
	}
	for _, p := range c.raw {
		if !evalFilter(p, t) {
			return false
		}
	}
	return true
}

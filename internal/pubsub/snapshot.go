package pubsub

import (
	"sort"

	"repro/internal/stream"
	"repro/internal/topology"
)

// This file implements the RCU-style snapshot read path of the matching
// engine (see CONCURRENCY.md for the full memory model). The authoritative
// routing state — the per-direction dirIndex posting lists, compiled filter
// intervals and projection unions of index.go — stays mutable under
// Broker.mu exactly as before. What changes is how route reads it: every
// churn operation that mutates the index rebuilds the affected slice of an
// immutable matchSnapshot under the lock and publishes it with one atomic
// pointer swap (Broker.publishLocked). route loads the pointer once and
// matches against that frozen epoch without taking the lock at all, so
// concurrent publishes from different neighbors match in parallel and never
// block on (or observe a half-applied) subscribe/retract/advertise.
//
// Immutability contract (enforced by the lockdiscipline analyzer's
// cosmoslint:snapshot rule): snapshot types are write-once — populated only
// inside the builder that constructs them, never mutated after the
// atomic.Pointer publish, without exception.
//
// Sharing discipline: an epoch does NOT copy the matching state. Its
// streamSnaps ARE the posting lists' current views (index.go), shared by
// pointer, and those alias the *compiledSub matching fields (sub, keep,
// strEq, groups, raw — write-once at compileSub). This is sound because the
// write side never writes where a view can see: a churn operation replaces a
// list's view — appends land beyond the old one's length, the tombstone set,
// index version, union and a compacted list are fresh values — and the
// lifecycle fields it does mutate in place (sentTo, coveredBy, suppresses,
// seq) are never read by the match path. An epoch therefore stays
// internally consistent forever; it just goes stale, and the next publish
// swaps it out wholesale.

// matchSnapshot is one published epoch of a broker's matching state: the
// neighbor set, the local-subscription view and one dirSnap per direction
// that held records at publish time. Reached only via Broker.snap.Load();
// the single top-level pointer is what makes an epoch atomic — a route
// either sees all of a churn operation's effects or none of them.
//
// cosmoslint:snapshot
type matchSnapshot struct {
	neighbors []topology.NodeID
	locals    *dirSnap
	dirs      map[topology.NodeID]*dirSnap
}

// dirSnap is the frozen per-stream view of one direction: the posting-list
// entries sorted by stream name for binary-search lookup. Directions with
// no posting lists publish an empty dirSnap (or none at all — route treats
// both as "not interested").
//
// cosmoslint:snapshot
type dirSnap struct {
	streams []streamSnapEntry
}

// streamSnapEntry pairs a stream name with its frozen posting-list view.
//
// cosmoslint:snapshot
type streamSnapEntry struct {
	name string
	ss   *streamSnap
}

// streamSnap is one view of a (direction, stream) posting list, built by
// postList.add/remove and frozen from then on: the records in registration
// order, the removed positions among them (ascending), the projection union
// and the interval index version.
//
// cosmoslint:snapshot
type streamSnap struct {
	cands []*compiledSub
	dead  []int32
	union map[string]bool
	idx   *attrPruneIndex
}

// live returns the number of records that are not tombstones.
func (ss *streamSnap) live() int { return len(ss.cands) - len(ss.dead) }

// stream returns the frozen view of one stream's posting list, or nil when
// the direction holds no subscriptions on it.
func (ds *dirSnap) stream(s string) *streamSnap {
	lo, hi := 0, len(ds.streams)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ds.streams[mid].name < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ds.streams) && ds.streams[lo].name == s {
		return ds.streams[lo].ss
	}
	return nil
}

// snapDir builds the frozen view of one direction. When the direction is
// clean since the previous epoch, the previous dirSnap is shared as-is
// (epoch construction is O(dirty streams), not O(index)); otherwise the
// dirty streams are re-frozen and merged into the previous entry list in
// one sorted walk. A nil prev rebuilds from scratch (new direction, or a
// full rebuild after a neighbor change). Caller holds Broker.mu.
func snapDir(d *dirIndex, prev *dirSnap) *dirSnap {
	if prev == nil {
		clear(d.dirtySnap)
		names := make([]string, 0, len(d.byStream))
		//lint:maporder names are put into canonical order by sort.Strings below
		for s := range d.byStream {
			names = append(names, s)
		}
		sort.Strings(names)
		ds := &dirSnap{streams: make([]streamSnapEntry, 0, len(names))}
		for _, s := range names {
			ds.streams = append(ds.streams, streamSnapEntry{name: s, ss: d.byStream[s].streamSnap})
		}
		return ds
	}
	if len(d.dirtySnap) == 0 {
		return prev
	}
	dirty := make([]string, 0, len(d.dirtySnap))
	//lint:maporder dirty names are put into canonical order by sort.Strings below
	for s := range d.dirtySnap {
		dirty = append(dirty, s)
	}
	sort.Strings(dirty)
	clear(d.dirtySnap)
	out := make([]streamSnapEntry, 0, len(prev.streams)+len(dirty))
	i, j := 0, 0
	for i < len(prev.streams) || j < len(dirty) {
		if j >= len(dirty) || (i < len(prev.streams) && prev.streams[i].name < dirty[j]) {
			out = append(out, prev.streams[i])
			i++
			continue
		}
		s := dirty[j]
		j++
		if i < len(prev.streams) && prev.streams[i].name == s {
			i++ // superseded (or fully drained) previous entry
		}
		// remove deletes emptied posting lists from byStream, so a dirty
		// stream with no list left simply drops out of the epoch.
		if pl := d.byStream[s]; pl != nil {
			out = append(out, streamSnapEntry{name: s, ss: pl.streamSnap})
		}
	}
	return &dirSnap{streams: out}
}

// publishLocked swaps in the next matching-state epoch. Every entry point
// that mutates the index (or the neighbor set) calls it at the end of its
// critical section, so in any single-threaded execution the published
// snapshot is always exactly equivalent to the live index — which is what
// keeps the sequential equivalence suites bit-identical.
// Cheap when nothing relevant changed (one dirty check); O(dirty streams)
// otherwise. Caller holds b.mu.
func (b *Broker) publishLocked() {
	if b.linearMatch {
		// The linear reference routes through the locked path; an epoch
		// swap to nil is how the switch reaches in-flight routes. snapAll
		// stays set so switching back rebuilds from scratch (dirty marks
		// kept accumulating, but prev snapshots are gone).
		b.snap.Store(nil)
		b.snapAll = true
		return
	}
	// base is what the next epoch shares its clean parts with: the current
	// epoch, or — on a full rebuild — nothing but the fresh neighbor set.
	base := b.snap.Load()
	if b.snapAll {
		base = &matchSnapshot{neighbors: append([]topology.NodeID(nil), b.neighbors...)}
	} else if !b.idx.dirtyAny() {
		return
	}
	next := &matchSnapshot{
		neighbors: base.neighbors,
		locals:    snapDir(b.idx.locals, base.locals),
		dirs:      make(map[topology.NodeID]*dirSnap, len(b.idx.dirs)),
	}
	for _, n := range b.idx.dirOrder {
		next.dirs[n] = snapDir(b.idx.dirs[n], base.dirs[n])
	}
	b.snapAll = false
	b.snap.Store(next)
}

// dirtyAny reports whether any direction has unpublished posting-list
// changes. Caller holds Broker.mu.
func (m *matchIndex) dirtyAny() bool {
	if len(m.locals.dirtySnap) > 0 {
		return true
	}
	for _, n := range m.dirOrder {
		if len(m.dirs[n].dirtySnap) > 0 {
			return true
		}
	}
	return false
}

// matchSnap matches via the frozen inverted index of one epoch: only the
// posting list of the tuple's stream is consulted per direction — cut down
// further to the candidates whose bounds on the most selective constrained
// attribute admit the tuple's value (matchIter), in posting-list order —
// each candidate evaluates its compiled filter groups, and when every
// candidate matches, the forwarding projection is the direction's maintained
// per-stream union instead of a per-tuple rebuild. Pruning skips only
// candidates whose exact matcher would reject the tuple anyway, so
// deliveries, forwarding decisions and projections are identical to
// matchLinear's on the index the epoch froze. Runs without Broker.mu; all
// scratch lives in the pooled bufs.
func matchSnap(snap *matchSnapshot, t stream.Tuple, from topology.NodeID, bufs *routeBufs, locals []delivery, hops []hop) ([]delivery, []hop) {
	if ls := snap.locals.stream(t.Stream); ls != nil {
		it := ls.matchIter(t, bufs)
		for c := it.next(); c != nil; c = it.next() {
			if c.handler != nil && c.matches(t) {
				locals = append(locals, delivery{h: c.handler, sub: c.sub, keep: c.keep})
			}
		}
	}
	for _, n := range snap.neighbors {
		if n == from {
			continue
		}
		ds, ok := snap.dirs[n]
		if !ok {
			continue
		}
		ss := ds.stream(t.Stream)
		if ss == nil {
			continue
		}
		matched := bufs.match[:0]
		all := false
		it := ss.matchIter(t, bufs)
		for c := it.next(); c != nil; c = it.next() {
			if !c.matches(t) {
				continue
			}
			if c.keep == nil {
				all = true
				break
			}
			matched = append(matched, c)
		}
		bufs.match = matched // retain grown capacity for the next direction
		var wanted map[string]bool
		switch {
		case all:
			wanted = nil
		case len(matched) == 0:
			continue // not interested
		case len(matched) == ss.live():
			// Every posting-list candidate matched (a pruned scan can only
			// reach this count by having evaluated the whole list), and
			// none keeps all attributes (such a candidate would have
			// matched too): the maintained union IS the per-tuple union.
			// The map is immutable (replaced, never written, on churn), so
			// handing it out is safe.
			wanted = ss.union
		default:
			wanted = make(map[string]bool)
			for _, c := range matched {
				for a := range c.keep {
					wanted[a] = true
				}
			}
		}
		hops = append(hops, hop{to: n, attrs: wanted})
	}
	return locals, hops
}

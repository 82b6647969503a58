package pubsub

import (
	"slices"
	"strings"

	"repro/internal/stream"
	"repro/internal/topology"
)

// This file implements the RCU-style snapshot read path of the matching
// engine (CONCURRENCY.md has the memory model). The authoritative routing
// state — the per-direction dirIndex posting lists of index.go — is mutated
// under Broker.mu; every churn operation ends by publishing the next
// immutable matchSnapshot with one atomic pointer swap (publishLocked). route
// loads the pointer once and matches against that frozen epoch without the
// lock, so concurrent publishes match in parallel and never block on (or see
// half of) a subscribe/retract/advertise.
//
// Snapshot types are write-once (the lockdiscipline analyzer's
// cosmoslint:snapshot rule): filled by the builder that constructs them,
// never written after the publish. An epoch does not copy the matching
// state: its streamSnaps ARE the posting lists' current views, shared by
// pointer, and those alias the *compiledSub matching fields (sub, keep, tag,
// strEq, groups, raw — write-once at compileSub). The write side never writes
// where a view can see — a churn operation replaces a list's view, and the
// lifecycle fields it mutates in place (sentTo, coveredBy, suppresses, seq,
// olderID) are never read by the match path — so an epoch stays consistent forever; it
// only goes stale, and the next publish swaps it out.

// matchSnapshot is one published epoch of a broker's matching state: the
// neighbor set and the stream table. Reached only via Broker.snap.Load(); the
// single top-level pointer is what makes an epoch atomic — a route either
// sees all of a churn operation's effects or none of them.
//
// cosmoslint:snapshot
type matchSnapshot struct {
	neighbors []topology.NodeID
	// streams, the stream table, holds an entry exactly for the streams some
	// direction has a posting list on, sorted by name: one search per route.
	streams []*streamRoutes
}

// streamRoutes is everything a route of one stream's tuple consults: the
// local subscriptions' posting-list view (nil when there is none) and, in
// neighbor order, the view of every neighbor direction holding one.
//
// cosmoslint:snapshot
type streamRoutes struct {
	stream string
	locals *streamSnap
	dirs   []dirRoute
}

// find returns the position of a stream's table entry, or where it would go.
func (snap *matchSnapshot) find(s string) (int, bool) {
	return slices.BinarySearchFunc(snap.streams, s, func(sr *streamRoutes, s string) int { return strings.Compare(sr.stream, s) })
}

// dirRoute is one neighbor direction's posting-list view of a stream.
//
// cosmoslint:snapshot
type dirRoute struct {
	to topology.NodeID
	ss *streamSnap
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
	union []string // sorted; replaced on churn, never written
	idx   *attrPruneIndex
}

// live returns the number of records that are not tombstones.
func (ss *streamSnap) live() int { return len(ss.cands) - len(ss.dead) }

// routesOf derives one stream's table entry from the posting lists' current
// views; it holds none when no direction has a list on the stream (remove
// deletes an emptied list). Caller holds Broker.mu.
func (b *Broker) routesOf(s string) *streamRoutes {
	sr := &streamRoutes{stream: s}
	if pl := b.idx.locals.byStream[s]; pl != nil {
		sr.locals = pl.streamSnap
	}
	for _, n := range b.neighbors {
		if d := b.idx.dirs[n]; d != nil && d.byStream[s] != nil {
			if sr.dirs == nil {
				sr.dirs = make([]dirRoute, 0, len(b.neighbors))
			}
			sr.dirs = append(sr.dirs, dirRoute{to: n, ss: d.byStream[s].streamSnap})
		}
	}
	return sr
}

// publishLocked swaps in the next matching-state epoch. Every entry point
// that mutates the index (or the neighbor set) calls it at the end of its
// critical section, so in any single-threaded execution the published
// snapshot is exactly equivalent to the live index — which keeps the
// sequential equivalence suites bit-identical. One dirty check when nothing
// changed; otherwise one memmove of the stream table's pointers (clean
// entries are shared) plus O(dirty streams) entries re-derived, a drained
// stream's dropped. Caller holds b.mu.
func (b *Broker) publishLocked() {
	dirty, prev := b.idx.dirty, b.snap.Load()
	if len(dirty) == 0 && !b.snapNeighbors {
		return
	}
	next := &matchSnapshot{neighbors: prev.neighbors, streams: slices.Clone(prev.streams)}
	if b.snapNeighbors {
		next.neighbors = slices.Clone(b.neighbors)
	}
	for s := range dirty {
		i, found := next.find(s)
		if found {
			next.streams = slices.Delete(next.streams, i, i+1)
		}
		if sr := b.routesOf(s); sr.locals != nil || sr.dirs != nil {
			next.streams = slices.Insert(next.streams, i, sr)
		}
	}
	clear(dirty)
	b.snapNeighbors = false
	b.snap.Store(next)
}

// matchSnap matches via the frozen inverted index of one epoch: one search of
// the stream table finds the posting lists of the tuple's stream, local and
// per direction, and only those are consulted — each cut down further to the
// candidates whose bounds on the most selective constrained attribute admit
// the tuple's value (matchIter), in posting-list order. Each candidate
// evaluates its compiled filters, and when every candidate matches, the
// forwarding projection is the direction's maintained per-stream union
// instead of a per-tuple rebuild. Pruning skips only candidates the exact
// matcher would reject, so deliveries, forwarding decisions and projections
// are those of a Subscription.Matches scan over the records the epoch froze.
// Runs without Broker.mu; all scratch lives in the pooled bufs.
func matchSnap(snap *matchSnapshot, t *stream.Tuple, from topology.NodeID, bufs *routeBufs, locals []delivery, hops []hop) ([]delivery, []hop) {
	i, ok := snap.find(t.Stream)
	if !ok {
		return locals, hops
	}
	sr := snap.streams[i]
	if sr.locals != nil {
		it := sr.locals.matchIter(t, bufs)
		for c := it.next(); c != nil; c = it.next() {
			if c.handler != nil && c.matches(t) {
				locals = append(locals, delivery{h: c.handler, sub: c.sub})
			}
		}
	}
	for _, d := range sr.dirs {
		if d.to == from {
			continue
		}
		matched := bufs.match[:0]
		all := false
		it := d.ss.matchIter(t, bufs)
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
		var wanted []string
		switch {
		case all:
			wanted = nil
		case len(matched) == 0:
			continue // not interested
		case len(matched) == d.ss.live():
			// Every posting-list candidate matched (a pruned scan can only
			// reach this count by having evaluated the whole list), and
			// none keeps all attributes (such a candidate would have
			// matched too): the maintained union IS the per-tuple union.
			// The slice is immutable (replaced, never written, on churn), so
			// handing it out is safe.
			wanted = d.ss.union
		default:
			n := 0
			for _, c := range matched {
				n += len(c.keep)
			}
			wanted = make([]string, 0, n) // non-nil even when every list is empty
			for _, c := range matched {
				wanted = append(wanted, c.keep...)
			}
			slices.Sort(wanted)
			wanted = slices.Compact(wanted)
		}
		hops = append(hops, hop{to: d.to, attrs: wanted})
	}
	return locals, hops
}

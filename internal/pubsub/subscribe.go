package pubsub

import (
	"fmt"
	"slices"

	"repro/internal/topology"
)

// Subscribe registers a local client subscription and propagates it toward
// the advertised publishers, suppressing propagation covered by an earlier
// subscription sent the same way (the p1∪p2 merge point of Fig 3). Streams
// advertised only later are caught up by re-propagation epochs (advertFrom).
func (b *Broker) Subscribe(sub *Subscription, h Handler) error {
	if sub == nil || len(sub.Streams) == 0 {
		return fmt.Errorf("pubsub: empty subscription")
	}
	b.mu.Lock()
	exists := b.idx.locals.find(sub.ID) != nil
	b.mu.Unlock()
	if exists {
		// Re-subscribing a live ID supersedes the old incarnation
		// everywhere (the documented ID contract): retract it first so
		// no broker — including this one — is left holding both.
		b.Unsubscribe(sub.ID)
	}
	b.mu.Lock()
	b.seq++
	sub.Seq = b.seq
	c := compileSub(sub, h)
	c.seq = sub.Seq
	c.srcDir = -1
	b.recCount++
	c.regSeq = b.recCount
	b.idx.locals.add(c)
	b.publishLocked()
	b.mu.Unlock()
	cSubscribes.Inc()
	b.propagate(sub, -1)
	return nil
}

// Unsubscribe withdraws a local client subscription by ID: the local record
// is dropped, a retraction follows the propagation path removing the
// routing state recorded for it at other brokers, and any subscription the
// removed one was covering is re-propagated (un-suppressed) toward the
// neighbors it was suppressed for. Unsubscribing an unknown ID — including
// a second Unsubscribe of the same ID — is a no-op.
func (b *Broker) Unsubscribe(id string) {
	b.mu.Lock()
	removed := b.idx.locals.removeByID(id)
	if len(removed) == 0 {
		b.mu.Unlock()
		return // unknown or already removed: explicit no-op
	}
	var targets nodeSet
	var seq uint64
	var edges []covEdge
	for _, c := range removed {
		for _, n := range c.sentTo {
			targets.set(n)
		}
		if c.seq > seq {
			seq = c.seq
		}
		edges = append(edges, detachCovEdges(c)...)
	}
	if len(removed) > 1 {
		sortCovEdges(edges)
	}
	var p pends
	b.unsuppressEdges(&p, edges)
	b.publishLocked()
	b.mu.Unlock()
	cUnsubscribes.Inc()
	b.sendRetractions(targets, id, seq)
	b.sendPends(p)
}

// retractFrom handles a retraction arriving from a neighbor: the record of
// the subscription is removed, the retraction is forwarded along the
// record's own propagation edges, and covered subscriptions un-suppress. A
// retraction for an unknown ID, a duplicate retraction, or one older than
// the recorded epoch (seq) is a no-op.
func (b *Broker) retractFrom(from topology.NodeID, id string, seq uint64) {
	b.mu.Lock()
	if !slices.Contains(b.neighbors, from) {
		b.mu.Unlock()
		return // dead-link straggler (see advertFrom)
	}
	d := b.idx.dir(from)
	rec := d.find(id)
	if rec == nil {
		// The retraction overtook the propagation it chases (sends
		// happen outside broker locks): leave a tombstone so the
		// late-arriving record is dropped instead of being installed
		// with no retraction ever coming. Nothing to forward — this
		// broker never recorded, so it never propagated onward.
		if ts, ok := d.retracted[id]; !ok || seq > ts {
			d.retracted[id] = seq
		}
		b.mu.Unlock()
		return
	}
	if rec.seq > seq {
		b.mu.Unlock()
		return // stale retraction: superseded by a newer epoch
	}
	d.remove(rec)
	var p pends
	b.unsuppressEdges(&p, detachCovEdges(rec))
	b.publishLocked()
	b.mu.Unlock()
	b.sendRetractions(rec.sentTo, id, seq)
	b.sendPends(p)
}

// sendRetractions sends, and counts, one retraction per target.
func (b *Broker) sendRetractions(targets nodeSet, id string, seq uint64) {
	cRetractionsSent.Add(int64(len(targets)))
	for _, n := range targets {
		b.net.CountControl(b.Node, n, retractSize)
		b.net.Peer(n).RetractFrom(b.Node, id, seq)
	}
}

// pendSend is one subscription propagation decided under the lock and sent
// after releasing it.
type pendSend struct {
	to  topology.NodeID
	sub *Subscription
}

// pends collects the propagation decisions of one critical section: the
// sends, in decision order, and how many decisions a cover suppressed
// instead. Every decision site — a new subscription's, an advert replay's, an
// un-suppression's — records into one, and sendPends counts it after the
// unlock.
type pends struct {
	sends      []pendSend
	suppressed int
}

// sendPends counts a critical section's decisions and delivers its sends.
func (b *Broker) sendPends(p pends) {
	cSubsSent.Add(int64(len(p.sends)))
	cSubsSuppressed.Add(int64(p.suppressed))
	for _, s := range p.sends {
		b.net.CountControl(b.Node, s.to, subSize(s.sub))
		b.net.Peer(s.to).PropagateFrom(s.sub, b.Node)
	}
}

// decideLocked makes c's propagation decision toward an eligible neighbor n
// it was neither sent toward nor suppressed for. Covering suppression: a
// DIFFERENT subscription covering c that was actually propagated to n already
// pulls a superset of c's traffic toward n, so c need not be sent there, and
// the suppression edge is recorded. Suppression is gated on the cover's own
// sentTo — a subscription recorded before the relevant adverts arrived was
// sent nowhere and guarantees nothing. Otherwise c is marked sent and
// queued. c's filters are folded into the broker's scratch (coverFold) for
// the cover scan, so a decision builds no map. Caller holds b.mu.
func (b *Broker) decideLocked(p *pends, c *compiledSub, n topology.NodeID) {
	b.coverFold = foldSelections(b.coverFold, c.sub.Filters)
	if cov := b.coverFor(n, c.sub, b.coverFold); cov != nil {
		suppressEdge(cov, c, n)
		p.suppressed++
		return
	}
	c.sentTo.set(n)
	p.sends = append(p.sends, pendSend{to: n, sub: c.sub})
}

// unsuppressEdges re-runs the propagation decisions a removal released: each
// detached suppression edge is one (record, neighbor) decision — either a
// surviving cover takes over (a fresh edge is recorded) or the record finally
// propagates. No other decision can have changed: its suppressor survives,
// and covering is monotone in sentTo, which only grows between removals.
// Visiting edges in canonical sweep order (sortCovEdges) makes a record sent
// early in the pass eligible to cover records considered later. Caller holds
// b.mu, with the removed record already gone.
func (b *Broker) unsuppressEdges(p *pends, edges []covEdge) {
	for _, e := range edges {
		c, n := e.rec, e.to
		if c.sentTo.has(n) || c.coveredBy[n] != nil || !b.advertisesAny(n, c.sub.Streams) {
			continue
		}
		b.decideLocked(p, c, n)
	}
}

// propagate records a subscription arriving from a neighbor (from >= 0) and
// forwards it to every neighbor that advertises one of its streams (except
// the neighbor it came from), unless a subscription already forwarded that
// way covers it. Covering scans consult the matching index: a covering
// subscription must list sub's first stream, so only that posting list's
// candidates are examined. A re-delivery of an already recorded epoch
// (same ID and direction, seq not newer) is dropped without re-flooding —
// the duplicate suppression that keeps replay epochs from looping.
func (b *Broker) propagate(sub *Subscription, from topology.NodeID) {
	if sub == nil || len(sub.Streams) == 0 {
		// Subscribe validates this, but PropagateFrom is also reachable
		// from wire transports; a streamless subscription matches
		// nothing and must not be recorded or flooded.
		return
	}
	b.mu.Lock()
	if from >= 0 && !slices.Contains(b.neighbors, from) {
		b.mu.Unlock()
		return // dead-link straggler (see advertFrom)
	}
	var rec *compiledSub
	var p pends
	// Suppression released by a superseded older epoch of the same ID, to
	// re-decide after the fresh record has made its own propagation
	// decisions (so it can take over the covering it still provides).
	var supEdges []covEdge
	if from >= 0 {
		d := b.idx.dir(from)
		if ts, ok := d.retracted[sub.ID]; ok {
			if sub.Seq <= ts {
				// The retraction overtook this propagation: obey it. The
				// tombstone is KEPT, not consumed — on a link that can
				// duplicate, a second stale copy may still be in flight,
				// and consuming the tombstone here would let that copy
				// install a record no retraction will ever chase. Only a
				// newer epoch of the ID clears it; a quiesced overlay
				// drops stragglers wholesale (Network.Quiesce).
				b.mu.Unlock()
				return
			}
			// Newer epoch of the ID: supersedes the tombstone.
			delete(d.retracted, sub.ID)
		}
		if prev := d.find(sub.ID); prev != nil {
			if sub.Seq <= prev.seq {
				b.mu.Unlock()
				return // duplicate or stale epoch: stop the flood
			}
			// Newer epoch of a reused ID: the fresh record replaces
			// the old one and re-propagates from scratch. Whatever the
			// old epoch was suppressing is re-decided below — the new
			// epoch may no longer cover it.
			d.remove(prev)
			supEdges = detachCovEdges(prev)
		}
		if !b.advertisedExceptAny(from, sub.Streams) {
			// Mirror-rule install check: a record from this direction is
			// justified only while something OTHER than that direction
			// advertises one of its streams — the exact condition under
			// which the sender keeps its sentTo mark. The sender checked
			// it before sending, so the only way to get here is an
			// advert withdrawal that crossed this propagation in flight:
			// the sender's mark is (being) cleared by its rule (a), so
			// no retraction will ever chase this record — installing it
			// would strand it forever. Drop it; a re-advertisement
			// replays the subscription from the sender's surviving copy.
			b.unsuppressEdges(&p, supEdges)
			// The superseded record's removal (if any) must reach the
			// published epoch even though nothing was installed.
			b.publishLocked()
			b.mu.Unlock()
			b.sendPends(p)
			return
		}
		rec = compileSub(sub.Clone(), nil)
		rec.seq = sub.Seq
		rec.srcDir = from
		b.recCount++
		rec.regSeq = b.recCount
		d.add(rec)
	} else {
		// Locally originated: Subscribe already recorded it. The epoch
		// must match — under a concurrent re-subscribe of the same ID
		// the newest registration owns it, and sending this (older)
		// payload while charging the newer record's sentTo would leave
		// stale filters at the skipped neighbors forever.
		rec = b.idx.locals.find(sub.ID)
		if rec == nil || rec.seq != sub.Seq {
			b.mu.Unlock()
			return // unsubscribed or superseded since Subscribe
		}
	}
	for _, n := range b.neighbors {
		if n == from || rec.sentTo.has(n) || rec.coveredBy[n] != nil || !b.advertisesAny(n, sub.Streams) {
			continue
		}
		b.decideLocked(&p, rec, n)
	}
	b.unsuppressEdges(&p, supEdges)
	b.publishLocked()
	b.mu.Unlock()
	b.sendPends(p)
}

// coverFor returns the first recorded subscription — locals in registration
// order, then each direction other than n in ascending order — that was
// actually propagated to n and covers sub, or nil. fold is sub's filters
// folded (foldSelections), once for the whole scan over candidate covers.
// The returned record is the suppressor the covered-by index records; the
// scan order is deterministic, so repeated runs pick the same suppressor.
// A cover must list every stream of sub, so only the posting list of sub's
// first stream is examined, and of that only the records whose bounds admit
// a point of sub's own interval (coverIter) — a superset of the covers in
// posting-list order, so the first cover found is the full scan's.
func (b *Broker) coverFor(n topology.NodeID, sub *Subscription, fold []attrGroup) *compiledSub {
	first := func(d *dirIndex) *compiledSub {
		it := d.posting(sub.Streams[0]).coverIter(fold, &b.coverBufs)
		for c := it.next(); c != nil; c = it.next() {
			if c.sentTo.has(n) && c.sub.ID != sub.ID && c.covers(sub, fold) {
				return c
			}
		}
		return nil
	}
	if c := first(b.idx.locals); c != nil {
		return c
	}
	for _, dir := range b.idx.dirOrder {
		if dir == n {
			continue
		}
		if c := first(b.idx.dirs[dir]); c != nil {
			return c
		}
	}
	return nil
}

func (b *Broker) advertisesAny(neighbor topology.NodeID, streams []string) bool {
	set, ok := b.adverts[neighbor]
	if !ok {
		return false
	}
	for _, s := range streams {
		if len(set[s]) > 0 {
			return true
		}
	}
	return false
}

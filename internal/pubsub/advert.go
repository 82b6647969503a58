package pubsub

import (
	"slices"
	"sort"

	"repro/internal/topology"
)

// advKey identifies one advertisement: the stream name plus the broker whose
// clients publish it.
type advKey struct {
	stream string
	origin topology.NodeID
}

// Advertise announces that this broker's clients will publish the given
// stream. The advertisement floods the overlay so every broker learns the
// direction toward the publisher; brokers holding subscriptions on the
// stream re-propagate them toward it as the flood passes (advertFrom).
//
// Advert traffic is accounted at the SEND side, like subscription
// propagation and data forwarding: every advert that crosses a link is
// charged by its sender, including re-advertisements the receiver will
// duplicate-suppress.
func (b *Broker) Advertise(streamName string) {
	b.mu.Lock()
	seq, live := b.ownAdverts[streamName]
	if !live {
		// A fresh advertisement (first ever, or after an Unadvertise)
		// opens a new epoch; re-advertising a live stream re-floods the
		// SAME epoch, so downstream duplicate suppression stops it at
		// the first hop exactly as before.
		b.seq++
		seq = b.seq
		b.ownAdverts[streamName] = seq
	}
	neighbors := append([]topology.NodeID(nil), b.neighbors...)
	b.mu.Unlock()
	b.cAdvertises.Inc()
	for _, n := range neighbors {
		b.net.CountControl(b.Node, n, advertSize)
		b.net.Peer(n).AdvertFrom(b.Node, streamName, b.Node, seq)
	}
}

// Unadvertise withdraws an advertisement published by this broker's clients:
// the withdrawal floods along the advert paths, and every broker — starting
// with this one — prunes the per-direction advert entry plus the routing
// state the advert pulled in (recorded subscriptions whose only
// justification it was, the posting-list entries, filter intervals,
// projection unions and prune trees they fed, and the propagation marks
// toward the withdrawn direction), re-deciding covered-by suppression
// exactly as unsubscribe retraction does. Withdrawing a stream this broker
// never advertised — including a second Unadvertise — is a no-op.
func (b *Broker) Unadvertise(streamName string) {
	b.mu.Lock()
	seq, live := b.ownAdverts[streamName]
	if !live {
		b.mu.Unlock()
		return // unknown or already withdrawn: explicit no-op
	}
	delete(b.ownAdverts, streamName)
	// Ensure the withdrawal epoch outruns the advert it withdraws, so a
	// subsequent re-advertise (with a yet-newer epoch) is not mistaken
	// for the withdrawn one.
	if b.seq < seq {
		b.seq = seq
	}
	neighbors := append([]topology.NodeID(nil), b.neighbors...)
	// At the origin only the own-advert justification changed: records of
	// any direction may have been pulled here solely by it (rule b); no
	// per-direction advert entry changed, so no sentTo pruning (rule a).
	var p pends
	b.pruneAdvertLocked(&p, streamName, -1, false)
	b.publishLocked()
	b.mu.Unlock()
	b.cUnadvertises.Inc()
	for _, n := range neighbors {
		b.net.CountControl(b.Node, n, advertSize)
		b.net.Peer(n).UnadvertFrom(b.Node, streamName, b.Node, seq)
	}
	b.sendPends(p)
}

func (b *Broker) advertFrom(from topology.NodeID, streamName string, origin topology.NodeID, seq uint64) {
	b.mu.Lock()
	if !slices.Contains(b.neighbors, from) {
		// A message from a direction that is not (or no longer) an overlay
		// neighbor: the link was torn down after this advert was sent.
		// Recording it would create per-direction state no withdrawal can
		// ever reach — drop it. A rejoining broker resyncs with fresh
		// floods over its new link.
		b.mu.Unlock()
		return
	}
	key := advKey{stream: streamName, origin: origin}
	if tombs := b.unadvTomb[from]; tombs != nil {
		if ts, ok := tombs[key]; ok {
			if seq <= ts {
				// The withdrawal that overtook this advert annihilates it
				// (neither flood is forwarded — downstream saw neither).
				// The tombstone is KEPT, not consumed: on a link that can
				// duplicate (chaos, retransmitting transports) another
				// stale copy may still be in flight, and consuming the
				// tombstone on the first one would let the second
				// resurrect the withdrawn stream. Only a genuinely newer
				// epoch clears it; a quiesced overlay can drop stragglers
				// wholesale (Network.Quiesce).
				b.mu.Unlock()
				return
			}
			// Newer advert epoch: supersedes the stale tombstone.
			delete(tombs, key)
			if len(tombs) == 0 {
				delete(b.unadvTomb, from)
			}
		}
	}
	set, ok := b.adverts[from]
	if !ok {
		set = make(map[string]map[topology.NodeID]uint64)
		b.adverts[from] = set
	}
	origins := set[streamName]
	if cur, dup := origins[origin]; dup && cur >= seq {
		b.mu.Unlock()
		return // already known at this epoch (or newer); stop the flood
	}
	newStream := len(origins) == 0
	if origins == nil {
		origins = make(map[topology.NodeID]uint64)
		set[streamName] = origins
	}
	origins[origin] = seq
	neighbors := append([]topology.NodeID(nil), b.neighbors...)
	// Re-propagation epoch: replay the recorded subscriptions on the newly
	// learned stream toward the advertiser. Each send is marked in the
	// record's sentTo under the lock, so a concurrent replay cannot
	// duplicate it. A second origin of an already-known stream changes no
	// propagation decision, so nothing replays.
	var p pends
	if newStream {
		b.replayLocked(&p, from, streamName)
	}
	b.mu.Unlock()
	for _, n := range neighbors {
		if n != from {
			b.net.CountControl(b.Node, n, advertSize)
			b.net.Peer(n).AdvertFrom(b.Node, streamName, origin, seq)
		}
	}
	b.sendPends(p)
}

// unadvertFrom handles an advert withdrawal arriving from a neighbor. The
// withdrawal is forwarded along the flood (every broker recorded the advert,
// so every broker must see it), the (direction, stream, origin) advert entry
// is removed, and — when that was the stream's last origin behind 'from' —
// the routing state the advert justified is pruned: propagation marks toward
// 'from' whose streams are no longer advertised there (the mirror of the
// neighbor dropping its record), and recorded subscriptions of every other
// direction left with no advertised stream at all (the mirror of the
// upstream neighbor clearing its mark toward us). A withdrawal for an
// unknown advert leaves a tombstone (it overtook its advert); one older than
// the recorded epoch is a stale no-op.
func (b *Broker) unadvertFrom(from topology.NodeID, streamName string, origin topology.NodeID, seq uint64) {
	b.mu.Lock()
	if !slices.Contains(b.neighbors, from) {
		b.mu.Unlock()
		return // dead-link straggler (see advertFrom)
	}
	set := b.adverts[from]
	origins := set[streamName]
	cur, ok := origins[origin]
	if !ok {
		tombs := b.unadvTomb[from]
		if tombs == nil {
			tombs = make(map[advKey]uint64)
			b.unadvTomb[from] = tombs
		}
		key := advKey{stream: streamName, origin: origin}
		if ts, seen := tombs[key]; !seen || seq > ts {
			tombs[key] = seq
		}
		b.mu.Unlock()
		return
	}
	if cur > seq {
		b.mu.Unlock()
		return // stale withdrawal: a newer advert epoch superseded it
	}
	if cur < seq {
		// The withdrawal withdraws an advert epoch NEWER than the one
		// recorded — that advert is still in flight on this link
		// (reordered sends). The recorded older epoch dies with it, and
		// a tombstone annihilates the chased advert when it lands;
		// without it the late advert would resurrect a fully withdrawn
		// stream.
		tombs := b.unadvTomb[from]
		if tombs == nil {
			tombs = make(map[advKey]uint64)
			b.unadvTomb[from] = tombs
		}
		key := advKey{stream: streamName, origin: origin}
		if ts, seen := tombs[key]; !seen || seq > ts {
			tombs[key] = seq
		}
	}
	delete(origins, origin)
	lastOrigin := len(origins) == 0
	if lastOrigin {
		delete(set, streamName)
		if len(set) == 0 {
			delete(b.adverts, from)
		}
	}
	neighbors := append([]topology.NodeID(nil), b.neighbors...)
	var p pends
	if lastOrigin {
		b.pruneAdvertLocked(&p, streamName, from, true)
	}
	b.publishLocked()
	b.mu.Unlock()
	for _, n := range neighbors {
		if n != from {
			b.net.CountControl(b.Node, n, advertSize)
			b.net.Peer(n).UnadvertFrom(b.Node, streamName, origin, seq)
		}
	}
	b.sendPends(p)
}

// pruneAdvertLocked removes the routing state stranded by the disappearance
// of streamName's advertisement — via direction withdrawnDir (>= 0, the
// flood-processing case) or via this broker's own advert (withdrawnDir < 0,
// the origin case). Two symmetric rules, each broker applying them locally
// as the withdrawal flood passes (state at neighbors is pruned by THEIR
// rules — the mirror conditions coincide, so no retraction messages are
// needed):
//
//   - rule (a), only when a direction entry changed: every record listing
//     the stream that was propagated toward withdrawnDir and has no
//     remaining advertised stream there loses its sentTo mark — the
//     neighbor is dropping its mirrored record under rule (b);
//   - rule (b): every record of another direction listing the stream whose
//     streams are no longer advertised anywhere else (own adverts and the
//     remaining directions) is removed outright — the upstream neighbor is
//     clearing its sentTo mark toward us under rule (a), and no tuple it
//     could match can ever arrive here.
//
// Both rules release covered-by suppression the affected records provided;
// the freed decisions are re-decided in canonical sweep order exactly as
// unsubscribe retraction re-decides them, into p. Caller holds b.mu with the
// advert tables already updated.
func (b *Broker) pruneAdvertLocked(p *pends, streamName string, withdrawnDir topology.NodeID, ruleA bool) {
	var edges []covEdge
	if ruleA {
		sweep := func(d *dirIndex) {
			it := d.posting(streamName).scan()
			for c := it.next(); c != nil; c = it.next() {
				if b.advertisesAny(withdrawnDir, c.sub.Streams) {
					continue
				}
				// No stream of c is advertised toward the withdrawn
				// direction any more, so c is no longer eligible there: a
				// suppression edge it still holds that way is stale even
				// when its suppressor stays eligible through another stream
				// ([R] covered by [R,T], R withdrawn, T not). Nothing to
				// re-decide — drop it.
				if cov := c.coveredBy[withdrawnDir]; cov != nil {
					delete(cov.suppresses, covEdge{rec: c, to: withdrawnDir})
					delete(c.coveredBy, withdrawnDir)
				}
				if !c.sentTo.has(withdrawnDir) {
					continue
				}
				c.sentTo.clear(withdrawnDir)
				// Suppression this record provided toward the withdrawn
				// direction is no longer backed by a propagation:
				// release exactly those edges for re-decision.
				for e := range c.suppresses {
					if e.to != withdrawnDir {
						continue
					}
					delete(c.suppresses, e)
					delete(e.rec.coveredBy, e.to)
					//lint:maporder freed edges are put into canonical sweep order by sortCovEdges before any re-decision
					edges = append(edges, e)
				}
				if len(c.suppresses) == 0 {
					c.suppresses = nil
				}
			}
		}
		sweep(b.idx.locals)
		for _, d := range b.idx.dirOrder {
			sweep(b.idx.dirs[d])
		}
	}
	// rule (b): orphaned records, per direction in ascending order. The
	// orphans are collected BEFORE any removal: d.remove changes the
	// posting list under the walk (a tombstone, or a compaction).
	for _, a := range b.idx.dirOrder {
		if a == withdrawnDir {
			// The withdrawn direction's own records are justified by
			// the OTHER sides' adverts, which did not change.
			continue
		}
		d := b.idx.dirs[a]
		var orphans []*compiledSub
		it := d.posting(streamName).scan()
		for c := it.next(); c != nil; c = it.next() {
			if !b.advertisedExceptAny(a, c.sub.Streams) {
				orphans = append(orphans, c)
			}
		}
		for _, c := range orphans {
			d.remove(c)
			edges = append(edges, detachCovEdges(c)...)
		}
	}
	sortCovEdges(edges)
	b.unsuppressEdges(p, edges)
}

// advertisedExceptAny reports whether any of the streams is advertised by
// this broker's own clients or from any direction other than 'exclude' —
// i.e. whether a neighbor in direction 'exclude' still has a reason to keep
// a subscription listing these streams recorded here. This is exactly the
// advert set the broker announces toward 'exclude' (syncAdvertsTo), the
// mirror of the neighbor's advertisesAny check.
func (b *Broker) advertisedExceptAny(exclude topology.NodeID, streams []string) bool {
	for _, s := range streams {
		if _, ok := b.ownAdverts[s]; ok {
			return true
		}
	}
	for d, set := range b.adverts {
		if d == exclude {
			continue
		}
		for _, s := range streams {
			if len(set[s]) > 0 {
				return true
			}
		}
	}
	return false
}

// replayLocked decides, into p, the re-propagations toward 'from' after
// learning that it advertises streamName: every recorded subscription listing
// the stream (from the per-direction posting lists) that was neither sent
// that way nor suppressed for it. Locals replay first in registration order,
// then each other direction in ascending neighbor order — the same order a
// from-scratch network would have propagated them in. Caller holds b.mu.
func (b *Broker) replayLocked(p *pends, from topology.NodeID, streamName string) {
	replay := func(d *dirIndex) {
		it := d.posting(streamName).scan()
		for c := it.next(); c != nil; c = it.next() {
			if c.sentTo.has(from) || c.coveredBy[from] != nil {
				continue
			}
			// coverFor sees the sentTo marks set earlier in this sweep: an
			// EARLIER candidate already marked sent can cover a later one.
			b.decideLocked(p, c, from)
		}
	}
	replay(b.idx.locals)
	for _, d := range b.idx.dirOrder {
		if d != from {
			replay(b.idx.dirs[d])
		}
	}
}

// syncAdvertsTo replays every advertisement this broker knows — its own and
// those learned from other directions, each with its origin and epoch —
// toward one neighbor, in sorted (stream, origin) order. Used when a broker
// joins the overlay dynamically, so the newcomer learns the full advert
// state of the network it attached to and later withdrawals match the
// epochs it recorded.
func (b *Broker) syncAdvertsTo(n topology.NodeID) {
	b.mu.Lock()
	known := make(map[advKey]uint64, len(b.ownAdverts))
	for s, seq := range b.ownAdverts {
		known[advKey{stream: s, origin: b.Node}] = seq
	}
	for d, set := range b.adverts {
		if d == n {
			continue
		}
		for s, origins := range set {
			for origin, seq := range origins {
				key := advKey{stream: s, origin: origin}
				if cur, ok := known[key]; !ok || seq > cur {
					known[key] = seq
				}
			}
		}
	}
	keys := make([]advKey, 0, len(known))
	for k := range known {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].stream != keys[j].stream {
			return keys[i].stream < keys[j].stream
		}
		return keys[i].origin < keys[j].origin
	})
	b.mu.Unlock()
	for _, k := range keys {
		b.net.CountControl(b.Node, n, advertSize)
		b.net.Peer(n).AdvertFrom(b.Node, k.stream, k.origin, known[k])
	}
}

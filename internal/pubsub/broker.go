package pubsub

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Handler consumes tuples delivered to a local subscriber. The delivered
// tuple is owned by the broker's subscribers collectively: full-tuple
// (nil-projection) deliveries of one routed message share one attribute
// map, so handlers must treat the tuple as read-only — a handler that needs
// to mutate attributes copies them first. Retaining the tuple (e.g. in a
// query window) is fine.
type Handler func(sub *Subscription, t stream.Tuple)

// Peer is the broker-to-broker protocol: the five message kinds that cross
// overlay links. In-process networks implement it with direct calls;
// transport adapters (e.g. the TCP transport) implement it over the wire.
type Peer interface {
	// AdvertFrom delivers a stream advertisement arriving from a
	// neighbor. origin is the broker whose clients publish the stream and
	// seq the epoch the origin stamped the advertisement with; together
	// they identify the advertisement across the overlay, so a later
	// withdrawal (UnadvertFrom) removes exactly this advert and a
	// duplicate flood of the same epoch is a no-op.
	AdvertFrom(from topology.NodeID, streamName string, origin topology.NodeID, seq uint64)
	// UnadvertFrom delivers an advert withdrawal arriving from a
	// neighbor: the advertisement of streamName by origin (at epoch seq
	// or older) is withdrawn from the direction of 'from'. Brokers prune
	// the per-direction advert entry and every piece of routing state the
	// advert pulled in.
	UnadvertFrom(from topology.NodeID, streamName string, origin topology.NodeID, seq uint64)
	// PropagateFrom delivers a subscription arriving from a neighbor.
	PropagateFrom(sub *Subscription, from topology.NodeID)
	// RetractFrom delivers an unsubscription arriving from a neighbor:
	// the subscription with the given ID (at sequence number seq or
	// older) is withdrawn from the direction of 'from'.
	RetractFrom(from topology.NodeID, id string, seq uint64)
	// RouteFrom delivers a data tuple arriving from a neighbor.
	RouteFrom(t stream.Tuple, from topology.NodeID)
}

// Fabric connects a broker to its neighbors and accounts traffic. It is the
// seam between the routing logic and the deployment substrate.
type Fabric interface {
	// Peer returns the protocol endpoint of a neighbor broker.
	Peer(n topology.NodeID) Peer
	// CountControl and CountData account per-link traffic in bytes.
	CountControl(from, to topology.NodeID, size int)
	CountData(from, to topology.NodeID, size int)
}

// Flusher is the optional flush hook of fabrics whose Peer sends are
// asynchronous (the TCP transport's per-peer send pipelines). Flush blocks
// until every protocol message handed to the fabric before the call has
// left the local node — been written to the wire, or dropped by the
// fabric's overflow/failure policy. It promises nothing about the REMOTE
// end having processed the messages, so drain oracles flush first and then
// poll the receiving brokers. In-process fabrics deliver synchronously and
// need not implement it.
type Flusher interface {
	Flush()
}

// AdvertFrom, UnadvertFrom, PropagateFrom, RetractFrom and RouteFrom make
// *Broker itself a Peer, so in-process fabrics hand brokers out directly.
func (b *Broker) AdvertFrom(from topology.NodeID, streamName string, origin topology.NodeID, seq uint64) {
	b.advertFrom(from, streamName, origin, seq)
}

// UnadvertFrom implements Peer.
func (b *Broker) UnadvertFrom(from topology.NodeID, streamName string, origin topology.NodeID, seq uint64) {
	b.unadvertFrom(from, streamName, origin, seq)
}

// PropagateFrom implements Peer.
func (b *Broker) PropagateFrom(sub *Subscription, from topology.NodeID) { b.propagate(sub, from) }

// RetractFrom implements Peer.
func (b *Broker) RetractFrom(from topology.NodeID, id string, seq uint64) {
	b.retractFrom(from, id, seq)
}

// RouteFrom implements Peer.
func (b *Broker) RouteFrom(t stream.Tuple, from topology.NodeID) { b.route(t, from) }

var _ Peer = (*Broker)(nil)

// Broker is one overlay node of the Pub/Sub network. Brokers are wired into
// an acyclic overlay by Network; all routing state is per-neighbor:
//
//   - adverts[n] holds the advertisements (stream, publishing origin, epoch)
//     learned from direction n, guiding subscription propagation (Fig 2(a));
//   - idx.dirs[n] holds the subscriptions received from direction n, i.e.
//     the interests living "behind" that neighbor (Fig 2(c)); a message is
//     forwarded to n only when one of them matches (Fig 2(d));
//   - idx.locals holds this broker's client subscriptions.
//
// Routing state is dynamic (the lifecycle subsystem): every recorded
// subscription tracks the neighbors it was actually propagated to (sentTo)
// and the epoch it was issued in (seq). When a new advert direction is
// learned, the broker replays the matching posting list toward it
// (re-propagation), so subscribe-before-advertise orderings route
// correctly; when a subscription is withdrawn, a retraction follows the
// sentTo edges removing the remote records and un-suppressing any
// subscription the removed one was covering; when an advertisement is
// withdrawn (Unadvertise), the withdrawal floods the advert paths and each
// broker locally prunes the advert entry plus the subscription state it
// alone justified. Sequence numbers make duplicate floods, stale
// retractions and stale withdrawals no-ops.
type Broker struct {
	Node topology.NodeID

	// cosmoslint:guards — no Peer send, transport call or Handler
	// callback may run while mu is held (lock-mutate-unlock-send).
	mu        sync.Mutex
	net       Fabric
	neighbors []topology.NodeID
	// adverts[n][stream] holds the advertising origins (and their advert
	// epochs) learned from direction n. The per-origin identity is what
	// makes teardown exact: a stream advertised by two publishers behind
	// the same neighbor stays routable when only one of them withdraws.
	// The stream entry is deleted when its last origin withdraws, so an
	// idle broker's advert tables drain to empty.
	adverts map[topology.NodeID]map[string]map[topology.NodeID]uint64
	// unadvTomb holds tombstones for withdrawals that arrived before the
	// advert they withdraw (per direction, keyed by stream+origin) —
	// control sends happen outside broker locks, so an UnadvertFrom can
	// overtake the AdvertFrom it chases on the same link. The tombstone
	// annihilates the late-arriving advert (neither is forwarded); a
	// genuinely newer advert epoch supersedes it.
	unadvTomb map[topology.NodeID]map[advKey]uint64
	// ownAdverts maps the streams published by this broker's clients to
	// the epoch of their current advertisement. Re-advertising a live
	// stream keeps its epoch (the re-flood is duplicate-suppressed
	// downstream); advertising after an Unadvertise stamps a fresh one.
	ownAdverts map[string]uint64

	// idx is the authoritative routing state: one dirIndex per neighbor
	// direction plus one for local client subscriptions, maintained
	// incrementally under mu (see index.go).
	idx *matchIndex
	// linearMatch routes and suppresses with the retained linear
	// reference matcher instead of the posting-list/compiled-filter
	// index. The two are equivalent bit-for-bit; only the package's
	// equivalence tests set it (reference_test.go).
	linearMatch bool
	// snap is the published matching-state epoch the lock-free route path
	// reads (snapshot.go, CONCURRENCY.md): rebuilt incrementally and
	// swapped by publishLocked at the end of every mutating critical
	// section. Non-nil from NewBroker onward; nil only while the linear
	// reference is selected, which routes under mu instead.
	snap atomic.Pointer[matchSnapshot]
	// snapNeighbors makes the next publish refresh the epoch's frozen
	// neighbor set. The stream table needs nothing: a new neighbor holds no
	// posting list yet, and a detached one's were all marked dirty.
	snapNeighbors bool
	// seq numbers the subscription epochs originated by this broker's
	// clients: each Subscribe stamps the next value, so a re-subscribe
	// of a reused ID supersedes the records (and outruns stale
	// retractions) of the previous incarnation everywhere.
	seq uint64
	// recCount numbers every record (local or remote) this broker
	// installs, giving compiledSub.regSeq its broker-wide registration
	// order.
	recCount uint64
	// coverBufs is coverFor's selection scratch, used under mu.
	coverBufs routeBufs

	// log holds the broker's structured logger as a loggerBox (observe.go);
	// the zero Value means logging.Nop(). Read with one atomic load per
	// logging site and invoked only outside mu.
	log atomic.Value
}

// NewBroker creates a broker wired to a fabric. Neighbors are added with
// AddNeighbor; in-process networks do this during overlay construction.
func NewBroker(net Fabric, node topology.NodeID) *Broker {
	b := &Broker{
		Node:       node,
		net:        net,
		adverts:    make(map[topology.NodeID]map[string]map[topology.NodeID]uint64),
		unadvTomb:  make(map[topology.NodeID]map[advKey]uint64),
		ownAdverts: make(map[string]uint64),
		idx:        newMatchIndex(),
	}
	// The empty epoch: a broker that has not churned yet routes lock-free
	// like any other, to nobody.
	b.snap.Store(&matchSnapshot{})
	return b
}

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
	cAdvertises.Inc()
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
	resend := b.pruneAdvertLocked(streamName, -1, false)
	b.publishLocked()
	b.mu.Unlock()
	cUnadvertises.Inc()
	for _, n := range neighbors {
		b.net.CountControl(b.Node, n, advertSize)
		b.net.Peer(n).UnadvertFrom(b.Node, streamName, b.Node, seq)
	}
	b.sendPends(resend)
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
	var resend []*Subscription
	if newStream {
		resend = b.replayLocked(from, streamName)
	}
	b.mu.Unlock()
	for _, n := range neighbors {
		if n != from {
			b.net.CountControl(b.Node, n, advertSize)
			b.net.Peer(n).AdvertFrom(b.Node, streamName, origin, seq)
		}
	}
	// Re-propagation epoch: replay the recorded subscriptions on the
	// newly learned stream toward the advertiser. Each send was already
	// marked in the record's sentTo under the lock, so a concurrent
	// replay cannot duplicate it. A second origin of an already-known
	// stream changes no propagation decision, so nothing replays.
	for _, sub := range resend {
		b.net.CountControl(b.Node, from, subSize(sub))
		b.net.Peer(from).PropagateFrom(sub, b.Node)
	}
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
	var resend []pendSend
	if lastOrigin {
		resend = b.pruneAdvertLocked(streamName, from, true)
	}
	b.publishLocked()
	b.mu.Unlock()
	for _, n := range neighbors {
		if n != from {
			b.net.CountControl(b.Node, n, advertSize)
			b.net.Peer(n).UnadvertFrom(b.Node, streamName, origin, seq)
		}
	}
	b.sendPends(resend)
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
// unsubscribe retraction re-decides them, and the resulting re-propagations
// are returned for delivery outside the lock. Caller holds b.mu with the
// advert tables already updated.
func (b *Broker) pruneAdvertLocked(streamName string, withdrawnDir topology.NodeID, ruleA bool) []pendSend {
	var edges []covEdge
	var supStreams map[string]bool // linear-reference sweep only
	var targetSet nodeSet          // linear-reference sweep only
	noteSup := func(c *compiledSub) {
		if !b.linearMatch {
			return
		}
		if supStreams == nil {
			supStreams = make(map[string]bool)
		}
		for _, s := range c.sub.Streams {
			supStreams[s] = true
		}
	}
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
				noteSup(c)
			}
		}
		sweep(b.idx.locals)
		for _, d := range b.idx.dirOrder {
			sweep(b.idx.dirs[d])
		}
		if b.linearMatch && len(edges) > 0 {
			targetSet.set(withdrawnDir)
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
			noteSup(c)
			if b.linearMatch {
				for _, n := range c.sentTo {
					targetSet.set(n)
				}
			}
		}
	}
	if len(edges) == 0 {
		return nil
	}
	sortCovEdges(edges)
	var targets []topology.NodeID
	if b.linearMatch {
		// The reference sweep visits every record sharing a stream with
		// an affected suppressor, toward every neighbor a freed decision
		// could concern; decisions not freed are no-ops (sent, still
		// covered, or not advertised), so the outcome matches the
		// edge-driven pass bit for bit.
		for _, e := range edges {
			targetSet.set(e.to)
		}
		targets = targetSet
	}
	return b.unsuppressLocked(supStreams, targets, edges)
}

// sendPends delivers re-propagations decided under the lock.
func (b *Broker) sendPends(pends []pendSend) {
	for _, s := range pends {
		b.net.CountControl(b.Node, s.to, subSize(s.sub))
		b.net.Peer(s.to).PropagateFrom(s.sub, b.Node)
	}
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

// replayLocked collects the subscriptions to re-propagate toward 'from'
// after learning that it advertises streamName: every recorded subscription
// listing the stream (from the per-direction posting lists) that was not
// already sent that way and is not covered by one that was. Locals replay
// first in registration order, then each other direction in ascending
// neighbor order — the same order a from-scratch network would have
// propagated them in. Caller holds b.mu.
func (b *Broker) replayLocked(from topology.NodeID, streamName string) []*Subscription {
	var out []*Subscription
	replay := func(d *dirIndex) {
		it := d.posting(streamName).scan()
		for c := it.next(); c != nil; c = it.next() {
			if c.sentTo.has(from) || c.coveredBy[from] != nil {
				continue
			}
			// coverFor sees the sentTo marks set earlier in this sweep: an
			// EARLIER candidate already marked sent can cover a later one.
			if cov := b.coverFor(from, c.sub, query.SelectionIntervalsByAttr(c.sub.Filters)); cov != nil {
				suppressEdge(cov, c, from)
				continue
			}
			c.sentTo.set(from)
			out = append(out, c.sub)
		}
	}
	replay(b.idx.locals)
	for _, d := range b.idx.dirOrder {
		if d != from {
			replay(b.idx.dirs[d])
		}
	}
	return out
}

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
	var streams map[string]bool // linear-reference sweep only
	var edges []covEdge
	for _, c := range removed {
		for _, n := range c.sentTo {
			targets.set(n)
		}
		if c.seq > seq {
			seq = c.seq
		}
		if b.linearMatch {
			if streams == nil {
				streams = make(map[string]bool)
			}
			for _, s := range c.sub.Streams {
				streams[s] = true
			}
		}
		edges = append(edges, detachCovEdges(c)...)
	}
	if len(removed) > 1 {
		sortCovEdges(edges)
	}
	resend := b.unsuppressLocked(streams, targets, edges)
	b.publishLocked()
	b.mu.Unlock()
	cUnsubscribes.Inc()
	cRetractionsSent.Add(int64(len(targets)))
	for _, n := range targets {
		b.net.CountControl(b.Node, n, retractSize)
		b.net.Peer(n).RetractFrom(b.Node, id, seq)
	}
	b.sendPends(resend)
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
	edges := detachCovEdges(rec)
	targets := rec.sentTo
	var streams map[string]bool // linear-reference sweep only
	if b.linearMatch {
		streams = make(map[string]bool, len(rec.sub.Streams))
		for _, s := range rec.sub.Streams {
			streams[s] = true
		}
	}
	resend := b.unsuppressLocked(streams, targets, edges)
	b.publishLocked()
	b.mu.Unlock()
	for _, n := range targets {
		b.net.CountControl(b.Node, n, retractSize)
		b.net.Peer(n).RetractFrom(b.Node, id, seq)
	}
	b.sendPends(resend)
}

// pendSend is one subscription re-propagation decided under the lock and
// sent after releasing it.
type pendSend struct {
	to  topology.NodeID
	sub *Subscription
}

// unsuppressLocked re-runs the propagation decision for the subscriptions a
// just-removed record may have been covering. On the indexed path that is
// exactly the removed record's suppression edges (already detached and in
// canonical sweep order); on the linear reference path it is the full sweep
// over every record sharing a stream with the removed one, toward the
// neighbors it had been sent to — the pre-index algorithm, kept as the
// contract. Both paths re-decide with the same cover scan in the same
// order, so decisions and re-propagation order are bit-identical; the edge
// set just lets the indexed path skip the records whose suppressor was not
// the removed one (their decision cannot have changed — covering is
// monotone in sentTo, which only grows between removals). Eligible
// subscriptions are marked sent and returned for delivery outside the
// lock. Caller holds b.mu (with the removed record already gone).
func (b *Broker) unsuppressLocked(streams map[string]bool, targets []topology.NodeID, edges []covEdge) []pendSend {
	if !b.linearMatch {
		return b.unsuppressEdges(edges)
	}
	if len(targets) == 0 {
		return nil
	}
	var out []pendSend
	consider := func(c *compiledSub, n topology.NodeID) {
		if c.sentTo.has(n) || !c.listsAny(streams) {
			return
		}
		if !b.advertisesAny(n, c.sub.Streams) {
			return
		}
		if c.coveredBy[n] != nil {
			// Still suppressed by a suppressor that was not removed:
			// its covering (recorded, sent toward n) is intact.
			return
		}
		if cov := b.coverFor(n, c.sub, query.SelectionIntervalsByAttr(c.sub.Filters)); cov != nil {
			suppressEdge(cov, c, n)
			return
		}
		c.sentTo.set(n)
		out = append(out, pendSend{to: n, sub: c.sub})
	}
	for _, n := range targets {
		for _, c := range b.idx.locals.subs {
			consider(c, n)
		}
		for _, d := range b.idx.dirOrder {
			if d == n {
				continue
			}
			for _, c := range b.idx.dirs[d].subs {
				consider(c, n)
			}
		}
	}
	return out
}

// unsuppressEdges is the covered-by-index un-suppression: each detached
// suppression edge is one (record, neighbor) decision to re-run — either a
// surviving cover takes over (a fresh edge is recorded) or the record
// finally propagates. Visiting edges in canonical sweep order makes a
// record sent early in the pass eligible to cover records considered later,
// exactly as the reference sweep's in-pass covering does.
func (b *Broker) unsuppressEdges(edges []covEdge) []pendSend {
	var out []pendSend
	// A record suppressed toward several neighbors appears once per edge;
	// memoize its folded filter intervals so the cover scans compile the
	// conjunction once per record, not once per edge.
	var ivsCache map[*compiledSub]map[string]query.Interval
	ivsFor := func(c *compiledSub) map[string]query.Interval {
		if ivs, ok := ivsCache[c]; ok {
			return ivs
		}
		ivs := query.SelectionIntervalsByAttr(c.sub.Filters)
		if ivsCache == nil {
			ivsCache = make(map[*compiledSub]map[string]query.Interval)
		}
		ivsCache[c] = ivs
		return ivs
	}
	for _, e := range edges {
		c, n := e.rec, e.to
		if c.sentTo.has(n) || c.coveredBy[n] != nil {
			continue
		}
		if !b.advertisesAny(n, c.sub.Streams) {
			continue
		}
		if cov := b.coverFor(n, c.sub, ivsFor(c)); cov != nil {
			suppressEdge(cov, c, n)
			continue
		}
		c.sentTo.set(n)
		out = append(out, pendSend{to: n, sub: c.sub})
	}
	return out
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
	// State released by a superseded older epoch of the same ID, to
	// un-suppress after the fresh record has made its own propagation
	// decisions (so it can take over the covering it still provides).
	var supEdges []covEdge
	var supStreams map[string]bool
	var supTargets []topology.NodeID
	superseded := false
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
			superseded = true
			supTargets = prev.sentTo
			if b.linearMatch {
				supStreams = make(map[string]bool, len(prev.sub.Streams))
				for _, s := range prev.sub.Streams {
					supStreams[s] = true
				}
			}
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
			var resend []pendSend
			if superseded {
				resend = b.unsuppressLocked(supStreams, supTargets, supEdges)
			}
			// The superseded record's removal (if any) must reach the
			// published epoch even though nothing was installed.
			b.publishLocked()
			b.mu.Unlock()
			b.sendPends(resend)
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
	ivs := query.SelectionIntervalsByAttr(sub.Filters)
	targets := make([]topology.NodeID, 0, len(b.neighbors))
	suppressed := 0
	for _, n := range b.neighbors {
		if n == from || rec.sentTo.has(n) || rec.coveredBy[n] != nil {
			continue
		}
		if !b.advertisesAny(n, sub.Streams) {
			continue
		}
		// Covering suppression: a DIFFERENT subscription covering this
		// one that was actually propagated to n already pulls a
		// superset of its traffic toward n, so this one need not be
		// sent there. Suppression is gated on the covering record's
		// own sentTo — a subscription recorded before the relevant
		// adverts arrived was sent nowhere and guarantees nothing.
		if cov := b.coverFor(n, sub, ivs); cov != nil {
			suppressEdge(cov, rec, n)
			suppressed++
			continue
		}
		rec.sentTo.set(n)
		targets = append(targets, n)
	}
	var resend []pendSend
	if superseded {
		resend = b.unsuppressLocked(supStreams, supTargets, supEdges)
	}
	b.publishLocked()
	b.mu.Unlock()
	cSubsSent.Add(int64(len(targets)))
	cSubsSuppressed.Add(int64(suppressed))
	for _, n := range targets {
		b.net.CountControl(b.Node, n, subSize(sub))
		b.net.Peer(n).PropagateFrom(sub, b.Node)
	}
	b.sendPends(resend)
}

// coverFor returns the first recorded subscription — locals in registration
// order, then each direction other than n in ascending order — that was
// actually propagated to n and covers sub, or nil. ivs must be
// query.SelectionIntervalsByAttr(sub.Filters), hoisted by the caller so a
// scan over many candidate covers compiles sub's filter conjunction once.
// The returned record is the suppressor the covered-by index records; the
// scan order is deterministic, so repeated runs pick the same suppressor.
// A cover must list every stream of sub, so only the posting list of sub's
// first stream is examined, and of that only the records whose bounds admit
// a point of sub's own interval (coverIter) — a superset of the covers in
// posting-list order, so the first cover found is the full scan's. The
// linear reference scans every record of each direction, uncompiled.
func (b *Broker) coverFor(n topology.NodeID, sub *Subscription, ivs map[string]query.Interval) *compiledSub {
	first := func(d *dirIndex) *compiledSub {
		if b.linearMatch {
			for _, c := range d.subs {
				if c.sentTo.has(n) && c.sub.ID != sub.ID && c.sub.CoversPrepared(sub, ivs) {
					return c
				}
			}
			return nil
		}
		it := d.posting(sub.Streams[0]).coverIter(ivs, &b.coverBufs)
		for c := it.next(); c != nil; c = it.next() {
			if c.sentTo.has(n) && c.sub.ID != sub.ID && c.covers(sub, ivs) {
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

// Publish injects a tuple produced by this broker's clients and routes it
// through the overlay.
func (b *Broker) Publish(t stream.Tuple) {
	b.route(t, -1)
}

// delivery is one matched local subscription, captured under the lock and
// invoked after releasing it.
type delivery struct {
	h    Handler
	sub  *Subscription
	keep []string // projection list; nil = all attributes
}

// hop is one forwarding decision toward a neighbor.
type hop struct {
	to    topology.NodeID
	attrs []string // sorted; nil = all
}

// routeBufs are the per-route-call matching buffers, pooled so the
// steady-state route path allocates none of them. They cannot live on the
// broker: the snapshot path runs without the broker lock, so concurrent
// routes each need their own scratch (and handlers are free to call back
// into the broker — a nested route pops its own buffers from the pool).
type routeBufs struct {
	locals []delivery
	hops   []hop
	// match collects per-direction matched candidates; stab and sel back
	// the prune index's stab and merged-selection sets (attrindex.go).
	match []*compiledSub
	stab  []int32
	sel   []int32
}

var routeBufPool = sync.Pool{New: func() any { return new(routeBufs) }}

// route delivers the tuple locally and forwards it once per interested
// neighbor, projecting the payload down to the union of downstream
// attribute interests (early projection, §2). Matching runs lock-free
// against the published snapshot epoch (matchSnap, snapshot.go), so
// concurrent routes proceed in parallel and route never takes the broker
// mutex. The one exception is the linear reference the equivalence tests
// select (no epoch published): it serializes under the mutex on the live
// records. Both produce identical decisions.
func (b *Broker) route(t stream.Tuple, from topology.NodeID) {
	bufs := routeBufPool.Get().(*routeBufs)
	locals, hops := bufs.locals[:0], bufs.hops[:0]
	if snap := b.snap.Load(); snap != nil {
		if from >= 0 && !slices.Contains(snap.neighbors, from) {
			// Data from a torn-down link (as of this epoch): no routing
			// state references the direction anymore, so the tuple is
			// dropped (at-most-once data delivery; the repaired overlay
			// routes fresh traffic). A route racing the detach may read the
			// pre-detach epoch and accept — that is the linearization where
			// the route happened first.
			routeBufPool.Put(bufs)
			return
		}
		locals, hops = matchSnap(snap, &t, from, bufs, locals, hops)
	} else {
		b.mu.Lock()
		if from >= 0 && !slices.Contains(b.neighbors, from) {
			b.mu.Unlock()
			routeBufPool.Put(bufs)
			return
		}
		locals, hops = b.matchLinear(t, from, locals, hops)
		b.mu.Unlock()
	}
	cRoutedTuples.Inc()
	if len(locals) > 0 {
		cLocalDeliveries.Add(int64(len(locals)))
	}
	if len(hops) > 0 {
		cForwardedTuples.Add(int64(len(hops)))
	}

	// Local deliveries run first, in subscription-registration order,
	// outside the lock so handlers are free to call back into the broker.
	// Full-tuple (nil-projection) deliveries share ONE attribute map per
	// route call, read-only by contract (see Handler): the tuple's own when
	// no publisher aliases it (Owned: a result, a projection or a decode),
	// else one copy, which decouples retaining subscribers from a publisher
	// reusing its tuple after Publish. Forwards take t as it came.
	full := t
	for _, d := range locals {
		pt := full
		if d.keep != nil {
			pt = projectAttrs(t, d.keep)
		} else if !full.Owned {
			full = t.Clone()
			pt = full
		}
		pt.Relay = nil // transport-internal hint; handlers see a clean tuple
		d.h(d.sub, pt)
	}
	for _, h := range hops {
		fwd := projectAttrs(t, h.attrs)
		b.net.CountData(b.Node, h.to, fwd.Size)
		b.net.Peer(h.to).RouteFrom(fwd, b.Node)
	}
	clear(locals) // drop handler/sub/map references before pooling
	clear(hops)
	clear(bufs.match) // and the candidate records the match scratch held
	bufs.locals, bufs.hops, bufs.match = locals[:0], hops[:0], bufs.match[:0]
	routeBufPool.Put(bufs)
}

// matchLinear is the reference matcher: every local subscription and every
// recorded subscription of each outgoing direction is tested against the
// tuple with the uncompiled Subscription.Matches walk. Retained for the
// equivalence tests.
func (b *Broker) matchLinear(t stream.Tuple, from topology.NodeID, locals []delivery, hops []hop) ([]delivery, []hop) {
	for _, c := range b.idx.locals.subs {
		if c.sub.Matches(t) && c.handler != nil {
			locals = append(locals, delivery{h: c.handler, sub: c.sub, keep: c.sub.Attrs})
		}
	}
	for _, n := range b.neighbors {
		if n == from {
			continue
		}
		d, ok := b.idx.dirs[n]
		if !ok {
			continue
		}
		var wanted map[string]bool
		interested := false
		all := false
		for _, c := range d.subs {
			if !c.sub.Matches(t) {
				continue
			}
			interested = true
			if c.sub.Attrs == nil {
				all = true
				break
			}
			if wanted == nil {
				wanted = make(map[string]bool)
			}
			for _, a := range c.sub.Attrs {
				wanted[a] = true
			}
		}
		if !interested {
			continue
		}
		h := hop{to: n}
		if !all {
			h.attrs = slices.AppendSeq([]string{}, maps.Keys(wanted))
			slices.Sort(h.attrs)
		}
		hops = append(hops, h)
	}
	return locals, hops
}

// projectAttrs returns t cut down to the attributes keep lists (nil keeps t
// whole, map and all; a repeated name counts once). A projection is a fresh
// map nobody else holds, and it carries the routing tag, which is header, not
// payload.
func projectAttrs(t stream.Tuple, keep []string) stream.Tuple {
	if keep == nil {
		return t
	}
	out := stream.Tuple{Stream: t.Stream, Timestamp: t.Timestamp, Tag: t.Tag, Attrs: make(map[string]stream.Value, len(keep)), Owned: true}
	for _, a := range keep {
		if v, ok := t.Attrs[a]; ok {
			out.Attrs[a] = v
		}
	}
	// Size scales with retained attributes (8 bytes per value plus a
	// fixed header), mirroring the early-projection bandwidth savings; the
	// tag is accounted as the one attribute it is on the wire.
	out.Size = tupleSize(len(out.Attrs))
	if t.Tag != "" {
		out.Size += 8
	}
	return out
}

func tupleSize(attrs int) int { return 16 + 8*attrs }

// AddNeighbor registers an overlay neighbor.
func (b *Broker) AddNeighbor(n topology.NodeID) {
	b.mu.Lock()
	if slices.Contains(b.neighbors, n) {
		b.mu.Unlock()
		return
	}
	b.neighbors = append(b.neighbors, n)
	b.snapNeighbors = true
	b.publishLocked()
	b.mu.Unlock()
	b.logger().Info("neighbor attached", "neighbor", n)
}

// DetachNeighbor severs this broker's side of the overlay link to 'gone'
// (broker crash or link failure) and prunes everything learned through it,
// reusing the graceful-teardown machinery so the surviving overlay ends in
// exactly the state a clean withdrawal would have produced:
//
//  1. every advertisement recorded from the link is withdrawn at its
//     recorded epoch, in sorted (stream, origin) order — the withdrawal
//     floods onward through the surviving component and the mirror rules
//     (pruneAdvertLocked) clear the propagation marks toward the dead link
//     and the records it alone justified;
//  2. every subscription recorded from the link is retracted at its
//     recorded epoch, in registration order — retractions follow the
//     records' own sentTo edges, and covered subscriptions un-suppress;
//  3. the neighbor entry, its withdrawal tombstones and its (now empty)
//     direction index are dropped.
//
// Mid-teardown re-propagations toward the dead direction are legal (step 1
// may transiently re-decide toward it while some of its streams are still
// advertised); they land on the removed broker's null peer — or on the live
// far endpoint, which cleans them when its own DetachNeighbor runs — and the
// marks they set are cleared by the time step 1 finishes (each record's last
// withdrawn stream sweeps it). The steps run with 'gone' still a neighbor;
// once it is removed, the non-neighbor guards on the protocol entry points
// drop any straggler the dead link still delivers.
func (b *Broker) DetachNeighbor(gone topology.NodeID) {
	b.mu.Lock()
	if !slices.Contains(b.neighbors, gone) {
		b.mu.Unlock()
		return
	}
	type withdrawal struct {
		key advKey
		seq uint64
	}
	var withdrawals []withdrawal
	for s, origins := range b.adverts[gone] {
		for o, seq := range origins {
			withdrawals = append(withdrawals, withdrawal{advKey{stream: s, origin: o}, seq})
		}
	}
	sort.Slice(withdrawals, func(i, j int) bool {
		if withdrawals[i].key.stream != withdrawals[j].key.stream {
			return withdrawals[i].key.stream < withdrawals[j].key.stream
		}
		return withdrawals[i].key.origin < withdrawals[j].key.origin
	})
	b.mu.Unlock()
	for _, w := range withdrawals {
		b.unadvertFrom(gone, w.key.stream, w.key.origin, w.seq)
	}

	// Retract the direction's records until none remain: processing above
	// can synchronously trigger the live far endpoint into sending fresh
	// propagations over the dying link (its pruning re-decides coverings
	// toward us), so one snapshot is not enough. Arrivals stop once step 1's
	// cascades have returned, so the loop settles in practice on the second
	// pass.
	for {
		type retraction struct {
			id  string
			seq uint64
		}
		var retractions []retraction
		b.mu.Lock()
		if d, ok := b.idx.dirs[gone]; ok {
			for _, c := range d.subs {
				retractions = append(retractions, retraction{c.sub.ID, c.seq})
			}
		}
		b.mu.Unlock()
		if len(retractions) == 0 {
			break
		}
		for _, r := range retractions {
			b.retractFrom(gone, r.id, r.seq)
		}
	}

	b.mu.Lock()
	b.neighbors = slices.DeleteFunc(b.neighbors, func(x topology.NodeID) bool { return x == gone })
	delete(b.unadvTomb, gone)
	b.idx.dropDir(gone)
	b.snapNeighbors = true
	b.publishLocked()
	b.mu.Unlock()
	b.logger().Info("neighbor detached", "neighbor", gone)
}

// clearTombstones drops every reorder tombstone (unadvert and retraction)
// this broker holds. Only sound when no protocol message is in flight — see
// Network.Quiesce.
func (b *Broker) clearTombstones() {
	b.mu.Lock()
	defer b.mu.Unlock()
	clear(b.unadvTomb)
	clear(b.idx.locals.retracted)
	for _, d := range b.idx.dirs {
		clear(d.retracted)
	}
}

// Neighbors returns the broker's overlay neighbors sorted by node ID.
func (b *Broker) Neighbors() []topology.NodeID {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]topology.NodeID(nil), b.neighbors...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RoutingStateSize reports the broker's current routing-table population:
// remote counts the subscriptions recorded per neighbor direction, local
// the client subscriptions. Both drop to zero when every subscription in
// the overlay has been withdrawn — the retraction-completeness invariant
// tests assert.
func (b *Broker) RoutingStateSize() (remote, local int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, d := range b.idx.dirs {
		remote += len(d.subs)
	}
	return remote, len(b.idx.locals.subs)
}

// AdvertStateSize reports the broker's advert-table population: own counts
// the streams advertised by this broker's clients, learned the (direction,
// stream, origin) entries recorded from neighbors. Both drop to zero when
// every advertisement in the overlay has been withdrawn — the teardown
// half of the drain-to-empty invariant.
func (b *Broker) AdvertStateSize() (own, learned int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, set := range b.adverts {
		for _, origins := range set {
			learned += len(origins)
		}
	}
	return len(b.ownAdverts), learned
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

const (
	advertSize  = 32
	retractSize = 40 // ID + epoch, no filter payload
)

func subSize(s *Subscription) int {
	return 32 + 16*len(s.Streams) + 8*len(s.Attrs) + 24*len(s.Filters)
}

package pubsub

import (
	"log/slog"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
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
	// snap is the published matching-state epoch the lock-free route path
	// reads (snapshot.go, CONCURRENCY.md): rebuilt incrementally and
	// swapped by publishLocked at the end of every mutating critical
	// section. Non-nil from NewBroker onward.
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
	// coverBufs is coverFor's selection scratch and coverFold the folded
	// filters of the record a decision is made for (decideLocked), both used
	// under mu.
	coverBufs routeBufs
	coverFold []attrGroup

	// log holds the broker's structured logger (observe.go); nil means
	// discard. Read with one atomic load per logging site and invoked only
	// outside mu.
	log atomic.Pointer[slog.Logger]

	// metrics holds the c* counters below (Metrics, observe.go).
	metrics                                           metrics.Registry
	cRoutedTuples, cLocalDeliveries, cForwardedTuples *metrics.Counter
	cSubscribes, cUnsubscribes                        *metrics.Counter
	cAdvertises, cUnadvertises                        *metrics.Counter
	cSubsSent, cSubsSuppressed, cRetractionsSent      *metrics.Counter
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
	b.cRoutedTuples = b.metrics.Counter("pubsub.routed_tuples")
	b.cLocalDeliveries = b.metrics.Counter("pubsub.local_deliveries")
	b.cForwardedTuples = b.metrics.Counter("pubsub.forwarded_tuples")
	b.cSubscribes = b.metrics.Counter("pubsub.subscribes")
	b.cUnsubscribes = b.metrics.Counter("pubsub.unsubscribes")
	b.cAdvertises = b.metrics.Counter("pubsub.advertises")
	b.cUnadvertises = b.metrics.Counter("pubsub.unadvertises")
	b.cSubsSent = b.metrics.Counter("pubsub.subscriptions_sent")
	b.cSubsSuppressed = b.metrics.Counter("pubsub.subscriptions_suppressed")
	b.cRetractionsSent = b.metrics.Counter("pubsub.retractions_sent")
	// The empty epoch: a broker that has not churned yet routes lock-free
	// like any other, to nobody.
	b.snap.Store(&matchSnapshot{})
	return b
}

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

const (
	advertSize  = 32
	retractSize = 40 // ID + epoch, no filter payload
)

func subSize(s *Subscription) int {
	return 32 + 16*len(s.Streams) + 8*len(s.Attrs) + 24*len(s.Filters)
}

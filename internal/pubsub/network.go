package pubsub

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stream"
	"repro/internal/topology"
)

// Network is an acyclic broker overlay over a set of topology nodes, with
// per-link traffic accounting. The overlay is a minimum-spanning tree of the
// pairwise latencies, the standard dissemination overlay for Siena-style
// acyclic routing.
type Network struct {
	oracle *topology.Oracle

	mu      sync.Mutex
	brokers map[topology.NodeID]*Broker
	// latency of each overlay link, keyed by ordered pair.
	links map[[2]topology.NodeID]float64
	// bytes holds the traffic counters of every pair that ever was a link
	// (never deleted): a broker sends only to
	// neighbors, which addLink makes, so every pair counted on is in here.
	bytes map[[2]topology.NodeID]*linkBytes
	// wrap, when set, intercepts every Peer endpoint handed to brokers —
	// the fault-injection seam (see SetPeerWrapper).
	wrap PeerWrapper

	// view is what the data path reads of the above without the lock: a
	// forwarded tuple resolves its peer and finds its link's counters
	// through it. Whoever changes brokers, bytes or wrap stores nil
	// (invalidate); the next reader rebuilds it under mu (fabric).
	view atomic.Pointer[fabricView]
}

// linkBytes counts one link's traffic: whole bytes, so exact in any order.
type linkBytes struct{ data, control atomic.Int64 }

// fabricView is one published copy of the network's broker map, traffic
// counters and peer wrapper.
//
// cosmoslint:snapshot
type fabricView struct {
	brokers map[topology.NodeID]*Broker
	bytes   map[[2]topology.NodeID]*linkBytes
	wrap    PeerWrapper
}

// fabric returns the current view, rebuilding it after an invalidation. A
// reader still using an older view is one that locked just before the writer.
func (net *Network) fabric() *fabricView {
	if v := net.view.Load(); v != nil {
		return v
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	v := &fabricView{brokers: maps.Clone(net.brokers), bytes: maps.Clone(net.bytes), wrap: net.wrap}
	net.view.Store(v)
	return v
}

// PeerWrapper intercepts the Peer endpoints the network hands to its
// brokers, one wrapped Peer per destination. The chaos fabric implements it
// to inject per-link faults without the routing logic knowing; the identity
// wrapper (or none) leaves the overlay loss-free.
type PeerWrapper interface {
	WrapPeer(to topology.NodeID, p Peer) Peer
}

// NewNetwork builds the broker overlay over the given nodes.
func NewNetwork(oracle *topology.Oracle, nodes []topology.NodeID) (*Network, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("pubsub: no broker nodes")
	}
	net := &Network{
		oracle:  oracle,
		brokers: make(map[topology.NodeID]*Broker, len(nodes)),
		links:   make(map[[2]topology.NodeID]float64),
		bytes:   make(map[[2]topology.NodeID]*linkBytes),
	}
	for _, n := range nodes {
		if _, dup := net.brokers[n]; dup {
			return nil, fmt.Errorf("pubsub: duplicate broker node %d", n)
		}
		net.brokers[n] = NewBroker(net, n)
	}
	net.buildMST(nodes)
	return net, nil
}

// buildMST wires the brokers with Prim's algorithm over oracle latencies.
func (net *Network) buildMST(nodes []topology.NodeID) {
	if len(nodes) == 1 {
		return
	}
	inTree := map[topology.NodeID]bool{nodes[0]: true}
	best := make(map[topology.NodeID]topology.NodeID, len(nodes))
	bestD := make(map[topology.NodeID]float64, len(nodes))
	for _, n := range nodes[1:] {
		best[n] = nodes[0]
		bestD[n] = net.oracle.Latency(nodes[0], n)
	}
	for len(inTree) < len(nodes) {
		// Pick the cheapest frontier node (deterministic tie-break).
		var pick topology.NodeID = -1
		min := math.Inf(1)
		for _, n := range nodes {
			if inTree[n] {
				continue
			}
			if d := bestD[n]; d < min || (d == min && (pick < 0 || n < pick)) {
				min, pick = d, n
			}
		}
		parent := best[pick]
		net.addLink(parent, pick, min)
		inTree[pick] = true
		for _, n := range nodes {
			if inTree[n] {
				continue
			}
			if d := net.oracle.Latency(pick, n); d < bestD[n] {
				bestD[n] = d
				best[n] = pick
			}
		}
	}
}

// addLink records an overlay link and its traffic counters and makes the two
// brokers neighbors. Caller holds net.mu (or is still constructing net).
func (net *Network) addLink(a, b topology.NodeID, latency float64) {
	link := orderPair(a, b)
	net.links[link] = latency
	if net.bytes[link] == nil {
		net.bytes[link] = new(linkBytes)
	}
	net.view.Store(nil)
	net.brokers[a].AddNeighbor(b)
	net.brokers[b].AddNeighbor(a)
}

// Broker returns the broker at a node (AddBroker can add one on a live overlay).
func (net *Network) Broker(n topology.NodeID) (*Broker, bool) {
	b, ok := net.fabric().brokers[n]
	return b, ok
}

// AddBroker dynamically joins a broker for node n to a running overlay,
// attaching it by a new link to the nearest existing broker (greedy MST
// extension — the overlay stays an acyclic tree). The attach point replays
// its known advertisements over the new link so the newcomer immediately
// learns the direction of every advertised stream; the newcomer's own
// advertisements then flood normally and trigger subscription
// re-propagation toward it. Returns the existing broker unchanged when n
// is already part of the overlay.
func (net *Network) AddBroker(n topology.NodeID) *Broker {
	net.mu.Lock()
	if b, ok := net.brokers[n]; ok {
		net.mu.Unlock()
		return b
	}
	var attach topology.NodeID = -1
	best := math.Inf(1)
	for id := range net.brokers {
		d := net.oracle.Latency(id, n)
		if d < best || (d == best && (attach < 0 || id < attach)) {
			best, attach = d, id
		}
	}
	b := NewBroker(net, n)
	net.brokers[n] = b
	net.addLink(attach, n, best)
	attachBroker := net.brokers[attach]
	net.mu.Unlock()
	attachBroker.syncAdvertsTo(n)
	return b
}

// RemoveBroker removes a broker from a running overlay ungracefully — the
// crash-failure symmetric of AddBroker. The dead broker gets no goodbye
// protocol: it is deleted from the overlay first (its Peer becomes a null
// endpoint), then every former neighbor detaches its side of the dead link
// (DetachNeighbor — withdrawing the adverts and retracting the subscriptions
// learned through it, with the withdrawal and retraction floods repairing
// the survivors' state around the gap), and finally the orphaned components
// the removal split the tree into are re-attached deterministically
// (reattachComponents), each new link resyncing advert state in both
// directions so subscribe-before-advertise replay rebuilds the routing
// paths. Returns false when no broker lives at n.
func (net *Network) RemoveBroker(n topology.NodeID) bool {
	net.mu.Lock()
	if _, ok := net.brokers[n]; !ok {
		net.mu.Unlock()
		return false
	}
	delete(net.brokers, n)
	net.view.Store(nil)
	var former []*Broker
	for link := range net.links {
		var other topology.NodeID = -1
		if link[0] == n {
			other = link[1]
		} else if link[1] == n {
			other = link[0]
		}
		if other < 0 {
			continue
		}
		delete(net.links, link)
		if m, ok := net.brokers[other]; ok {
			former = append(former, m)
		}
	}
	sort.Slice(former, func(i, j int) bool { return former[i].Node < former[j].Node })
	net.mu.Unlock()
	for _, m := range former {
		m.DetachNeighbor(n)
	}
	net.reattachComponents()
	return true
}

// FailLink tears one overlay link down ungracefully: both endpoints detach
// their side (withdrawing and retracting what they learned through it), then
// the two components are re-attached by the cheapest surviving latency —
// possibly the very same link, which makes FailLink(a,b) a full link flap
// with teardown and resync. Returns false when a-b is not an overlay link.
//
//lint:deadcode link-fault harness of TestFailLinkFlap, chaos's TestChaosPartitionThenRepair and the churn soaks (runSoak)
func (net *Network) FailLink(a, b topology.NodeID) bool {
	net.mu.Lock()
	if _, ok := net.links[orderPair(a, b)]; !ok {
		net.mu.Unlock()
		return false
	}
	delete(net.links, orderPair(a, b))
	if a > b {
		a, b = b, a
	}
	ba, bb := net.brokers[a], net.brokers[b]
	net.mu.Unlock()
	// Detach in ascending endpoint order. The first detach may synchronously
	// push strays over the dying link into the second endpoint; the second
	// detach cleans them, and its own strays are dropped by the first
	// endpoint's non-neighbor guards.
	ba.DetachNeighbor(b)
	bb.DetachNeighbor(a)
	net.reattachComponents()
	return true
}

// reattachComponents restores overlay connectivity after a removal split the
// tree: while more than one connected component remains, the cheapest
// cross-component link (by oracle latency, ties broken on ascending endpoint
// IDs) between the component holding the smallest node and the rest is
// added, and the new link's endpoints resync advert state in both directions
// — the same join protocol AddBroker uses, so subscriptions re-propagate
// into the re-attached subtree exactly as they would toward a fresh advert.
func (net *Network) reattachComponents() {
	for {
		net.mu.Lock()
		nodes := make([]topology.NodeID, 0, len(net.brokers))
		for id := range net.brokers {
			nodes = append(nodes, id)
		}
		if len(nodes) < 2 {
			net.mu.Unlock()
			return
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		adj := make(map[topology.NodeID][]topology.NodeID, len(nodes))
		for link := range net.links {
			// Adjacency only feeds the reachability flood below; the
			// connected SET and the sorted best-edge scan that consume it
			// are order-independent.
			adj[link[0]] = append(adj[link[0]], link[1]) //lint:maporder consumed as a set; see above
			adj[link[1]] = append(adj[link[1]], link[0])
		}
		connected := map[topology.NodeID]bool{nodes[0]: true}
		frontier := []topology.NodeID{nodes[0]}
		for len(frontier) > 0 {
			x := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, y := range adj[x] {
				if !connected[y] {
					connected[y] = true
					frontier = append(frontier, y)
				}
			}
		}
		if len(connected) == len(nodes) {
			net.mu.Unlock()
			return
		}
		var bestX, bestY topology.NodeID = -1, -1
		best := math.Inf(1)
		for _, x := range nodes {
			if !connected[x] {
				continue
			}
			for _, y := range nodes {
				if connected[y] {
					continue
				}
				d := net.oracle.Latency(x, y)
				if d < best || (d == best && (x < bestX || (x == bestX && y < bestY))) {
					best, bestX, bestY = d, x, y
				}
			}
		}
		net.addLink(bestX, bestY, best)
		bx, by := net.brokers[bestX], net.brokers[bestY]
		net.mu.Unlock()
		// Both directions resync: each side announces the adverts of its own
		// component over the new link (syncAdvertsTo skips what it learned
		// FROM the link), and the arriving floods trigger posting-list
		// replay at every broker that holds matching subscriptions.
		bx.syncAdvertsTo(bestY)
		by.syncAdvertsTo(bestX)
	}
}

// Links returns the current overlay links in sorted order.
//
//lint:deadcode overlay-shape oracle of TestFailLinkFlap, TestRemoveBrokerRepairsAroundGap, TestRemoveBrokerStarTopology and runSoak
func (net *Network) Links() [][2]topology.NodeID {
	net.mu.Lock()
	defer net.mu.Unlock()
	return sortedLinks(net.links)
}

// Quiesce drops every reorder tombstone (unadvert and retraction) in the
// overlay. Tombstones exist to absorb duplicated or reordered stragglers on
// a link; on a link that can duplicate they cannot be consumed by the
// messages they suppress (another stale copy may follow), so they drain only
// here. Calling Quiesce is sound exactly when no protocol message is in
// flight — after the fault fabric has flushed and paused — which is the
// failure-detector/GC epoch boundary a production deployment would provide.
//
//lint:deadcode epoch boundary of the chaos tests, TestSubscribeBeforeAdvertiseDelivers, TestTombstonesSurviveDuplicatedStragglers and runSoak
func (net *Network) Quiesce() {
	for _, n := range net.Nodes() {
		b, _ := net.Broker(n)
		b.clearTombstones()
	}
}

// RemoveStream withdraws a stream advertised at the given source broker:
// the advert withdrawal floods along the advert paths and every broker
// prunes the advert entry plus the routing state it justified (see
// Broker.Unadvertise). Removing a stream the broker never advertised — or
// naming a node with no broker — is a no-op; the return value reports
// whether a broker was found.
func (net *Network) RemoveStream(source topology.NodeID, streamName string) bool {
	b, ok := net.Broker(source)
	if !ok {
		return false
	}
	b.Unadvertise(streamName)
	return true
}

// ResidualState describes every piece of routing or advert state any broker
// still holds — empty exactly when the overlay has drained to nothing
// (every subscription withdrawn, every advertisement withdrawn, no pending
// tombstones). The churn-soak tests assert on it.
//
//lint:deadcode drain-to-empty oracle of runSoak, the chaos tests, TestChurnCyclesDrain, the remove/rejoin tests and FuzzWireSubscription
func (net *Network) ResidualState() []string {
	var out []string
	for _, n := range net.Nodes() {
		b, _ := net.Broker(n)
		b.mu.Lock()
		report := func(d *dirIndex, what string) {
			if len(d.subs) > 0 {
				out = append(out, fmt.Sprintf("broker %d: %d %s records", n, len(d.subs), what))
			}
			if len(d.byStream) > 0 {
				// A posting list carries its tombstones, interval index and
				// projection union, all deleted with it: a drained
				// direction holds none of them.
				recs, tombs := 0, 0
				for _, pl := range d.byStream {
					recs += pl.live()
					tombs += len(pl.dead)
				}
				out = append(out, fmt.Sprintf("broker %d: %d %s posting lists (%d records, %d tombstones)", n, len(d.byStream), what, recs, tombs))
			}
			if len(d.byID) > 0 {
				out = append(out, fmt.Sprintf("broker %d: %d %s ID entries", n, len(d.byID), what))
			}
			if len(d.retracted) > 0 {
				out = append(out, fmt.Sprintf("broker %d: %d %s retraction tombstones", n, len(d.retracted), what))
			}
		}
		report(b.idx.locals, "local")
		for _, d := range b.idx.dirOrder {
			report(b.idx.dirs[d], fmt.Sprintf("dir-%d", d))
		}
		if len(b.ownAdverts) > 0 {
			out = append(out, fmt.Sprintf("broker %d: %d own adverts", n, len(b.ownAdverts)))
		}
		for d, set := range b.adverts {
			if len(set) > 0 {
				out = append(out, fmt.Sprintf("broker %d: %d advert streams from %d", n, len(set), d))
			}
		}
		for d, tombs := range b.unadvTomb {
			if len(tombs) > 0 {
				out = append(out, fmt.Sprintf("broker %d: %d unadvert tombstones from %d", n, len(tombs), d))
			}
		}
		b.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// nullPeer is the Peer of a node with no broker: every message into it is
// dropped. RemoveBroker deletes the broker from the overlay before its
// neighbors detach, so transient re-propagations decided mid-teardown land
// here instead of dereferencing a nil broker.
type nullPeer struct{}

func (nullPeer) AdvertFrom(topology.NodeID, string, topology.NodeID, uint64)   {}
func (nullPeer) UnadvertFrom(topology.NodeID, string, topology.NodeID, uint64) {}
func (nullPeer) PropagateFrom(*Subscription, topology.NodeID)                  {}
func (nullPeer) RetractFrom(topology.NodeID, string, uint64)                   {}
func (nullPeer) RouteFrom(stream.Tuple, topology.NodeID)                       {}

// Peer implements Fabric with direct in-process calls, resolved through the
// published view: no lock on the data path. Unknown or removed nodes resolve
// to a message-dropping null peer, and an installed PeerWrapper (chaos)
// intercepts every endpoint, including null ones.
func (net *Network) Peer(n topology.NodeID) Peer {
	v := net.fabric()
	var p Peer = nullPeer{}
	if b, ok := v.brokers[n]; ok {
		p = b
	}
	if v.wrap != nil {
		p = v.wrap.WrapPeer(n, p)
	}
	return p
}

// SetPeerWrapper installs (or, with nil, removes) the Peer interception
// layer. Meant to be set before fault injection starts; the soak harnesses
// install the chaos fabric right after the overlay is built.
//
//lint:deadcode fault-injection seam the chaos tests, runSoak, TestFabricViewBesideMembershipChurn and controlDeltas install their wrappers through
func (net *Network) SetPeerWrapper(w PeerWrapper) {
	net.mu.Lock()
	net.wrap = w
	net.view.Store(nil)
	net.mu.Unlock()
}

func orderPair(a, b topology.NodeID) [2]topology.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

// CountData implements Fabric.
func (net *Network) CountData(a, b topology.NodeID, size int) {
	net.fabric().bytes[orderPair(a, b)].data.Add(int64(size))
}

// CountControl implements Fabric.
func (net *Network) CountControl(a, b topology.NodeID, size int) {
	net.fabric().bytes[orderPair(a, b)].control.Add(int64(size))
}

// TrafficReport summarizes overlay traffic.
type TrafficReport struct {
	// DataBytes and ControlBytes total the per-link volumes.
	DataBytes    float64
	ControlBytes float64 //lint:deadcode control-traffic oracle of the pubsub lifecycle tests (TestAdvertSendSideAccounting, TestLocalCoverSuppressesPropagation, TestDuplicatePropagationSuppressed, TestUnadvertiseTombstoneBeatsLateAdvert and six more)
	// WeightedCost is Σ bytes·latency over overlay links — the paper's
	// communication-cost metric measured on the substrate itself.
	WeightedCost float64
}

// Traffic returns the current report. Per-link volumes are summed in sorted
// link order: float addition is not associative, so summing in Go's random
// map-iteration order would make the report differ across identical runs.
func (net *Network) Traffic() TrafficReport {
	net.mu.Lock()
	defer net.mu.Unlock()
	var rep TrafficReport
	for _, link := range sortedLinks(net.bytes) {
		data := float64(net.bytes[link].data.Load())
		rep.DataBytes += data
		rep.WeightedCost += data * net.links[link]
		rep.ControlBytes += float64(net.bytes[link].control.Load())
	}
	return rep
}

func sortedLinks[V any](m map[[2]topology.NodeID]V) [][2]topology.NodeID {
	return slices.SortedFunc(maps.Keys(m), func(a, b [2]topology.NodeID) int { return slices.Compare(a[:], b[:]) })
}

// Nodes returns the broker nodes sorted by ID.
func (net *Network) Nodes() []topology.NodeID {
	return slices.Sorted(maps.Keys(net.fabric().brokers))
}

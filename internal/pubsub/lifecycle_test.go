package pubsub

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// This file tests the routing-state lifecycle subsystem: advert-triggered
// re-propagation epochs (subscribe-before-advertise orderings), unsubscribe
// retraction along the propagation path, covering un-suppression, and the
// sequence-number suppression of duplicate floods and stale retractions.

// assertDrained fails unless every broker's routing state — recorded
// subscriptions and posting lists (each carrying its tombstones, interval
// index and projection union), in every direction — is empty: the
// retraction-completeness invariant after the last unsubscribe.
func assertDrained(t *testing.T, net *Network) {
	t.Helper()
	for _, n := range net.Nodes() {
		br, _ := net.Broker(n)
		br.mu.Lock()
		for d, idx := range br.idx.dirs {
			if len(idx.subs) != 0 {
				t.Errorf("broker %d still records %d subscriptions from %d", n, len(idx.subs), d)
			}
			if len(idx.byStream) != 0 {
				t.Errorf("broker %d direction %d has %d stale posting lists", n, d, len(idx.byStream))
			}
		}
		if len(br.idx.locals.subs) != 0 {
			t.Errorf("broker %d still holds %d local subscriptions", n, len(br.idx.locals.subs))
		}
		br.mu.Unlock()
	}
}

// TestSubscribeBeforeAdvertiseDelivers: a subscription registered before
// the publisher advertises must still pull matching tuples once the advert
// arrives. This is the ordering the pre-lifecycle code silently dropped —
// the subscription was never propagated and publishes never left the
// source.
func TestSubscribeBeforeAdvertiseDelivers(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(3)

	hits := 0
	sub := &Subscription{ID: "early", Streams: []string{"R"},
		Filters: []query.Predicate{filter("a", query.Gt, 10)}}
	if err := dst.Subscribe(sub, func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}
	src.Advertise("R")
	src.Publish(tuple("R", map[string]float64{"a": 15}))
	src.Publish(tuple("R", map[string]float64{"a": 5})) // filtered at source
	if hits != 1 {
		t.Fatalf("deliveries = %d, want 1 (subscription must be re-propagated on advert)", hits)
	}
	// Early filtering must hold too: only the matching tuple crossed the
	// three links.
	if rep := net.Traffic(); rep.DataBytes != 24*3 {
		t.Errorf("data bytes = %v, want 72 (early filtering after re-propagation)", rep.DataBytes)
	}

	// A cover chain a>=40 ⊃ a>=30 ⊃ a>=20 ⊃ a>=10 plus a twin of the widest,
	// registered narrow to wide before the advert: the replay suppresses a
	// candidate only under an EARLIER-sent cover, so every link of the chain
	// travels and only the twin is suppressed in-burst. The cover is then
	// churned away and everything drained.
	t.Run("cover chain, narrow to wide", func(t *testing.T) {
		net := lineNet(t)
		src, _ := net.Broker(0)
		dst, _ := net.Broker(3)
		var hits [5]int
		for i, th := range []float64{40, 30, 20, 10, 10} {
			sub := &Subscription{ID: fmt.Sprintf("s%d", i), Streams: []string{"R"},
				Filters: []query.Predicate{filter("a", query.Ge, th)}}
			if err := dst.Subscribe(sub, func(*Subscription, stream.Tuple) { hits[i]++ }); err != nil {
				t.Fatal(err)
			}
		}
		src.Advertise("R")
		if remote, _ := src.RoutingStateSize(); remote != 4 {
			t.Fatalf("publisher records %d subscriptions after the replay, want 4 (the twin covered)", remote)
		}
		checkLifecycleInvariant(t, net, 0)
		sweep := func() {
			for _, v := range []float64{5, 15, 25, 35, 45} {
				src.Publish(tuple("R", map[string]float64{"a": v}))
			}
		}
		sweep()
		// Retracting the widest pair leaves the narrower three routed on
		// their own records.
		dst.Unsubscribe("s3")
		dst.Unsubscribe("s4")
		if remote, _ := src.RoutingStateSize(); remote != 3 {
			t.Fatalf("publisher records %d subscriptions after the cover left, want 3", remote)
		}
		checkLifecycleInvariant(t, net, 0)
		sweep()
		if want := [5]int{2, 4, 6, 4, 4}; hits != want {
			t.Errorf("deliveries per subscription = %v, want %v", hits, want)
		}
		for _, id := range []string{"s0", "s1", "s2"} {
			dst.Unsubscribe(id)
		}
		src.Unadvertise("R")
		net.Quiesce()
		assertDrained(t, net)
		if rep := net.ResidualState(); len(rep) != 0 {
			t.Fatalf("residual state after teardown: %v", rep)
		}
	})
}

// TestUnsubscribeRetractsRemoteState: withdrawing the last subscription on
// a stream removes the routing state it installed at EVERY broker along the
// propagation path — no stale forwarding remains anywhere.
func TestUnsubscribeRetractsRemoteState(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(3)
	src.Advertise("R")

	hits := 0
	if err := dst.Subscribe(&Subscription{ID: "u", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}
	// The subscription is recorded at brokers 0, 1 and 2 (one hop each).
	for _, n := range []topology.NodeID{0, 1, 2} {
		b, _ := net.Broker(n)
		if remote, _ := b.RoutingStateSize(); remote != 1 {
			t.Fatalf("broker %d records %d subscriptions before unsubscribe, want 1", n, remote)
		}
	}

	dst.Unsubscribe("u")
	assertDrained(t, net)

	// Publishing now must not cross a single link.
	net.ResetTraffic()
	src.Publish(tuple("R", map[string]float64{"a": 1}))
	if rep := net.Traffic(); rep.DataBytes != 0 {
		t.Errorf("stale forwarding after retraction: %v data bytes", rep.DataBytes)
	}
	if hits != 0 {
		t.Errorf("delivered %d tuples after unsubscribe", hits)
	}
}

// TestUnsubscribeUnsuppressesCovered: withdrawing a covering subscription
// re-propagates the subscription it had suppressed, so the survivor's
// narrower filter takes over at the source (resumed flooding with early
// filtering) instead of starving.
func TestUnsubscribeUnsuppressesCovered(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b3, _ := net.Broker(3)
	src.Advertise("R")

	wideHits, narrowHits := 0, 0
	wide := &Subscription{ID: "wide", Streams: []string{"R"}}
	if err := b3.Subscribe(wide, func(*Subscription, stream.Tuple) { wideHits++ }); err != nil {
		t.Fatal(err)
	}
	narrow := &Subscription{ID: "narrow", Streams: []string{"R"},
		Filters: []query.Predicate{filter("a", query.Gt, 10)}}
	if err := b3.Subscribe(narrow, func(*Subscription, stream.Tuple) { narrowHits++ }); err != nil {
		t.Fatal(err)
	}
	// narrow was suppressed by wide: the publisher knows only wide.
	if remote, _ := src.RoutingStateSize(); remote != 1 {
		t.Fatalf("publisher records %d subscriptions, want 1 (narrow covered)", remote)
	}

	b3.Unsubscribe("wide")
	// narrow must have been re-propagated (un-suppressed): the publisher
	// now records it, and nothing else.
	srcB := src
	srcB.mu.Lock()
	var ids []string
	for _, d := range srcB.idx.dirOrder {
		for _, c := range srcB.idx.dirs[d].subs {
			ids = append(ids, c.sub.ID)
		}
	}
	srcB.mu.Unlock()
	if len(ids) != 1 || ids[0] != "narrow" {
		t.Fatalf("publisher records %v after unsubscribing the cover, want [narrow]", ids)
	}

	net.ResetTraffic()
	src.Publish(tuple("R", map[string]float64{"a": 15})) // matches narrow
	src.Publish(tuple("R", map[string]float64{"a": 5}))  // must be filtered at source now
	if narrowHits != 1 || wideHits != 0 {
		t.Fatalf("deliveries narrow=%d wide=%d, want 1/0", narrowHits, wideHits)
	}
	if rep := net.Traffic(); rep.DataBytes != 24*3 {
		t.Errorf("data bytes = %v, want 72 (one matching tuple, early-filtered)", rep.DataBytes)
	}

	b3.Unsubscribe("narrow")
	assertDrained(t, net)
}

// TestUnsubscribeUnknownAndDoubleNoOp: unsubscribing an ID that was never
// subscribed, and unsubscribing the same ID twice, are explicit no-ops —
// no messages, no panics, and unrelated state is untouched.
func TestUnsubscribeUnknownAndDoubleNoOp(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b3, _ := net.Broker(3)
	src.Advertise("R")

	hits := 0
	if err := b3.Subscribe(&Subscription{ID: "keep", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}
	before := net.Traffic().ControlBytes

	b3.Unsubscribe("never-existed")
	src.Unsubscribe("keep") // wrong broker: keep is b3's local, not src's
	if after := net.Traffic().ControlBytes; after != before {
		t.Fatalf("no-op unsubscribes generated traffic: %v -> %v", before, after)
	}

	b3.Unsubscribe("keep")
	b3.Unsubscribe("keep") // second withdrawal of the same ID
	mid := net.Traffic().ControlBytes
	b3.Unsubscribe("keep")
	if after := net.Traffic().ControlBytes; after != mid {
		t.Fatalf("double unsubscribe generated traffic: %v -> %v", mid, after)
	}
	assertDrained(t, net)

	src.Publish(tuple("R", map[string]float64{"a": 1}))
	if hits != 0 {
		t.Errorf("delivered %d tuples after unsubscribe", hits)
	}
}

// TestDuplicatePropagationSuppressed: re-delivery of an already recorded
// subscription epoch (same ID, direction and seq — e.g. a wire-level
// duplicate) is dropped without re-recording or re-flooding.
func TestDuplicatePropagationSuppressed(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b1, _ := net.Broker(1)
	b3, _ := net.Broker(3)
	src.Advertise("R")

	sub := &Subscription{ID: "dup", Streams: []string{"R"}}
	if err := b3.Subscribe(sub, nil); err != nil {
		t.Fatal(err)
	}
	before := net.Traffic().ControlBytes
	remoteBefore, _ := b1.RoutingStateSize()

	// Replay the exact epoch b1 already recorded from direction 2.
	b1.PropagateFrom(sub.Clone(), 2)

	if after := net.Traffic().ControlBytes; after != before {
		t.Fatalf("duplicate propagation re-flooded: control %v -> %v", before, after)
	}
	if remote, _ := b1.RoutingStateSize(); remote != remoteBefore {
		t.Fatalf("duplicate propagation re-recorded: %d -> %d", remoteBefore, remote)
	}
}

// TestStaleRetractionIgnored: a retraction carrying an older epoch than the
// recorded subscription (a message from a previous incarnation of a reused
// ID) must not remove the newer record; a retraction for an unknown ID is a
// no-op.
func TestStaleRetractionIgnored(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b1, _ := net.Broker(1)
	b3, _ := net.Broker(3)
	src.Advertise("R")

	hits := 0
	sub := &Subscription{ID: "x", Streams: []string{"R"}}
	if err := b3.Subscribe(sub, func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}

	b1.RetractFrom(2, "x", sub.Seq-1)   // stale epoch
	b1.RetractFrom(2, "unknown-id", 99) // unknown ID
	b1.RetractFrom(0, "x", sub.Seq)     // wrong direction (recorded from 2)
	if remote, _ := b1.RoutingStateSize(); remote != 1 {
		t.Fatalf("stale/unknown retraction removed the record: %d remote records", remote)
	}
	src.Publish(tuple("R", map[string]float64{"a": 1}))
	if hits != 1 {
		t.Fatalf("deliveries = %d, want 1 (routing state must survive stale retractions)", hits)
	}
}

// TestRetractionTombstoneBeatsLatePropagation: control sends happen outside
// broker locks, so a retraction can overtake the propagation it withdraws
// (concurrent brokers, asynchronous transports). The early retraction must
// leave a tombstone that drops the late-arriving record — otherwise it
// would be installed with no retraction ever coming — while a genuinely
// newer epoch of the same ID supersedes the tombstone.
func TestRetractionTombstoneBeatsLatePropagation(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b1, _ := net.Broker(1)
	src.Advertise("R")

	sub := &Subscription{ID: "late", Seq: 5, Streams: []string{"R"}}
	// The retraction wins the race to broker 1...
	b1.RetractFrom(2, "late", 5)
	before := net.Traffic().ControlBytes
	// ...and the propagation it chases lands afterwards: dropped.
	b1.PropagateFrom(sub, 2)
	if remote, _ := b1.RoutingStateSize(); remote != 0 {
		t.Fatalf("late propagation installed %d records past its retraction", remote)
	}
	if after := net.Traffic().ControlBytes; after != before {
		t.Fatalf("tombstoned propagation still flooded: control %v -> %v", before, after)
	}

	// A newer epoch of the ID is a different incarnation: recorded.
	renewed := sub.Clone()
	renewed.Seq = 6
	b1.PropagateFrom(renewed, 2)
	if remote, _ := b1.RoutingStateSize(); remote != 1 {
		t.Fatalf("newer epoch blocked by a stale tombstone: %d records", remote)
	}
}

// TestResubscribeSupersedesOldEpoch: re-subscribing a reused ID after an
// unsubscribe issues a higher epoch that replaces the old records along the
// path (the old incarnation's state cannot shadow the new filters).
func TestResubscribeSupersedesOldEpoch(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b3, _ := net.Broker(3)
	src.Advertise("R")

	hits := 0
	narrow := &Subscription{ID: "q", Streams: []string{"R"},
		Filters: []query.Predicate{filter("a", query.Gt, 10)}}
	if err := b3.Subscribe(narrow, func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}
	b3.Unsubscribe("q")
	wide := &Subscription{ID: "q", Streams: []string{"R"}}
	if err := b3.Subscribe(wide, func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}
	if wide.Seq <= narrow.Seq {
		t.Fatalf("re-subscribe epoch %d not newer than %d", wide.Seq, narrow.Seq)
	}

	// The new incarnation's (unfiltered) profile governs routing.
	src.Publish(tuple("R", map[string]float64{"a": 5}))
	if hits != 1 {
		t.Fatalf("deliveries = %d, want 1 (new epoch must replace the narrow filter)", hits)
	}
	b3.Unsubscribe("q")
	assertDrained(t, net)
}

// TestResubscribeLiveIDSupersedes: subscribing a reused ID WITHOUT
// unsubscribing first supersedes the live incarnation — the old local
// record (and handler) is retracted rather than accumulating next to the
// new one, so local and remote routing agree on which epoch owns the ID.
func TestResubscribeLiveIDSupersedes(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b3, _ := net.Broker(3)
	src.Advertise("R")

	oldHits, newHits := 0, 0
	narrow := &Subscription{ID: "q", Streams: []string{"R"},
		Filters: []query.Predicate{filter("a", query.Gt, 10)}}
	if err := b3.Subscribe(narrow, func(*Subscription, stream.Tuple) { oldHits++ }); err != nil {
		t.Fatal(err)
	}
	wide := &Subscription{ID: "q", Streams: []string{"R"}}
	if err := b3.Subscribe(wide, func(*Subscription, stream.Tuple) { newHits++ }); err != nil {
		t.Fatal(err)
	}
	if _, local := b3.RoutingStateSize(); local != 1 {
		t.Fatalf("broker holds %d local incarnations of the ID, want 1", local)
	}
	src.Publish(tuple("R", map[string]float64{"a": 5})) // matches wide only
	if oldHits != 0 || newHits != 1 {
		t.Fatalf("deliveries old=%d new=%d, want 0/1 (stale incarnation must not fire)", oldHits, newHits)
	}
	b3.Unsubscribe("q")
	assertDrained(t, net)
}

// TestAddBrokerJoinsOverlay: a broker added to a running overlay learns the
// existing advertisement state over its attach link, its own adverts flood
// and pull existing subscriptions toward it (re-propagation), and routing
// works in both directions across the new link.
func TestAddBrokerJoinsOverlay(t *testing.T) {
	g := topology.NewGraph(5)
	for i := 0; i < 4; i++ {
		if err := g.AddEdge(topology.NodeID(i), topology.NodeID(i+1), float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	net, err := NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := net.Broker(0)
	src.Advertise("R")

	// A subscription on a stream nobody advertises yet — the joining
	// broker will be its publisher.
	lateHits := 0
	b2, _ := net.Broker(2)
	if err := b2.Subscribe(&Subscription{ID: "late", Streams: []string{"NEW"}},
		func(*Subscription, stream.Tuple) { lateHits++ }); err != nil {
		t.Fatal(err)
	}

	nb := net.AddBroker(3)
	if got := len(nb.Neighbors()); got != 1 {
		t.Fatalf("joined broker has %d links, want 1 (tree attach)", got)
	}

	// The attach point replayed its adverts: the newcomer can subscribe
	// to R immediately.
	newHits := 0
	if err := nb.Subscribe(&Subscription{ID: "n", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { newHits++ }); err != nil {
		t.Fatal(err)
	}
	src.Publish(tuple("R", map[string]float64{"a": 1}))
	if newHits != 1 {
		t.Fatalf("joined broker deliveries = %d, want 1", newHits)
	}

	// The newcomer's advert floods and re-propagates the pre-existing
	// subscription toward it.
	nb.Advertise("NEW")
	nb.Publish(tuple("NEW", map[string]float64{"a": 2}))
	if lateHits != 1 {
		t.Fatalf("pre-existing subscription deliveries = %d, want 1 (advert must pull it)", lateHits)
	}

	// Idempotent join.
	if again := net.AddBroker(3); again != nb {
		t.Fatal("AddBroker of an existing node must return the existing broker")
	}
}

// TestAddBrokerConcurrentWithRouting: joining brokers while tuples are
// being routed must be safe — the broker map is mutated on a live overlay,
// so its readers (Peer, Broker, Nodes) go through the network lock. Run
// under -race in CI.
func TestAddBrokerConcurrentWithRouting(t *testing.T) {
	g := topology.NewGraph(8)
	for i := 0; i < 7; i++ {
		if err := g.AddEdge(topology.NodeID(i), topology.NodeID(i+1), float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	net, err := NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := net.Broker(0)
	src.Advertise("R")
	b2, _ := net.Broker(2)
	hits := 0
	var mu sync.Mutex
	if err := b2.Subscribe(&Subscription{ID: "c", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { mu.Lock(); hits++; mu.Unlock() }); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			src.Publish(tuple("R", map[string]float64{"a": float64(i)}))
		}
	}()
	for n := topology.NodeID(3); n < 8; n++ {
		nb := net.AddBroker(n)
		nb.Advertise(fmt.Sprintf("S%d", n))
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	if hits != 200 {
		t.Fatalf("deliveries = %d, want 200 (routing must survive concurrent joins)", hits)
	}
}

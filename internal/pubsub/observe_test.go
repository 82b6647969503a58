package pubsub

import (
	"bytes"
	"log/slog"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// The observability tests run on the shared lineNet overlay (0-1-2-3,
// pubsub_test.go) with the publisher at 0 and the subscriber at 2: node 3
// stays idle, so flood reach and forwarding stop are both visible.

// TestDrainLeavesNoResidualState: after every broker with state drains, no
// broker in the overlay holds adverts or routing records for anyone — the
// property the node-smoke lane asserts across real processes.
func TestDrainLeavesNoResidualState(t *testing.T) {
	net := lineNet(t)
	b0, _ := net.Broker(0)
	b1, _ := net.Broker(1)
	b2, _ := net.Broker(2)

	b0.Advertise("R")
	hits := 0
	if err := b2.Subscribe(&Subscription{ID: "s", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}
	b0.Publish(tuple("R", map[string]float64{"a": 1}))
	if hits != 1 {
		t.Fatalf("deliveries = %d, want 1 (overlay must route before drain)", hits)
	}

	// Publisher drains: its advert withdrawal must flood and take the
	// subscription records it justified with it.
	b0.Drain()
	if own, _ := b0.AdvertStateSize(); own != 0 {
		t.Fatalf("drained publisher still owns %d adverts", own)
	}
	for _, b := range []*Broker{b0, b1, b2} {
		if _, learned := b.AdvertStateSize(); learned != 0 {
			t.Fatalf("broker %d still holds %d learned adverts after publisher drain", b.Node, learned)
		}
		if remote, _ := b.RoutingStateSize(); remote != 0 {
			t.Fatalf("broker %d still holds %d remote records after publisher drain", b.Node, remote)
		}
	}
	// The subscriber's own client subscription survives its publisher.
	if _, local := b2.RoutingStateSize(); local != 1 {
		t.Fatalf("subscriber lost its local subscription: local = %d", local)
	}

	// Subscriber drains too: fully empty overlay.
	b2.Drain()
	assertDrained(t, net)

	// Drain is idempotent.
	b0.Drain()
	b2.Drain()
	assertDrained(t, net)
}

func TestDirStatesAndAdvertisedStreams(t *testing.T) {
	net := lineNet(t)
	b0, _ := net.Broker(0)
	b1, _ := net.Broker(1)
	b2, _ := net.Broker(2)

	b0.Advertise("R")
	b0.Advertise("S")
	if err := b2.Subscribe(&Subscription{ID: "s", Streams: []string{"R"}}, func(*Subscription, stream.Tuple) {}); err != nil {
		t.Fatal(err)
	}

	if got := slices.Sorted(maps.Keys(b0.ownAdverts)); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Fatalf("own adverts = %q, want [R S]", got)
	}
	if got := len(b1.ownAdverts); got != 0 {
		t.Fatalf("middle broker advertises %d streams, want none", got)
	}

	// The middle broker sees the adverts behind link 0 and the
	// subscription behind link 2.
	st := b1.DirStates()
	if len(st) != 2 || st[0].Neighbor != 0 || st[1].Neighbor != 2 {
		t.Fatalf("DirStates = %+v, want rows for neighbors 0 and 2", st)
	}
	if st[0].Adverts != 2 || st[0].Subs != 0 {
		t.Fatalf("link to 0 = %+v, want 2 adverts, 0 subs", st[0])
	}
	if st[1].Adverts != 0 || st[1].Subs != 1 {
		t.Fatalf("link to 2 = %+v, want 0 adverts, 1 sub", st[1])
	}

	b0.Drain()
	b2.Drain()
	for _, row := range b1.DirStates() {
		if row.Subs != 0 || row.Adverts != 0 {
			t.Fatalf("residual state after drain: %+v", row)
		}
	}
	if got := len(b0.ownAdverts); got != 0 {
		t.Fatalf("%d own adverts after drain, want none", got)
	}
}

// TestRouteCounters: routing moves each broker's own counters, the ones the
// node's /metrics endpoint writes.
func TestRouteCounters(t *testing.T) {
	net := lineNet(t)
	b0, _ := net.Broker(0)
	b1, _ := net.Broker(1)
	b2, _ := net.Broker(2)

	b0.Advertise("R")
	if err := b2.Subscribe(&Subscription{ID: "s", Streams: []string{"R"}}, func(*Subscription, stream.Tuple) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b0.Publish(tuple("R", map[string]float64{"a": float64(i)}))
	}
	b2.Unsubscribe("s")
	b0.Unadvertise("R")

	// Each publish routes at 0, 1 and 2, crosses links 0→1 and 1→2, and
	// is delivered at 2. The advert and its withdrawal are 0's, the
	// subscription and its removal 2's. The subscription crossed links
	// 2→1 and 1→0, and its retraction chased both records.
	for i, want := range []map[string]int64{
		{"pubsub.routed_tuples": 5, "pubsub.local_deliveries": 0, "pubsub.forwarded_tuples": 5,
			"pubsub.advertises": 1, "pubsub.unadvertises": 1, "pubsub.subscribes": 0, "pubsub.unsubscribes": 0,
			"pubsub.subscriptions_sent": 0, "pubsub.retractions_sent": 0},
		{"pubsub.routed_tuples": 5, "pubsub.local_deliveries": 0, "pubsub.forwarded_tuples": 5,
			"pubsub.advertises": 0, "pubsub.unadvertises": 0, "pubsub.subscribes": 0, "pubsub.unsubscribes": 0,
			"pubsub.subscriptions_sent": 1, "pubsub.retractions_sent": 1},
		{"pubsub.routed_tuples": 5, "pubsub.local_deliveries": 5, "pubsub.forwarded_tuples": 0,
			"pubsub.advertises": 0, "pubsub.unadvertises": 0, "pubsub.subscribes": 1, "pubsub.unsubscribes": 1,
			"pubsub.subscriptions_sent": 1, "pubsub.retractions_sent": 1},
	} {
		snap := []*Broker{b0, b1, b2}[i].Metrics().Snapshot()
		for name, w := range want {
			if got := snap[name]; got != w {
				t.Errorf("broker %d: %s = %d, want %d", i, name, got, w)
			}
		}
	}
}

// sendCounter is a PeerWrapper counting the subscription and retraction
// messages put on links.
type sendCounter struct{ propagates, retracts int64 }

func (c *sendCounter) WrapPeer(_ topology.NodeID, p Peer) Peer { return countedPeer{Peer: p, c: c} }

type countedPeer struct {
	Peer
	c *sendCounter
}

func (p countedPeer) PropagateFrom(sub *Subscription, from topology.NodeID) {
	p.c.propagates++
	p.Peer.PropagateFrom(sub, from)
}

func (p countedPeer) RetractFrom(from topology.NodeID, id string, seq uint64) {
	p.c.retracts++
	p.Peer.RetractFrom(from, id, seq)
}

// controlCounts runs f on a fresh network and returns the three
// control-plane decision counters summed over its brokers, checking
// subscriptions_sent and retractions_sent against the messages the
// network's links carried meanwhile.
func controlCounts(t *testing.T, net *Network, f func()) map[string]int64 {
	t.Helper()
	calls := new(sendCounter)
	net.SetPeerWrapper(calls)
	defer net.SetPeerWrapper(nil)
	f()
	out := make(map[string]int64)
	for _, n := range net.Nodes() {
		b, _ := net.Broker(n)
		snap := b.Metrics().Snapshot()
		for _, name := range []string{"pubsub.subscriptions_sent", "pubsub.subscriptions_suppressed", "pubsub.retractions_sent"} {
			out[name] += snap[name]
		}
	}
	if got := out["pubsub.subscriptions_sent"]; got != calls.propagates {
		t.Errorf("subscriptions_sent = %d, links carried %d subscriptions", got, calls.propagates)
	}
	if got := out["pubsub.retractions_sent"]; got != calls.retracts {
		t.Errorf("retractions_sent = %d, links carried %d retractions", got, calls.retracts)
	}
	return out
}

// TestControlCountersCountEveryDecision: every propagation decision counts
// once, wherever it is made. On a 3-broker line, a covering and a covered
// subscription at one end and an advert at the other move the counters by
// the same amounts whichever comes first — an advert's replay decides like a
// fresh subscription — and withdrawing the cover un-suppresses the covered
// one, which counts too; retractions count at every hop. Random churn keeps
// the sent counters equal to the messages on the links.
func TestControlCountersCountEveryDecision(t *testing.T) {
	scenario := func(advertFirst bool) map[string]int64 {
		g := topology.NewGraph(3)
		for i := 0; i < 2; i++ {
			if err := g.AddEdge(topology.NodeID(i), topology.NodeID(i+1), 1); err != nil {
				t.Fatal(err)
			}
		}
		net, err := NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		pub, _ := net.Broker(0)
		subs, _ := net.Broker(2)
		return controlCounts(t, net, func() {
			if advertFirst {
				pub.Advertise("R")
			}
			for _, s := range []*Subscription{
				{ID: "wide", Streams: []string{"R"}},
				{ID: "narrow", Streams: []string{"R"}, Filters: []query.Predicate{filter("a", query.Gt, 10)}},
			} {
				if err := subs.Subscribe(s, func(*Subscription, stream.Tuple) {}); err != nil {
					t.Fatal(err)
				}
			}
			if !advertFirst {
				pub.Advertise("R")
			}
			subs.Unsubscribe("wide")
			subs.Unsubscribe("narrow")
		})
	}
	// wide crosses both links, narrow is suppressed behind it; when wide
	// leaves, narrow crosses both links, and each retraction two.
	want := map[string]int64{"pubsub.subscriptions_sent": 4, "pubsub.subscriptions_suppressed": 1, "pubsub.retractions_sent": 4}
	for _, advertFirst := range []bool{true, false} {
		if got := scenario(advertFirst); !maps.Equal(got, want) {
			t.Errorf("advertise first = %v: counters %v, want %v", advertFirst, got, want)
		}
	}

	for seed := uint64(0); seed < 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 3301))
		nodes := 4 + int(seed%4)
		oracle, ids := eqNetwork(t, r, nodes)
		ops := eqScenario(r, nodes)
		net, err := NewNetwork(oracle, ids)
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		controlCounts(t, net, func() { runEqScenario(t, net, ops, &log) })
	}
}

func TestSetLoggerCapturesLifecycle(t *testing.T) {
	net := lineNet(t)
	b0, _ := net.Broker(0)
	var buf bytes.Buffer
	b0.SetLogger(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	b0.Advertise("R")
	b0.Drain()
	out := buf.String()
	for _, want := range []string{"msg=\"drain begin\"", "own_adverts=1", "msg=\"drain done\""} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
	// A nil logger discards again without panicking.
	b0.SetLogger(nil)
	b0.Drain()
}

package transport

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// line builds an n-node TCP overlay 0-1-…-(n-1) on loopback.
func line(t *testing.T, n int) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		n, err := NewNode(topology.NodeID(i), "127.0.0.1:0")
		if err != nil {
			t.Fatalf("NewNode %d: %v", i, err)
		}
		t.Cleanup(func() { _ = n.Close() }) //lint:errdrop test teardown is best-effort
		nodes[i] = n
	}
	for i := 1; i < n; i++ {
		nodes[i-1].Connect(topology.NodeID(i), nodes[i].Addr())
		nodes[i].Connect(topology.NodeID(i-1), nodes[i-1].Addr())
	}
	return nodes
}

// line3 builds a 3-node TCP overlay 0-1-2 on loopback.
func line3(t *testing.T) [3]*Node { return [3]*Node(line(t, 3)) }

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestEndToEndOverTCP(t *testing.T) {
	nodes := line3(t)

	// Node 0 advertises stream R; the flood must traverse both hops.
	nodes[0].Broker.Advertise("R")
	waitFor(t, "advert relayed by node 1", func() bool {
		_, ctrl := nodes[1].SentBytes()
		return ctrl > 0
	})
	time.Sleep(50 * time.Millisecond)

	var mu sync.Mutex
	var got []stream.Tuple
	lit := stream.FloatVal(10)
	sub := &pubsub.Subscription{
		ID:      "s",
		Streams: []string{"R"},
		Filters: []query.Predicate{{
			Left:  query.Operand{Col: &query.ColRef{Attr: "a"}},
			Op:    query.Gt,
			Right: query.Operand{Lit: &lit},
		}},
	}
	if err := nodes[2].Broker.Subscribe(sub, func(_ *pubsub.Subscription, tp stream.Tuple) {
		mu.Lock()
		got = append(got, tp)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	// Subscription propagation is asynchronous over TCP.
	time.Sleep(100 * time.Millisecond)

	pub := func(a float64) {
		nodes[0].Broker.Publish(stream.Tuple{
			Stream:    "R",
			Timestamp: 1,
			Attrs:     map[string]stream.Value{"a": stream.FloatVal(a)},
			Size:      24,
		})
	}
	pub(15)
	pub(5) // filtered at the source broker

	waitFor(t, "delivery at node 2", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 1
	})
	time.Sleep(50 * time.Millisecond) // let any stray deliveries land
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Attrs["a"].F != 15 {
		t.Fatalf("delivered %v, want one tuple with a=15", got)
	}
	// Early filtering: node 0 sent exactly one data tuple.
	data0, _ := nodes[0].SentBytes()
	if data0 != 24 {
		t.Errorf("node 0 sent %v data bytes, want 24", data0)
	}
}

// TestUnsubscribeRetractionOverTCP: a subscription registered before the
// advert exists is re-propagated over the wire when the advert arrives, and
// an unsubscribe retraction crosses the wire and drains the remote routing
// state (publishes stop leaving the source).
func TestUnsubscribeRetractionOverTCP(t *testing.T) {
	nodes := line3(t)

	// Subscribe BEFORE any advert: the lifecycle replay must carry the
	// subscription to node 0 once the advert floods.
	var mu sync.Mutex
	delivered := 0
	sub := &pubsub.Subscription{ID: "life", Streams: []string{"R"}}
	if err := nodes[2].Broker.Subscribe(sub, func(*pubsub.Subscription, stream.Tuple) {
		mu.Lock()
		delivered++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	nodes[0].Broker.Advertise("R")
	waitFor(t, "re-propagated subscription recorded at node 0", func() bool {
		remote, _ := nodes[0].Broker.RoutingStateSize()
		return remote == 1
	})

	nodes[0].Broker.Publish(stream.Tuple{Stream: "R", Timestamp: 1,
		Attrs: map[string]stream.Value{"a": stream.FloatVal(1)}, Size: 24})
	waitFor(t, "delivery at node 2", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered == 1
	})

	// Retraction crosses both hops and removes the remote records.
	nodes[2].Broker.Unsubscribe("life")
	waitFor(t, "retraction drains node 0 and node 1", func() bool {
		r0, _ := nodes[0].Broker.RoutingStateSize()
		r1, _ := nodes[1].Broker.RoutingStateSize()
		return r0 == 0 && r1 == 0
	})
	dataBefore, _ := nodes[0].SentBytes()
	nodes[0].Broker.Publish(stream.Tuple{Stream: "R", Timestamp: 2,
		Attrs: map[string]stream.Value{"a": stream.FloatVal(2)}, Size: 24})
	time.Sleep(50 * time.Millisecond)
	if dataAfter, _ := nodes[0].SentBytes(); dataAfter != dataBefore {
		t.Errorf("publish after retraction still left the source: %v -> %v data bytes", dataBefore, dataAfter)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != 1 {
		t.Errorf("deliveries = %d, want 1 (none after unsubscribe)", delivered)
	}
}

func TestWireSubscriptionRoundTrip(t *testing.T) {
	lit := stream.FloatVal(7)
	in := &pubsub.Subscription{
		ID:      "rt",
		Seq:     42,
		Streams: []string{"R", "S"},
		Attrs:   []string{"a", "b"},
		Filters: []query.Predicate{{
			Left:  query.Operand{Col: &query.ColRef{Alias: "S1", Attr: "a"}},
			Op:    query.Le,
			Right: query.Operand{Lit: &lit},
		}},
	}
	out := fromWire(toWire(in))
	if out.ID != in.ID || out.Seq != 42 || len(out.Streams) != 2 || len(out.Attrs) != 2 || len(out.Filters) != 1 {
		t.Fatalf("round trip mangled subscription: %+v", out)
	}
	f := out.Filters[0]
	if f.Left.Col == nil || f.Left.Col.Attr != "a" || f.Left.Col.Alias != "S1" {
		t.Errorf("left operand = %+v", f.Left)
	}
	if f.Right.Lit == nil || f.Right.Lit.F != 7 {
		t.Errorf("right operand = %+v", f.Right)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the subscription: %+v, sent %+v", out, in)
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	n, err := NewNode(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestHopLatencyHasNoTimerFloor: one-at-a-time traffic crosses a hop in the
// time the work takes. 200 publishes over three TCP hops, each awaited at
// the subscriber before the next, cost ~15 ms of work; any per-hop wait on
// a partial batch (the 1 ms flush window this pins the absence of) would
// alone add 200 × 3 ms.
func TestHopLatencyHasNoTimerFloor(t *testing.T) {
	nodes := line(t, 4)
	nodes[0].Broker.Advertise("R")
	waitFor(t, "advert at node 3", func() bool {
		_, learned := nodes[3].Broker.AdvertStateSize()
		return learned == 1
	})
	got := make(chan int64, 1) // one tuple in flight at a time
	sub := &pubsub.Subscription{ID: "s", Streams: []string{"R"}}
	if err := nodes[3].Broker.Subscribe(sub, func(_ *pubsub.Subscription, tp stream.Tuple) {
		got <- tp.Timestamp
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription at node 0", func() bool {
		remote, _ := nodes[0].Broker.RoutingStateSize()
		return remote == 1
	})

	roundTrip := func(ts int64) {
		nodes[0].Broker.Publish(stream.Tuple{Stream: "R", Timestamp: ts, Size: 8})
		select {
		case have := <-got:
			if have != ts {
				t.Fatalf("delivered tuple %d, want %d", have, ts)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("tuple %d never reached node 3", ts)
		}
	}
	roundTrip(0) // dials the three data-direction connections
	start := time.Now()
	for ts := int64(1); ts <= 200; ts++ {
		roundTrip(ts)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("200 awaited publishes over 3 hops took %v, want < 300ms", elapsed)
	}
}

// TestAdvertBeforeConnectIsHeld forces the start-up order that dropped an
// advert for good: node 0 attaches node 1 and advertises while node 1 is
// listening but has not yet called Connect(0), as when one process boots
// before its neighbor. The advert must be held, not handed to a broker that
// would drop it as a non-neighbor's straggler, and applied once Connect(0)
// runs. The settle sleep only gives a node that does not hold the time to
// drop the advert; a node that holds passes at any timing.
func TestAdvertBeforeConnectIsHeld(t *testing.T) {
	var nodes [2]*Node
	for i := range nodes {
		n, err := NewNode(topology.NodeID(i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() }) //lint:errdrop test teardown is best-effort
		nodes[i] = n
	}
	nodes[0].Connect(1, nodes[1].Addr())
	nodes[0].Broker.Advertise("R")
	nodes[0].Flush()
	waitFor(t, "node 1 accepts node 0's connection", func() bool {
		nodes[1].mu.Lock()
		defer nodes[1].mu.Unlock()
		return len(nodes[1].inbound) == 1
	})
	time.Sleep(50 * time.Millisecond)
	if _, learned := nodes[1].Broker.AdvertStateSize(); learned != 0 {
		t.Fatalf("node 1 learned %d adverts from a peer it has not attached", learned)
	}

	nodes[1].Connect(0, nodes[0].Addr())
	waitFor(t, "the held advert applied at node 1", func() bool {
		_, learned := nodes[1].Broker.AdvertStateSize()
		return learned == 1
	})
}

package pubsub

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// This file stress-tests the lock-free snapshot route path (snapshot.go)
// under genuine concurrency: several publisher goroutines route tuples
// while a churn goroutine advertises, subscribes, unsubscribes and
// unadvertises on a DISJOINT set of streams. Because churn never touches
// the stable streams, every stable tuple's matched set is the same in
// every snapshot epoch, so each stable subscription must receive exactly
// the delivery multiset of a sequential reference run — regardless of how
// routes interleave with epoch swaps. Run it with -race: the interesting
// failures here are data races between matchSnap readers and the write
// side, not multiset mismatches.

// csRecorder accumulates one subscription's delivery multiset.
type csRecorder struct {
	mu     sync.Mutex
	counts map[string]int
}

func (r *csRecorder) record(tp stream.Tuple) {
	key := renderTuple(tp)
	r.mu.Lock()
	r.counts[key]++
	r.mu.Unlock()
}

// csStableSub builds the i-th stable subscription deterministically: one
// S-stream, a numeric window on "a", and a projection that alternates
// between keep-all and {a, tag}.
func csStableSub(i int) *Subscription {
	lo := float64(i%7 - 3)
	s := &Subscription{
		ID:      fmt.Sprintf("stable%d", i),
		Streams: []string{fmt.Sprintf("S%d", i%8)},
		Filters: []query.Predicate{
			{
				Left:  query.Operand{Col: &query.ColRef{Attr: "a"}},
				Op:    query.Ge,
				Right: query.Operand{Lit: litFloat(lo)},
			},
			{
				Left:  query.Operand{Col: &query.ColRef{Attr: "a"}},
				Op:    query.Le,
				Right: query.Operand{Lit: litFloat(lo + 4)},
			},
		},
	}
	if i%2 == 0 {
		s.Attrs = []string{"a", "tag"}
	}
	return s
}

func litFloat(f float64) *stream.Value {
	v := stream.FloatVal(f)
	return &v
}

// csTuple is the j-th tuple published on streamName: a deterministic walk
// over the window domain with an occasional string-typed attribute.
func csTuple(streamName string, j int) stream.Tuple {
	t := stream.Tuple{
		Stream: streamName,
		Attrs: map[string]stream.Value{
			"a": stream.FloatVal(float64(j%13 - 6)),
			"b": stream.IntVal(int64(j % 5)),
		},
	}
	if j%3 == 0 {
		t.Attrs["tag"] = stream.StringVal([]string{"x", "y"}[j%2])
	}
	t.Size = tupleSize(len(t.Attrs))
	return t
}

// csBuild wires the star topology (center 2, leaves 0,1,3,4), advertises
// the eight stable streams from the leaves (leaf k advertises S{k'} for
// k' ≡ leaf order mod 4), and installs nSubs stable subscriptions spread
// over all five brokers. It returns the network and the per-sub recorders.
// The graph knows two more nodes next to the center, 5 and 6, that hold no
// broker until a test joins one.
func csBuild(t *testing.T, nSubs int) (*Network, []*csRecorder) {
	t.Helper()
	g := topology.NewGraph(7)
	for _, leaf := range []topology.NodeID{0, 1, 3, 4, 5, 6} {
		if err := g.AddEdge(2, leaf, 1); err != nil {
			t.Fatal(err)
		}
	}
	ids := []topology.NodeID{0, 1, 2, 3, 4}
	net, err := NewNetwork(topology.NewOracle(g), ids)
	if err != nil {
		t.Fatal(err)
	}
	leaves := []topology.NodeID{0, 1, 3, 4}
	for s := 0; s < 8; s++ {
		b, _ := net.Broker(leaves[s%4])
		b.Advertise(fmt.Sprintf("S%d", s))
	}
	recs := make([]*csRecorder, nSubs)
	for i := 0; i < nSubs; i++ {
		recs[i] = &csRecorder{counts: make(map[string]int)}
		b, _ := net.Broker(ids[i%len(ids)])
		rec := recs[i]
		if err := b.Subscribe(csStableSub(i), func(_ *Subscription, tp stream.Tuple) {
			rec.record(tp)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return net, recs
}

// csPublishAll publishes every publisher's tuple sequence from its
// advertising broker. Each leaf k owns streams S{k%4} and S{k%4+4}.
func csPublish(net *Network, leaf topology.NodeID, order int, nTuples int) {
	b, _ := net.Broker(leaf)
	for j := 0; j < nTuples; j++ {
		b.Publish(csTuple(fmt.Sprintf("S%d", order+4*(j%2)), j))
	}
}

// TestConcurrentRouteEquivalence: four publisher goroutines (one per leaf)
// route stable tuples while a churn goroutine cycles advertise → subscribe
// → publish → unsubscribe → unadvertise on disjoint C-streams. Every
// stable subscription's delivery multiset must equal the sequential
// reference, and tearing everything down must drain the overlay to zero.
func TestConcurrentRouteEquivalence(t *testing.T) {
	const nSubs = 40
	const nTuples = 300
	leaves := []topology.NodeID{0, 1, 3, 4}

	// Sequential reference: same overlay, same tuples, no concurrency.
	refNet, refRecs := csBuild(t, nSubs)
	for order, leaf := range leaves {
		csPublish(refNet, leaf, order, nTuples)
	}

	net, recs := csBuild(t, nSubs)
	var wg sync.WaitGroup
	for order, leaf := range leaves {
		wg.Add(1)
		go func(order int, leaf topology.NodeID) {
			defer wg.Done()
			csPublish(net, leaf, order, nTuples)
		}(order, leaf)
	}
	// Churn goroutine: full lifecycle cycles on C-streams only. Its own
	// deliveries are deterministic (the cycle is sequential), counted only
	// to prove the churned path actually matched.
	churned := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		src, _ := net.Broker(2)
		sub, _ := net.Broker(leaves[0])
		for cycle := 0; cycle < 60; cycle++ {
			cs := fmt.Sprintf("C%d", cycle%3)
			src.Advertise(cs)
			id := fmt.Sprintf("churn%d", cycle)
			s := &Subscription{ID: id, Streams: []string{cs}}
			if err := sub.Subscribe(s, func(_ *Subscription, _ stream.Tuple) {
				churned++
			}); err != nil {
				t.Error(err)
				return
			}
			src.Publish(csTuple(cs, cycle))
			sub.Unsubscribe(id)
			src.Unadvertise(cs)
		}
	}()
	wg.Wait()

	if churned == 0 {
		t.Fatal("churn goroutine never matched: C-path not exercised")
	}
	for i := range recs {
		got, want := recs[i].counts, refRecs[i].counts
		if len(got) != len(want) {
			t.Fatalf("sub %d: %d distinct tuples, reference %d", i, len(got), len(want))
		}
		total := 0
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("sub %d: tuple %q delivered %d times, reference %d", i, k, got[k], n)
			}
			total += n
		}
		if i == 0 && total == 0 {
			t.Fatal("reference run delivered nothing: test not exercising the match path")
		}
	}

	// Teardown: withdrawing every subscription and advertisement must
	// drain all brokers to zero residual state (posting lists, unions,
	// covered-by edges, snapshots' backing maps included).
	for i := 0; i < nSubs; i++ {
		b, _ := net.Broker(topology.NodeID([]topology.NodeID{0, 1, 2, 3, 4}[i%5]))
		b.Unsubscribe(fmt.Sprintf("stable%d", i))
	}
	for s := 0; s < 8; s++ {
		b, _ := net.Broker(leaves[s%4])
		b.Unadvertise(fmt.Sprintf("S%d", s))
	}
	if residual := net.ResidualState(); len(residual) != 0 {
		t.Fatalf("residual state after teardown: %v", residual)
	}
}

// passWrapper is the identity PeerWrapper.
type passWrapper struct{}

func (passWrapper) WrapPeer(_ topology.NodeID, p Peer) Peer { return p }

// TestFabricViewBesideMembershipChurn: the in-memory fabric resolves peers
// and counts link bytes without Network.mu, through a published view. Four
// publishers forward from the leaves while brokers 5 and 6 join and leave
// next to the center and a peer wrapper is installed and removed: no
// forward may be lost to a stale view, and the per-link atomic counters must
// add up to the sequential run's data bytes exactly. Run with -race.
func TestFabricViewBesideMembershipChurn(t *testing.T) {
	const nSubs = 40
	const nTuples = 300
	leaves := []topology.NodeID{0, 1, 3, 4}

	refNet, _ := csBuild(t, nSubs)
	for order, leaf := range leaves {
		csPublish(refNet, leaf, order, nTuples)
	}
	want := refNet.Traffic().DataBytes
	if want == 0 {
		t.Fatal("reference run forwarded nothing")
	}

	net, _ := csBuild(t, nSubs)
	var wg sync.WaitGroup
	for order, leaf := range leaves {
		wg.Add(1)
		go func(order int, leaf topology.NodeID) {
			defer wg.Done()
			csPublish(net, leaf, order, nTuples)
		}(order, leaf)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for cycle := 0; cycle < 40; cycle++ {
			net.AddBroker(5)
			net.SetPeerWrapper(passWrapper{})
			net.AddBroker(6)
			net.RemoveBroker(5)
			net.SetPeerWrapper(nil)
			net.RemoveBroker(6)
		}
	}()
	wg.Wait()

	if got := net.Traffic().DataBytes; got != want {
		t.Errorf("data bytes beside membership churn = %v, sequential run %v", got, want)
	}
	if nodes := net.Nodes(); len(nodes) != 5 {
		t.Errorf("brokers after the last leave: %v", nodes)
	}
}

// TestRouteNeverTakesBrokerMutex: route completes while the test holds
// Broker.mu — on a broker straight out of NewBroker (which already has an
// epoch to read, so there is no locked fallback for a broker that has not
// churned yet) and on a wired broker holding local and remote
// subscriptions. A route that touched the mutex would block forever.
func TestRouteNeverTakesBrokerMutex(t *testing.T) {
	routeLocked := func(t *testing.T, b *Broker, tp stream.Tuple, from topology.NodeID) {
		t.Helper()
		b.mu.Lock()
		defer b.mu.Unlock()
		done := make(chan struct{})
		go func() {
			b.route(tp, from)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("route blocked on Broker.mu")
		}
	}
	t.Run("fresh", func(t *testing.T) {
		routeLocked(t, NewBroker(nil, 0), csTuple("S0", 0), -1)
	})
	t.Run("wired", func(t *testing.T) {
		net, recs := csBuild(t, 20)
		center, _ := net.Broker(2)
		routeLocked(t, center, csTuple("S2", 6), 3) // a=0: in the windows of stable2 (here) and stable10 (at leaf 0)
		local, remote := 0, 0
		for i, rec := range recs {
			rec.mu.Lock()
			n := len(rec.counts)
			rec.mu.Unlock()
			if i%5 == 2 {
				local += n
			} else {
				remote += n
			}
		}
		if local == 0 || remote == 0 {
			t.Fatalf("route under held mutex delivered to %d local and %d remote subscriptions; want both nonzero", local, remote)
		}
	})
}

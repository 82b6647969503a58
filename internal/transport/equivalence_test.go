package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// TestTransportEquivalence drives the same randomized workload over the same
// randomized live-TCP overlay in batched mode, v1-framing (BatchSize 1)
// mode, and an aggressive small-batch mode, and requires all three to
// deliver the identical multiset of tuples and to drain to the identical
// (empty) routing state. Batching is pure framing: the broker protocol must
// not be able to tell the difference.
func TestTransportEquivalence(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"batched", Options{}},
		{"unbatched", Options{BatchSize: 1}},
		// Small batches: exercises the partial-batch path and batch-of-1
		// unwrapping under the same workload.
		{"batch4", Options{BatchSize: 4}},
	}
	for seed := int64(1); seed <= 2; seed++ {
		var want map[string]int
		for _, m := range modes {
			name := fmt.Sprintf("seed%d/%s", seed, m.name)
			got := runEquivalenceWorkload(t, name, seed, m.opts)
			if want == nil {
				want = got // batched mode is the reference multiset
				if len(want) == 0 {
					t.Fatalf("%s: workload delivered nothing — vacuous equivalence", name)
				}
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s: delivered %d distinct (sub,tuple) pairs, want %d", name, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("%s: delivery %q seen %d times, want %d", name, k, got[k], n)
				}
			}
		}
	}
}

// runEquivalenceWorkload builds a random tree overlay, runs a scripted
// advert/subscribe/publish/churn workload derived from seed, verifies the
// overlay drains to empty, and returns the delivery multiset keyed by
// (subscriber node, sub ID, stream, timestamp).
func runEquivalenceWorkload(t *testing.T, name string, seed int64, opts Options) map[string]int {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	const nNodes = 6

	nodes := make([]*Node, nNodes)
	for i := range nodes {
		n, err := NewNodeWith(topology.NodeID(i), "127.0.0.1:0", opts)
		if err != nil {
			t.Fatalf("%s: NewNodeWith %d: %v", name, i, err)
		}
		defer n.Close() //lint:errdrop test teardown is best-effort
		nodes[i] = n
	}
	// Random spanning tree: node i attaches to a random earlier node.
	for i := 1; i < nNodes; i++ {
		p := rnd.Intn(i)
		nodes[i].Connect(topology.NodeID(p), nodes[p].Addr())
		nodes[p].Connect(topology.NodeID(i), nodes[i].Addr())
	}

	var mu sync.Mutex
	delivered := make(map[string]int)
	var deliveredN int

	quiesce := func(phase string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		stable := 0
		last := ""
		for time.Now().Before(deadline) {
			for _, n := range nodes {
				n.Flush()
			}
			fp := ""
			for _, n := range nodes {
				remote, local := n.Broker.RoutingStateSize()
				own, learned := n.Broker.AdvertStateSize()
				fp += fmt.Sprintf("%d.%d.%d.%d;", remote, local, own, learned)
			}
			mu.Lock()
			fp += fmt.Sprintf("d%d", deliveredN)
			mu.Unlock()
			if fp == last {
				if stable++; stable >= 3 {
					return
				}
			} else {
				stable, last = 0, fp
			}
			time.Sleep(15 * time.Millisecond)
		}
		t.Fatalf("%s: overlay did not quiesce after %s", name, phase)
	}

	// Phase 1: adverts. Each stream lives at a random node.
	const nStreams = 4
	src := make([]int, nStreams)
	for s := range src {
		src[s] = rnd.Intn(nNodes)
		nodes[src[s]].Broker.Advertise(fmt.Sprintf("S%d", s))
	}
	quiesce("adverts")

	// Phase 2: subscriptions — nested thresholds on a shared attribute so
	// containment (and its suppression machinery) engages on the wire.
	type subAt struct {
		node int
		id   string
	}
	var subs []subAt
	for i := 0; i < 10; i++ {
		at := rnd.Intn(nNodes)
		strm := fmt.Sprintf("S%d", rnd.Intn(nStreams))
		id := fmt.Sprintf("sub%d@%d", i, at)
		sub := &pubsub.Subscription{ID: id, Streams: []string{strm}}
		if rnd.Intn(3) > 0 { // 2/3 filtered, thresholds overlap across subs
			lit := stream.FloatVal(float64(10 * rnd.Intn(5)))
			sub.Filters = []query.Predicate{{
				Left:  query.Operand{Col: &query.ColRef{Attr: "a"}},
				Op:    query.Ge,
				Right: query.Operand{Lit: &lit},
			}}
		}
		err := nodes[at].Broker.Subscribe(sub, func(s *pubsub.Subscription, tp stream.Tuple) {
			mu.Lock()
			delivered[fmt.Sprintf("%s/%s/%d", s.ID, tp.Stream, tp.Timestamp)]++
			deliveredN++
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("%s: subscribe %s: %v", name, id, err)
		}
		subs = append(subs, subAt{at, id})
	}
	quiesce("subscriptions")

	// Phase 3: publish a burst from every source.
	ts := int64(0)
	publishBurst := func(k int) {
		for s := 0; s < nStreams; s++ {
			for j := 0; j < k; j++ {
				ts++
				nodes[src[s]].Broker.Publish(stream.Tuple{
					Stream:    fmt.Sprintf("S%d", s),
					Timestamp: ts,
					Attrs:     map[string]stream.Value{"a": stream.FloatVal(float64(rnd.Intn(60)))},
					Size:      24,
				})
			}
		}
	}
	publishBurst(6)
	quiesce("first burst")

	// Phase 4: churn — retract some subscriptions and one advert, then
	// publish again into the reshaped overlay.
	for i, s := range subs {
		if i%3 == 0 {
			nodes[s.node].Broker.Unsubscribe(s.id)
		}
	}
	nodes[src[0]].Broker.Unadvertise("S0")
	quiesce("churn")
	publishBurst(4)
	quiesce("second burst")

	// Phase 5: teardown — the overlay must drain to empty in every mode.
	for i, s := range subs {
		if i%3 != 0 {
			nodes[s.node].Broker.Unsubscribe(s.id)
		}
	}
	for s := 1; s < nStreams; s++ {
		nodes[src[s]].Broker.Unadvertise(fmt.Sprintf("S%d", s))
	}
	quiesce("teardown")
	for i, n := range nodes {
		remote, local := n.Broker.RoutingStateSize()
		own, learned := n.Broker.AdvertStateSize()
		if remote+local+own+learned != 0 {
			t.Fatalf("%s: node %d did not drain: remote=%d local=%d own=%d learned=%d",
				name, i, remote, local, own, learned)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]int, len(delivered))
	for k, v := range delivered {
		out[k] = v
	}
	return out
}

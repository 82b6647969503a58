// Transport v2 benchmarks: end-to-end throughput and control-flood cost of
// the per-peer send pipelines over a real loopback-TCP 3-broker chain,
// batched against v1 framing (Options.BatchSize 1). The two are the same
// protocol — TestTransportEquivalence proves identical delivery — so the
// whole delta is framing: MsgBatch coalescing, buffer reuse, and one flush
// per batch instead of one syscall per envelope.
package cosmos

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/transport"
)

// benchChain builds a 3-broker loopback-TCP chain 0-1-2 with the given
// pipeline options on every node.
func benchChain(b *testing.B, opts transport.Options) [3]*transport.Node {
	b.Helper()
	var nodes [3]*transport.Node
	for i := range nodes {
		n, err := transport.NewNodeWith(topology.NodeID(i), "127.0.0.1:0", opts)
		if err != nil {
			b.Fatalf("NewNodeWith %d: %v", i, err)
		}
		b.Cleanup(func() { _ = n.Close() }) //lint:errdrop bench teardown is best-effort
		nodes[i] = n
	}
	nodes[0].Connect(1, nodes[1].Addr())
	nodes[1].Connect(0, nodes[0].Addr())
	nodes[1].Connect(2, nodes[2].Addr())
	nodes[2].Connect(1, nodes[1].Addr())
	return nodes
}

func benchWaitChain(b *testing.B, what string, pred func() bool) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	b.Fatalf("timed out waiting for %s", what)
}

// benchChainData runs the data leg: a windowed publisher at node 0, a sink
// subscription at node 2, every published tuple delivered end to end.
func benchChainData(b *testing.B, opts transport.Options) {
	nodes := benchChain(b, opts)
	nodes[0].Broker.Advertise("R")
	var delivered atomic.Int64
	sub := &pubsub.Subscription{ID: "sink", Streams: []string{"R"}}
	if err := nodes[2].Broker.Subscribe(sub, func(*pubsub.Subscription, stream.Tuple) {
		delivered.Add(1)
	}); err != nil {
		b.Fatal(err)
	}
	benchWaitChain(b, "subscription at source", func() bool {
		remote, _ := nodes[0].Broker.RoutingStateSize()
		return remote == 1
	})

	snap := metrics.Counters()
	batchSize0 := snap["transport.batch_size"]
	dropped0 := snap["transport.dropped_data"]

	// In-flight window under the 4096 data queue bound: the pipeline
	// stays busy (batches fill while the previous write is in flight) but
	// nothing is shed.
	const window = 1024
	tpl := stream.Tuple{Stream: "R", Size: 24,
		Attrs: map[string]stream.Value{"a": stream.FloatVal(1)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for int64(i)-delivered.Load() >= window {
			time.Sleep(50 * time.Microsecond)
		}
		tpl.Timestamp = int64(i)
		nodes[0].Broker.Publish(tpl)
	}
	benchWaitChain(b, "all tuples delivered", func() bool {
		return delivered.Load() == int64(b.N)
	})
	b.StopTimer()

	snap = metrics.Counters()
	if got := snap["transport.dropped_data"] - dropped0; got != 0 {
		b.Fatalf("%d tuples shed — the windowed bench must be loss-free", got)
	}
	if opts.BatchSize != 1 && b.N > window {
		if snap["transport.batch_size"] == batchSize0 {
			b.Fatal("batched run coalesced nothing — transport.batch_size never moved")
		}
		if snap["transport.queue_depth"] == 0 {
			b.Fatal("transport.queue_depth high-water never recorded")
		}
	}
	b.ReportMetric(float64(delivered.Load())*1e9/float64(b.Elapsed().Nanoseconds()), "tuples/sec")
}

// BenchmarkChainThroughput/data/*: tuples routed node 0 → 1 → 2 end to end
// (two TCP hops), ns/op = per-tuple latency at full pipeline occupancy, so
// 1e9/ns_per_op is tuples/sec. The publisher keeps a bounded in-flight
// window (below the data queue depth) — every published tuple is delivered,
// and the batched/unbatched comparison measures framing, not loss.
//
// /advertflood/*: one iteration floods an advertisement into a broker
// holding 1000 pending subscriptions and waits for the full replay burst
// (1000 subscriptions per hop) to land back at the source, then withdraws
// it again — the control-plane storm of a source joining a populated
// overlay. Batching collapses the burst's wire messages by ~BatchSize.
func BenchmarkChainThroughput(b *testing.B) {
	modes := []struct {
		name string
		opts transport.Options
	}{
		{"batched", transport.Options{}},
		{"unbatched", transport.Options{BatchSize: 1}},
	}

	b.Run("data", func(b *testing.B) {
		for _, m := range modes {
			b.Run(m.name, func(b *testing.B) { benchChainData(b, m.opts) })
		}
	})

	b.Run("sweep", func(b *testing.B) {
		// The batch-size sweep behind PERF.md's "Transport v2" table.
		// Env-gated like the ScaleMedium Fig 6 sweep: it is a tuning
		// record, not a regression guard, and would multiply the bench
		// lane's wall time.
		if os.Getenv("COSMOS_BENCH_SWEEP") == "" {
			b.Skip("set COSMOS_BENCH_SWEEP=1 to run the PERF.md tuning sweep")
		}
		for _, bs := range []int{8, 16, 64, 256} {
			b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
				benchChainData(b, transport.Options{BatchSize: bs})
			})
		}
	})

	b.Run("advertflood", func(b *testing.B) {
		for _, m := range modes {
			b.Run(m.name, func(b *testing.B) {
				nodes := benchChain(b, m.opts)
				// 1000 pending subscriptions on non-overlapping attributes
				// (no containment: the full burst must travel every hop).
				const nSubs = 1000
				for i := 0; i < nSubs; i++ {
					lit := stream.FloatVal(float64(i))
					sub := &pubsub.Subscription{
						ID: fmt.Sprintf("s%d", i), Streams: []string{"R"},
						Filters: []query.Predicate{{
							Left:  query.Operand{Col: &query.ColRef{Attr: fmt.Sprintf("a%d", i)}},
							Op:    query.Ge,
							Right: query.Operand{Lit: &lit},
						}},
					}
					if err := nodes[2].Broker.Subscribe(sub, func(*pubsub.Subscription, stream.Tuple) {}); err != nil {
						b.Fatal(err)
					}
				}
				wire0 := metrics.Counters()["transport.wire_msgs"]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nodes[0].Broker.Advertise("R")
					benchWaitChain(b, "replay burst at source", func() bool {
						remote, _ := nodes[0].Broker.RoutingStateSize()
						return remote == nSubs
					})
					nodes[0].Broker.Unadvertise("R")
					benchWaitChain(b, "withdrawal pruned", func() bool {
						remote, _ := nodes[0].Broker.RoutingStateSize()
						return remote == 0
					})
				}
				b.StopTimer()
				wire := metrics.Counters()["transport.wire_msgs"] - wire0
				b.ReportMetric(float64(wire)/float64(b.N), "wire_msgs/flood")
			})
		}
	})
}

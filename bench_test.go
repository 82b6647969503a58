// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4), plus ablations of the design choices DESIGN.md calls out. Each
// figure bench runs the corresponding experiment driver at CI scale and
// reports the headline quantities as custom metrics, so `go test -bench=.`
// reproduces the paper's rows without external tooling.
package cosmos

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/adapt"
	"repro/internal/hierarchy"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/prototype"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

func benchOpts() sim.ExperimentOptions {
	return sim.ExperimentOptions{
		K:           3,
		VMax:        40,
		QueryCounts: []int{200, 400},
		Queries:     400,
		Rounds:      4,
	}
}

func benchWorld(b *testing.B) *sim.World {
	b.Helper()
	w, err := sim.NewWorld(sim.ConfigFor(sim.ScaleCI))
	if err != nil {
		b.Fatalf("NewWorld: %v", err)
	}
	return w
}

func lastOf(tbl *metrics.Table, name string) float64 {
	for _, s := range tbl.Series {
		if s.Name == name && len(s.Values) > 0 {
			return s.Values[len(s.Values)-1]
		}
	}
	return 0
}

// BenchmarkTable2Mapping times Algorithm 2 on the paper's Fig 5 worked
// example (Table 2).
func BenchmarkTable2Mapping(b *testing.B) {
	w := benchWorld(b)
	wl, err := w.GenerateWorkload(4)
	if err != nil {
		b.Fatal(err)
	}
	qg, ng, err := w.GlobalGraphs(wl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mapping.NewMapper(qg, ng, mapping.Options{})
		if _, err := m.Map(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6CommCost regenerates Fig 6(a): initial distribution quality
// for the four schemes. Reported metrics are the largest-workload costs
// normalized over Centralized.
func BenchmarkFig6CommCost(b *testing.B) {
	w := benchWorld(b)
	var cost *metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		cost, _, err = w.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	cen := lastOf(cost, "Centralized")
	b.ReportMetric(lastOf(cost, "Naive")/cen, "naive/cen")
	b.ReportMetric(lastOf(cost, "Greedy")/cen, "greedy/cen")
	b.ReportMetric(lastOf(cost, "Hierarchical")/cen, "hier/cen")
}

// BenchmarkFig6RunningTime regenerates Fig 6(b): optimizer running times.
func BenchmarkFig6RunningTime(b *testing.B) {
	w := benchWorld(b)
	var times *metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, times, err = w.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastOf(times, "Cen.Total"), "cen-ms")
	b.ReportMetric(lastOf(times, "Hie.Total"), "hie-total-ms")
	b.ReportMetric(lastOf(times, "Hie.Response"), "hie-resp-ms")
}

// BenchmarkFig7Adaptation regenerates Fig 7: adapting to inaccurate
// statistics. Metrics: final cost of each scheme relative to A-Accurate.
func BenchmarkFig7Adaptation(b *testing.B) {
	w := benchWorld(b)
	var cost *metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		cost, _, err = w.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	acc := lastOf(cost, "A-Accurate")
	b.ReportMetric(lastOf(cost, "NA-Inaccurate")/acc, "noadapt/accurate")
	b.ReportMetric(lastOf(cost, "A-Inaccurate")/acc, "adapt/accurate")
}

// BenchmarkFig8NewQueries regenerates Fig 8: online query arrival.
func BenchmarkFig8NewQueries(b *testing.B) {
	w := benchWorld(b)
	opts := benchOpts()
	opts.BatchPerInterval = 40
	var cost *metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		cost, _, err = w.Fig8(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	oa := lastOf(cost, "Online-Adaptive")
	b.ReportMetric(lastOf(cost, "Random")/oa, "random/onlineadaptive")
	b.ReportMetric(lastOf(cost, "Online")/oa, "online/onlineadaptive")
}

// BenchmarkFig9ClusterSize regenerates Fig 9: cost and root throughput
// versus the cluster size parameter k.
func BenchmarkFig9ClusterSize(b *testing.B) {
	w := benchWorld(b)
	var cost, thr *metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		cost, thr, err = w.Fig9(benchOpts(), []int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	cs := cost.Series[0].Values
	ts := thr.Series[0].Values
	b.ReportMetric(cs[0]/cs[len(cs)-1], "cost-k2/k8")
	b.ReportMetric(ts[0]/ts[len(ts)-1], "thr-k2/k8")
}

// BenchmarkFig10Perturbation regenerates Fig 10: adapting to stream-rate
// changes. Metrics: migration ratio of Remapping over Adaptive (paper: ~7x)
// and final deviation ratio of No-Adaptive over Adaptive.
func BenchmarkFig10Perturbation(b *testing.B) {
	w := benchWorld(b)
	var dev *metrics.Table
	var migs map[string]int
	for i := 0; i < b.N; i++ {
		var err error
		_, dev, migs, err = w.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if migs["Adaptive"] > 0 {
		b.ReportMetric(float64(migs["Remapping"])/float64(migs["Adaptive"]), "remapMigs/adaptMigs")
	}
	b.ReportMetric(lastOf(dev, "No-Adaptive")/lastOf(dev, "Adaptive"), "noadaptDev/adaptDev")
}

// BenchmarkFig11Prototype regenerates Fig 11: COSMOS versus operator
// placement on plan cost and optimizer time.
func BenchmarkFig11Prototype(b *testing.B) {
	w, err := prototype.NewWorld(30, trace.DefaultConfig(), 3)
	if err != nil {
		b.Fatal(err)
	}
	cqs, err := w.GenerateQueries(250, 9)
	if err != nil {
		b.Fatal(err)
	}
	var res *prototype.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = w.Run(cqs, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.OpCost/res.CosmosCost, "opCost/cosmosCost")
	b.ReportMetric(float64(res.OpTime)/float64(res.CosmosTime), "opTime/cosmosTime")
}

// BenchmarkHierDistribute times one full hierarchical initial distribution
// (upward coarsening + downward mapping) at CI scale — the per-coordinator
// work whose sum Fig 6(b) reports as Hie.Total.
func BenchmarkHierDistribute(b *testing.B) {
	w := benchWorld(b)
	wl, err := w.GenerateWorkload(400)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := hierarchy.Build(w.Oracle, w.Processors, nil, hierarchy.Config{K: 3, VMax: 40, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Distribute(wl.Queries, wl.SubRates, wl.SourceOfSub); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerRoute measures broker-side matching throughput — the
// Pub/Sub hot path every routed tuple pays. A publisher broker forwards to a
// neighbor holding N recorded subscriptions, which then matches the tuple
// against its N local client subscriptions, so each operation pays two full
// matching passes. Subscriptions spread over 64 streams with pairwise
// non-covering interval filters, matched through the inverted matching
// index ("indexed" is the only matcher; the name is what the guards in
// BENCH_BASELINE.json key on).
func BenchmarkBrokerRoute(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		// '=' instead of '-' before the count: a trailing "-<digits>" in
		// a sub-benchmark name is indistinguishable from the -GOMAXPROCS
		// suffix (omitted on 1-CPU runners) in bench output, which would
		// make cmd/benchcheck collapse the count variants into one entry.
		b.Run(fmt.Sprintf("indexed/subs=%d", n), func(b *testing.B) {
			benchBrokerRoute(b, n)
		})
	}
}

func benchBrokerRoute(b *testing.B, nSubs int) {
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 1); err != nil {
		b.Fatal(err)
	}
	net, err := pubsub.NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	src, _ := net.Broker(0)
	dst, _ := net.Broker(1)
	const streams = 64
	streamName := func(s int) string { return fmt.Sprintf("S%02d", s) }
	for s := 0; s < streams; s++ {
		src.Advertise(streamName(s))
	}
	mkFilter := func(attr string, op query.Op, v float64) query.Predicate {
		lit := stream.FloatVal(v)
		return query.Predicate{
			Left:  query.Operand{Col: &query.ColRef{Attr: attr}},
			Op:    op,
			Right: query.Operand{Lit: &lit},
		}
	}
	delivered := 0
	for i := 0; i < nSubs; i++ {
		// Per stream, strictly increasing half-open windows [k, k+2): no
		// subscription covers another, so all N propagate and stay
		// recorded at the publisher.
		k := float64(i / streams)
		sub := &pubsub.Subscription{
			ID:      fmt.Sprintf("s%d", i),
			Streams: []string{streamName(i % streams)},
			Filters: []query.Predicate{
				mkFilter("a", query.Ge, k),
				mkFilter("a", query.Lt, k+2),
			},
		}
		if i%2 == 0 {
			sub.Attrs = []string{"a", "b"}
		}
		if err := dst.Subscribe(sub, func(*pubsub.Subscription, stream.Tuple) { delivered++ }); err != nil {
			b.Fatal(err)
		}
	}
	windows := nSubs/streams + 2
	// Warm-up: one tuple per stream, so the lazily built attribute-prune
	// indexes exist before timing starts and short -benchtime runs (CI
	// uses 100x) measure the steady state, not the one-time builds.
	for s := 0; s < streams; s++ {
		src.Publish(stream.Tuple{
			Stream: streamName(s),
			Attrs:  map[string]stream.Value{"a": stream.FloatVal(0), "b": stream.FloatVal(1)},
			Size:   32,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := stream.Tuple{
			Stream: streamName(i % streams),
			Attrs: map[string]stream.Value{
				"a": stream.FloatVal(float64(i % windows)),
				"b": stream.FloatVal(1),
			},
			Size: 32,
		}
		src.Publish(t)
	}
	b.StopTimer()
	if delivered == 0 {
		b.Fatal("no deliveries: benchmark not exercising the match path")
	}
}

// BenchmarkBrokerRouteParallel drives the BenchmarkBrokerRoute topology
// from b.RunParallel: every goroutine publishes concurrently from the same
// source broker, so all routes contend on one broker's matching state.
// With the snapshot read path this is lock-free and should scale with cpu
// count; any residual serialization on the route path shows up as flat
// ns/op across -cpu. Run with -cpu 1,2,4,8 to record the scaling profile —
// cmd/benchcheck keys every cpu count separately (".../subs=1000-8"), so
// the nightly multi-core lane guards each level on its own baseline. The
// 1-vCPU historical-CI numbers stay comparable to BenchmarkBrokerRoute's
// indexed mode (same topology, same match work, one publisher).
func BenchmarkBrokerRouteParallel(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			benchBrokerRouteParallel(b, n)
		})
	}
}

func benchBrokerRouteParallel(b *testing.B, nSubs int) {
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 1); err != nil {
		b.Fatal(err)
	}
	net, err := pubsub.NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	src, _ := net.Broker(0)
	dst, _ := net.Broker(1)
	const streams = 64
	streamName := func(s int) string { return fmt.Sprintf("S%02d", s) }
	for s := 0; s < streams; s++ {
		src.Advertise(streamName(s))
	}
	mkFilter := func(attr string, op query.Op, v float64) query.Predicate {
		lit := stream.FloatVal(v)
		return query.Predicate{
			Left:  query.Operand{Col: &query.ColRef{Attr: attr}},
			Op:    op,
			Right: query.Operand{Lit: &lit},
		}
	}
	var delivered atomic.Int64
	for i := 0; i < nSubs; i++ {
		k := float64(i / streams)
		sub := &pubsub.Subscription{
			ID:      fmt.Sprintf("s%d", i),
			Streams: []string{streamName(i % streams)},
			Filters: []query.Predicate{
				mkFilter("a", query.Ge, k),
				mkFilter("a", query.Lt, k+2),
			},
		}
		if i%2 == 0 {
			sub.Attrs = []string{"a", "b"}
		}
		if err := dst.Subscribe(sub, func(*pubsub.Subscription, stream.Tuple) { delivered.Add(1) }); err != nil {
			b.Fatal(err)
		}
	}
	windows := nSubs/streams + 2
	for s := 0; s < streams; s++ {
		src.Publish(stream.Tuple{
			Stream: streamName(s),
			Attrs:  map[string]stream.Value{"a": stream.FloatVal(0), "b": stream.FloatVal(1)},
			Size:   32,
		})
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Offset each goroutine's walk so concurrent publishers spread over
		// different streams and window positions instead of marching in
		// lockstep.
		i := int(seq.Add(1)) * 1000003
		for pb.Next() {
			t := stream.Tuple{
				Stream: streamName(i % streams),
				Attrs: map[string]stream.Value{
					"a": stream.FloatVal(float64(i % windows)),
					"b": stream.FloatVal(1),
				},
				Size: 32,
			}
			src.Publish(t)
			i++
		}
	})
	b.StopTimer()
	if delivered.Load() == 0 {
		b.Fatal("no deliveries: benchmark not exercising the match path")
	}
}

// BenchmarkBrokerRouteSelectivity measures attribute-level candidate
// pruning (interval-stabbing candidate selection) at controlled matching
// fractions: 10k subscriptions on ONE stream (so the posting list bounds
// nothing and candidate selection is the whole game), each with a
// half-open window filter [i, i+w) whose width w sets the fraction of the
// population a tuple matches (0.1%, 1%, 10%). Run with -benchmem: the
// route path is also the allocation hot path.
func BenchmarkBrokerRouteSelectivity(b *testing.B) {
	const nSubs = 10000
	for _, sel := range []struct {
		name  string
		width int
	}{{"sel=0.1pct", 10}, {"sel=1pct", 100}, {"sel=10pct", 1000}} {
		b.Run("pruned/"+sel.name, func(b *testing.B) {
			benchBrokerRouteSelectivity(b, nSubs, sel.width)
		})
	}
}

func benchBrokerRouteSelectivity(b *testing.B, nSubs, width int) {
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 1); err != nil {
		b.Fatal(err)
	}
	net, err := pubsub.NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	src, _ := net.Broker(0)
	dst, _ := net.Broker(1)
	src.Advertise("S")
	mkFilter := func(op query.Op, v float64) query.Predicate {
		lit := stream.FloatVal(v)
		return query.Predicate{
			Left:  query.Operand{Col: &query.ColRef{Attr: "a"}},
			Op:    op,
			Right: query.Operand{Lit: &lit},
		}
	}
	delivered := 0
	for i := 0; i < nSubs; i++ {
		// Equal-width shifted windows [i, i+w): no subscription covers
		// another, so all N propagate; a tuple value hits ~w of them.
		k := float64(i)
		sub := &pubsub.Subscription{
			ID:      fmt.Sprintf("s%d", i),
			Streams: []string{"S"},
			Filters: []query.Predicate{mkFilter(query.Ge, k), mkFilter(query.Lt, k+float64(width))},
		}
		if i%2 == 0 {
			sub.Attrs = []string{"a", "b"}
		}
		if err := dst.Subscribe(sub, func(*pubsub.Subscription, stream.Tuple) { delivered++ }); err != nil {
			b.Fatal(err)
		}
	}
	// Warm-up: build the lazy prune indexes before timing (see
	// benchBrokerRoute).
	src.Publish(stream.Tuple{
		Stream: "S",
		Attrs:  map[string]stream.Value{"a": stream.FloatVal(0), "b": stream.FloatVal(1)},
		Size:   32,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := stream.Tuple{
			Stream: "S",
			Attrs: map[string]stream.Value{
				"a": stream.FloatVal(float64(i % nSubs)),
				"b": stream.FloatVal(1),
			},
			Size: 32,
		}
		src.Publish(t)
	}
	b.StopTimer()
	if delivered == 0 {
		b.Fatal("no deliveries: benchmark not exercising the match path")
	}
}

// BenchmarkBrokerChurn measures the routing-state lifecycle cost — the
// control-path work a dynamic workload pays per subscription change. Each
// operation is one Subscribe (propagation + recording at both brokers) plus
// one Unsubscribe (retraction along the path, with the un-suppression scan
// over the surviving population) against a broker pair preloaded with N
// stable subscriptions over 64 streams.
func BenchmarkBrokerChurn(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			benchBrokerChurn(b, n)
		})
	}
}

func benchBrokerChurn(b *testing.B, nSubs int) {
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 1); err != nil {
		b.Fatal(err)
	}
	net, err := pubsub.NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	src, _ := net.Broker(0)
	dst, _ := net.Broker(1)
	const streams = 64
	streamName := func(s int) string { return fmt.Sprintf("S%02d", s) }
	for s := 0; s < streams; s++ {
		src.Advertise(streamName(s))
	}
	mkFilter := func(op query.Op, v float64) query.Predicate {
		lit := stream.FloatVal(v)
		return query.Predicate{
			Left:  query.Operand{Col: &query.ColRef{Attr: "a"}},
			Op:    op,
			Right: query.Operand{Lit: &lit},
		}
	}
	// Stable population: pairwise non-covering window filters, so every
	// subscription propagates and stays recorded at the publisher.
	for i := 0; i < nSubs; i++ {
		k := float64(i / streams)
		sub := &pubsub.Subscription{
			ID:      fmt.Sprintf("s%d", i),
			Streams: []string{streamName(i % streams)},
			Filters: []query.Predicate{mkFilter(query.Ge, k), mkFilter(query.Lt, k+2)},
		}
		if err := dst.Subscribe(sub, func(*pubsub.Subscription, stream.Tuple) {}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A window beyond the stable population: covered by nothing,
		// covering nothing.
		k := float64(nSubs/streams + 10 + i%7)
		sub := &pubsub.Subscription{
			ID:      "churn",
			Streams: []string{streamName(i % streams)},
			Filters: []query.Predicate{mkFilter(query.Ge, k), mkFilter(query.Lt, k+2)},
		}
		if err := dst.Subscribe(sub, func(*pubsub.Subscription, stream.Tuple) {}); err != nil {
			b.Fatal(err)
		}
		dst.Unsubscribe("churn")
	}
	b.StopTimer()
	if remote, _ := src.RoutingStateSize(); remote != nSubs {
		b.Fatalf("publisher records %d subscriptions after churn, want %d", remote, nSubs)
	}
}

// BenchmarkBrokerAdvertChurn measures the teardown-lifecycle cost of one
// stream register/unregister cycle against a broker pair preloaded with N
// stable subscriptions on OTHER streams. Each operation is one Unadvertise
// (the withdrawal flood prunes the churned stream's 32 subscription records
// at the publisher and clears the subscribers' propagation marks, with
// covered-by re-decision) plus one Advertise (the re-advert replays those
// 32 subscriptions toward the publisher, which re-records them). The
// posting-list-driven prune and replay touch only the churned stream's
// subscriptions, so the cycle cost scales with that stream's population,
// not with the stable one.
func BenchmarkBrokerAdvertChurn(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			benchBrokerAdvertChurn(b, n)
		})
	}
}

func benchBrokerAdvertChurn(b *testing.B, nSubs int) {
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 1); err != nil {
		b.Fatal(err)
	}
	net, err := pubsub.NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	src, _ := net.Broker(0)
	dst, _ := net.Broker(1)
	const streams = 64
	const churnSubs = 32
	streamName := func(s int) string { return fmt.Sprintf("S%02d", s) }
	for s := 0; s < streams; s++ {
		src.Advertise(streamName(s))
	}
	src.Advertise("C")
	mkFilter := func(op query.Op, v float64) query.Predicate {
		lit := stream.FloatVal(v)
		return query.Predicate{
			Left:  query.Operand{Col: &query.ColRef{Attr: "a"}},
			Op:    op,
			Right: query.Operand{Lit: &lit},
		}
	}
	// Stable population on the 64 side streams, plus churnSubs
	// subscriptions on the churned stream C — all pairwise non-covering
	// window filters, so everything propagates and stays recorded.
	for i := 0; i < nSubs; i++ {
		k := float64(i / streams)
		sub := &pubsub.Subscription{
			ID:      fmt.Sprintf("s%d", i),
			Streams: []string{streamName(i % streams)},
			Filters: []query.Predicate{mkFilter(query.Ge, k), mkFilter(query.Lt, k+2)},
		}
		if err := dst.Subscribe(sub, func(*pubsub.Subscription, stream.Tuple) {}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < churnSubs; i++ {
		k := float64(i)
		sub := &pubsub.Subscription{
			ID:      fmt.Sprintf("c%d", i),
			Streams: []string{"C"},
			Filters: []query.Predicate{mkFilter(query.Ge, k), mkFilter(query.Lt, k+2)},
		}
		if err := dst.Subscribe(sub, func(*pubsub.Subscription, stream.Tuple) {}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Unadvertise("C")
		src.Advertise("C")
	}
	b.StopTimer()
	if remote, _ := src.RoutingStateSize(); remote != nSubs+churnSubs {
		b.Fatalf("publisher records %d subscriptions after advert churn, want %d", remote, nSubs+churnSubs)
	}
}

// BenchmarkFig6RunningTimeMedium reruns the Fig 6 experiment at
// ScaleMedium (4000 substreams / 96 processors) — the configuration the
// nightly workflow sweeps. One iteration is a full multi-minute sweep, so
// the benchmark skips unless COSMOS_BENCH_MEDIUM is set; the nightly bench
// job sets it and guards the result against BENCH_BASELINE.json, which is
// where the promoted ScaleMedium numbers live.
func BenchmarkFig6RunningTimeMedium(b *testing.B) {
	if os.Getenv("COSMOS_BENCH_MEDIUM") == "" {
		b.Skip("set COSMOS_BENCH_MEDIUM=1 (nightly bench job) to run the ScaleMedium sweep")
	}
	w, err := sim.NewWorld(sim.ConfigFor(sim.ScaleMedium))
	if err != nil {
		b.Fatalf("NewWorld: %v", err)
	}
	var cost, times *metrics.Table
	for i := 0; i < b.N; i++ {
		cost, times, err = w.Fig6(sim.ExperimentOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	cen := lastOf(cost, "Centralized")
	b.ReportMetric(lastOf(cost, "Naive")/cen, "naive/cen")
	b.ReportMetric(lastOf(cost, "Greedy")/cen, "greedy/cen")
	b.ReportMetric(lastOf(cost, "Hierarchical")/cen, "hier/cen")
	b.ReportMetric(lastOf(times, "Cen.Total"), "cen-ms")
	b.ReportMetric(lastOf(times, "Hie.Total"), "hie-total-ms")
	b.ReportMetric(lastOf(times, "Hie.Response"), "hie-resp-ms")
}

// BenchmarkAblationOverlapEdges quantifies the overlap-edge model component
// (§3.1.2): mapping quality with and without query-query edges.
func BenchmarkAblationOverlapEdges(b *testing.B) {
	w := benchWorld(b)
	wl, err := w.GenerateWorkload(400)
	if err != nil {
		b.Fatal(err)
	}
	var withCost, withoutCost float64
	for i := 0; i < b.N; i++ {
		qg, ng, err := w.GlobalGraphs(wl)
		if err != nil {
			b.Fatal(err)
		}
		m := mapping.NewMapper(qg, ng, mapping.Options{})
		a, err := m.Map()
		if err != nil {
			b.Fatal(err)
		}
		withCost = w.WeightedCommCost(wl, sim.PlacementFromAssignment(qg, ng, a))

		qg2, ng2, err := w.GlobalGraphs(wl)
		if err != nil {
			b.Fatal(err)
		}
		qg2.DropOverlapEdges()
		m2 := mapping.NewMapper(qg2, ng2, mapping.Options{})
		a2, err := m2.Map()
		if err != nil {
			b.Fatal(err)
		}
		withoutCost = w.WeightedCommCost(wl, sim.PlacementFromAssignment(qg2, ng2, a2))
	}
	b.ReportMetric(withoutCost/withCost, "noOverlap/withOverlap")
}

// BenchmarkAblationAlpha sweeps the load-imbalance slack α of Eqn 3.1.
func BenchmarkAblationAlpha(b *testing.B) {
	w := benchWorld(b)
	wl, err := w.GenerateWorkload(400)
	if err != nil {
		b.Fatal(err)
	}
	for _, alpha := range []float64{0.02, 0.1, 0.5} {
		b.Run(formatAlpha(alpha), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				qg, ng, err := w.GlobalGraphs(wl)
				if err != nil {
					b.Fatal(err)
				}
				m := mapping.NewMapper(qg, ng, mapping.Options{Alpha: alpha})
				a, err := m.Map()
				if err != nil {
					b.Fatal(err)
				}
				cost = w.WeightedCommCost(wl, sim.PlacementFromAssignment(qg, ng, a))
			}
			b.ReportMetric(cost, "comm-cost")
		})
	}
}

// BenchmarkAblationAlg3Heuristics compares Algorithm 3's benefit-slack and
// flow-fraction heuristics against a degenerate configuration.
func BenchmarkAblationAlg3Heuristics(b *testing.B) {
	w := benchWorld(b)
	wl, err := w.GenerateWorkload(400)
	if err != nil {
		b.Fatal(err)
	}
	qg, ng, err := w.GlobalGraphs(wl)
	if err != nil {
		b.Fatal(err)
	}
	m := mapping.NewMapper(qg, ng, mapping.Options{})
	base, err := m.Greedy()
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		opts adapt.Options
	}{
		{"paper-x10-f90", adapt.Options{BenefitSlackPct: 10, FlowFraction: 0.9}},
		{"greedy-x100", adapt.Options{BenefitSlackPct: 100, FlowFraction: 0.9}},
		{"loose-f50", adapt.Options{BenefitSlackPct: 10, FlowFraction: 0.5}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var res *adapt.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = adapt.Rebalance(qg, ng, base, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.WECAfter/res.WECBefore, "wecAfter/before")
			b.ReportMetric(float64(res.Migrations), "migrations")
		})
	}
}

// BenchmarkAblationResultSharing compares overlay traffic with and without
// §2.1 result-stream sharing on a small live deployment.
func BenchmarkAblationResultSharing(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		var err error
		with, err = liveTrafficCost(false)
		if err != nil {
			b.Fatal(err)
		}
		without, err = liveTrafficCost(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(without/with, "noShare/share")
}

// BenchmarkWorkloadNewQuery times drawing queries from the zipf interest
// model at paper scale (20,000 substreams).
func BenchmarkWorkloadNewQuery(b *testing.B) {
	w := benchWorld(b)
	cfg := workload.DefaultConfig()
	cfg.Seed = 1
	wl, err := workload.Generate(cfg, w.Sources, w.Processors, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wl.NewQuery(w.Processors)
	}
}

// liveTrafficCost runs a small live deployment through the public API and
// returns the overlay's weighted communication cost.
func liveTrafficCost(disableSharing bool) (float64, error) {
	g, err := topology.Generate(topology.Config{
		TransitDomains:      1,
		TransitNodes:        2,
		StubDomainsPerNode:  2,
		StubNodes:           4,
		InterTransitLatency: [2]float64{50, 100},
		IntraTransitLatency: [2]float64{10, 20},
		TransitStubLatency:  [2]float64{2, 5},
		IntraStubLatency:    [2]float64{1, 2},
		Seed:                3,
	})
	if err != nil {
		return 0, err
	}
	nodes, err := topology.SampleNodes(g, topology.Stub, 8, 3, nil)
	if err != nil {
		return 0, err
	}
	procs, srcs := nodes[:3], nodes[6:]
	m, err := New(g, procs, Config{K: 2, VMax: 10, DisableResultSharing: disableSharing})
	if err != nil {
		return 0, err
	}
	tcfg := trace.Config{Stations: 10, Deployments: 2, PeriodMillis: 60_000, Seed: 5}
	gen, err := trace.New(tcfg)
	if err != nil {
		return 0, err
	}
	for d := 0; d < 2; d++ {
		err := m.RegisterStream(StreamDef{
			Name:             trace.StreamName(d),
			Schema:           trace.Schema(),
			Source:           srcs[d],
			Substreams:       5,
			RatePerSubstream: 1,
		})
		if err != nil {
			return 0, err
		}
	}
	for i := 0; i < 16; i++ {
		cql := fmt.Sprintf(`SELECT A.snowHeight, B.snowHeight, A.timestamp
			FROM %s [Range %d Minutes] A, %s [Now] B
			WHERE A.snowHeight > B.snowHeight AND A.snowHeight > %d`,
			trace.StreamName(0), 5+5*(i%3), trace.StreamName(1), 20+5*(i%4))
		if _, err := m.Submit(cql, procs[i%len(procs)], nil); err != nil {
			return 0, err
		}
	}
	if err := m.Start(); err != nil {
		return 0, err
	}
	for t := 0; t < 20; t++ {
		for _, r := range gen.Next() {
			if err := m.Publish(r); err != nil {
				return 0, err
			}
		}
	}
	return m.Traffic().WeightedCost, nil
}

func formatAlpha(a float64) string {
	switch a {
	case 0.02:
		return "alpha=0.02"
	case 0.1:
		return "alpha=0.10"
	default:
		return "alpha=0.50"
	}
}

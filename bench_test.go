// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4), plus ablations of the design choices DESIGN.md calls out. Each
// figure bench runs the corresponding experiment driver at CI scale and
// reports the headline quantities as custom metrics, so `go test -bench=.`
// reproduces the paper's rows without external tooling.
package cosmos

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/adapt"
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

// routeBench builds the broker-route set-up: a publisher broker advertising
// 64 streams forwards to one neighbor holding nSubs client subscriptions, all
// recorded at the publisher too, so a Publish pays two full matching passes.
// Per stream the subscriptions are strictly increasing half-open windows
// [k, k+2) on attribute a — none covers another, so all of them propagate —
// and every other one projects. It returns the publisher, the subscribing
// neighbor, the i-th tuple of a walk over the streams and window positions,
// and the delivery count. One tuple per stream is published before returning,
// so a short run measures the steady state.
func routeBench(tb testing.TB, nSubs int) (src, dst *pubsub.Broker, tupleAt func(i int) stream.Tuple, delivered *atomic.Int64) {
	tb.Helper()
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 1); err != nil {
		tb.Fatal(err)
	}
	net, err := pubsub.NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1})
	if err != nil {
		tb.Fatal(err)
	}
	src, _ = net.Broker(0)
	dst, _ = net.Broker(1)
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
	delivered = new(atomic.Int64)
	for i := 0; i < nSubs; i++ {
		k := float64(i / streams)
		sub := &pubsub.Subscription{
			ID:      fmt.Sprintf("s%d", i),
			Streams: []string{streamName(i % streams)},
			Filters: []query.Predicate{mkFilter(query.Ge, k), mkFilter(query.Lt, k+2)},
		}
		if i%2 == 0 {
			sub.Attrs = []string{"a", "b"}
		}
		if err := dst.Subscribe(sub, func(*pubsub.Subscription, stream.Tuple) { delivered.Add(1) }); err != nil {
			tb.Fatal(err)
		}
	}
	windows := nSubs/streams + 2
	tupleAt = func(i int) stream.Tuple {
		return stream.Tuple{
			Stream: streamName(i % streams),
			Attrs: map[string]stream.Value{
				"a": stream.FloatVal(float64(i % windows)),
				"b": stream.FloatVal(1),
			},
			Size: 32,
		}
	}
	for s := 0; s < streams; s++ {
		src.Publish(tupleAt(s))
	}
	return src, dst, tupleAt, delivered
}

// BenchmarkBrokerRouteParallel drives the routeBench set-up from
// b.RunParallel: every goroutine publishes concurrently from the same source
// broker, so all routes contend on one broker's matching state. The route
// path reads a published epoch and takes no broker lock, so ns/op should fall
// with cpu count; any residual serialization shows up as flat ns/op across
// -cpu. Nightly's bench-multicore lane runs it with -cpu 1,2,4,8 and uploads
// the output. It is the one broker microbenchmark kept beside cosmos-bench:
// no workload there has more than two generator goroutines.
func BenchmarkBrokerRouteParallel(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			src, _, tupleAt, delivered := routeBench(b, n)
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Offset each goroutine's walk so concurrent publishers spread
				// over different streams and window positions instead of
				// marching in lockstep.
				i := int(seq.Add(1)) * 1000003
				for pb.Next() {
					src.Publish(tupleAt(i))
					i++
				}
			})
			b.StopTimer()
			if delivered.Load() == 0 {
				b.Fatal("no deliveries: benchmark not exercising the match path")
			}
		})
	}
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

package main

import (
	"fmt"
	"sort"

	cosmos "repro"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/trace"
)

const (
	qmwProcessors  = 16
	qmwDeployments = 8
	qmwStations    = 64
	qmwPeriodMs    = 60_000
	// qmwTracePeriods is how many sampling periods of the sensor trace are
	// generated; publishing cycles through them with fresh timestamps, so
	// the stations' slow drift stays bounded and selectivities stay put.
	qmwTracePeriods = 256
	// qmwWorldSeed fixes the graph and which of its nodes are processors
	// and sources: the deployment is the same on every run, so the
	// coordinator tree is too, and --seed varies the data and the queries.
	qmwWorldSeed = 7
)

// qmwRates scales each deployment's substream rate as the optimizer sees it.
// The factors share no simple sums, so two processors carry equal loads only
// if they hold the same mix of queries: Adapt's diffusion solver fails on a
// cluster of three or five exactly balanced processors (its right-hand side
// is then rounding residue it cannot reduce), and the workload must be one
// nothing fails on.
var qmwRates = [qmwDeployments]float64{0.617, 0.731, 0.859, 0.943, 1.069, 1.187, 1.291, 1.423}

type qmwQuery struct {
	cql   string
	proxy topology.NodeID
}

type qmwInputs struct {
	graph   *topology.Graph
	procs   []topology.NodeID
	sources []topology.NodeID
	tuples  []stream.Tuple
	initial []qmwQuery
	// thresholds[d][attr] are quantiles of the attribute's values in
	// deployment d's trace, so a query's selectivity — and with it the
	// result volume — is a property of the workload, not of the seed.
	thresholds  []map[string][]float64
	nSel, nJoin int // queries drawn so far, by kind
}

// newQmwInputs draws the query_mw inputs: a transit-stub graph with 16
// processors and 8 sources sampled from its stub nodes, a seeded sensor
// trace of 8 deployments x 8 stations, and nQueries CQL queries — three
// quarters [Now] selections, one quarter two-stream [Range 5 Minutes] joins,
// thresholds from small sets so that co-located queries overlap and result
// sharing (§2.1) fires.
func newQmwInputs(seed uint64, nQueries int) (*qmwInputs, error) {
	g, err := topology.Generate(topology.Config{
		TransitDomains: 2, TransitNodes: 2, StubDomainsPerNode: 2, StubNodes: 8,
		InterTransitLatency: [2]float64{50, 100}, IntraTransitLatency: [2]float64{10, 20},
		TransitStubLatency: [2]float64{2, 5}, IntraStubLatency: [2]float64{1, 2},
		Seed: qmwWorldSeed,
	})
	if err != nil {
		return nil, err
	}
	nodes, err := topology.SampleNodes(g, topology.Stub, qmwProcessors+qmwDeployments, qmwWorldSeed+1, nil)
	if err != nil {
		return nil, err
	}
	in := &qmwInputs{graph: g, procs: nodes[:qmwProcessors], sources: nodes[qmwProcessors:]}
	gen, err := trace.New(trace.Config{Stations: qmwStations, Deployments: qmwDeployments, PeriodMillis: qmwPeriodMs, Seed: seed})
	if err != nil {
		return nil, err
	}
	for p := 0; p < qmwTracePeriods; p++ {
		in.tuples = append(in.tuples, gen.Next()...)
	}
	in.thresholds = traceQuantiles(in.tuples)
	for i := 0; i < nQueries; i++ {
		in.initial = append(in.initial, in.draw())
	}
	return in, nil
}

// traceQuantiles reads the threshold sets off the trace: per deployment and
// attribute, the values at fixed quantile levels.
func traceQuantiles(tuples []stream.Tuple) []map[string][]float64 {
	levels := []struct {
		attr string
		qs   []float64
	}{
		{"snowHeight", []float64{0.30, 0.45, 0.60, 0.75, 0.90}}, // selections keep 70%..10%
		{"windSpeed", []float64{0.40, 0.60, 0.80}},
		{"temperature", []float64{0.20, 0.30, 0.40}},
	}
	out := make([]map[string][]float64, qmwDeployments)
	for d := range out {
		out[d] = make(map[string][]float64)
		for _, l := range levels {
			var vals []float64
			for _, t := range tuples {
				if t.Stream == trace.StreamName(d) {
					vals = append(vals, t.Attrs[l.attr].F)
				}
			}
			sort.Float64s(vals)
			for _, q := range l.qs {
				out[d][l.attr] = append(out[d][l.attr], quantile(vals, q))
			}
		}
	}
	return out
}

// draw generates the next query of the model: every fourth a join; stream,
// selectivity level, select list, join partner and proxy all taken
// round-robin. The query set therefore has the same structure on every seed
// — the optimizer sees the same interests, loads and proxies, and places
// them the same way — while the seed, through the trace, sets the data and
// the threshold values in the query texts.
func (in *qmwInputs) draw() qmwQuery {
	n := in.nSel + in.nJoin
	proxy := in.procs[n*7%len(in.procs)]
	if n%4 != 3 {
		k := in.nSel
		in.nSel++
		d := k % qmwDeployments
		th := in.thresholds[d]
		// A projecting query keeps every attribute it filters on: the
		// middleware loses all results of a query that filters on an
		// attribute its select list drops once it is merged with a
		// co-located query (found by this oracle; see README.md), and the
		// workload must be one nothing fails on.
		cols, filter := "station, snowHeight", ""
		if k%3 == 0 {
			cols += ", windSpeed"
			filter = fmt.Sprintf(" AND windSpeed < %.1f", th["windSpeed"][k/24%3])
		}
		if k/8%2 == 0 {
			cols = "*"
		}
		return qmwQuery{fmt.Sprintf("SELECT %s FROM %s [Now] WHERE snowHeight > %.1f%s",
			cols, trace.StreamName(d), th["snowHeight"][k/8%5], filter), proxy}
	}
	// Joins pair the readings two deployments took at the same instant
	// within the window, which keeps the result rate near the input rate.
	k := in.nJoin
	in.nJoin++
	d1 := k % qmwDeployments
	d2 := (d1 + 1 + k/8%(qmwDeployments-1)) % qmwDeployments
	cql := fmt.Sprintf("SELECT S1.*, S2.* FROM %s [Range 5 Minutes] S1, %s [Range 5 Minutes] S2 "+
		"WHERE S1.timestamp = S2.timestamp AND S1.snowHeight > S2.snowHeight AND S1.snowHeight > %.1f AND S2.temperature < %.1f",
		trace.StreamName(d1), trace.StreamName(d2), in.thresholds[d1]["snowHeight"][2+k/8%3], in.thresholds[d2]["temperature"][k/24%3])
	return qmwQuery{cql, proxy}
}

// tuple returns the i-th tuple of the publish sequence: the trace cycled,
// with timestamps that keep rising so windows keep sliding.
func (in *qmwInputs) tuple(i int64) stream.Tuple {
	t := in.tuples[i%int64(len(in.tuples))]
	t.Timestamp = (i/qmwStations + 1) * qmwPeriodMs
	return t
}

// qmw is one started middleware with per-query result counters.
type qmw struct {
	m       *cosmos.Middleware
	counts  []int64
	startMs float64
}

func setupQmw(in *qmwInputs) (*qmw, error) {
	m, err := cosmos.New(in.graph, in.procs, cosmos.Config{K: 2, VMax: 40, Seed: 7})
	if err != nil {
		return nil, err
	}
	for d := 0; d < qmwDeployments; d++ {
		err := m.RegisterStream(cosmos.StreamDef{
			Name: trace.StreamName(d), Schema: trace.Schema(), Source: in.sources[d],
			Substreams: qmwStations / qmwDeployments, RatePerSubstream: qmwRates[d] * 56 * 1000 / qmwPeriodMs,
		})
		if err != nil {
			return nil, err
		}
	}
	q := &qmw{m: m, counts: make([]int64, len(in.initial))}
	for i, iq := range in.initial {
		i := i
		if _, err := m.Submit(iq.cql, iq.proxy, func(stream.Tuple) { q.counts[i]++ }); err != nil {
			return nil, fmt.Errorf("submit %q: %w", iq.cql, err)
		}
	}
	t0 := nowNs()
	if err := m.Start(); err != nil {
		return nil, err
	}
	q.startMs = float64(nowNs()-t0) / 1e6
	return q, nil
}

// runQueryMW: the in-memory middleware end to end — parse, merge, place,
// wire, publish, adapt, cancel. query, engine and the root package's wiring
// do the work and transport does none: the bypass workload for every wire
// optimisation, and the only one that sees parse/merge/rewire cost.
func runQueryMW(ctx *runCtx) error {
	in, err := newQmwInputs(ctx.seed, ctx.scaled(400, 160))
	if err != nil {
		return err
	}
	q, setupS, err := repeatSetup(ctx, func() (*qmw, error) { return setupQmw(in) }, func(*qmw) {})
	if err != nil {
		return err
	}
	ctx.set("setup_s", metrics.Median(setupS), len(setupS))
	ctx.set("heap_mb", heapMB(), 1)
	m := q.m

	// Every call is synchronous, so each figure is a closed loop: publishing
	// as fast as Publish returns is the saturation rate. The first checked
	// tuples are warm-up and the oracle's sample: the per-query counts after
	// them are held against the reference engine (before any Adapt, whose
	// migrations legitimately drop window state).
	checked := int64(ctx.scaled(20000, 2000))
	var published, failed int64
	var pubCallUs []float64 // every Publish call after the warm-up
	publishOne := func() {
		t := in.tuple(published)
		t0 := nowNs()
		err := m.Publish(t)
		t1 := nowNs()
		if published >= checked {
			pubCallUs = append(pubCallUs, float64(t1-t0)/1e3)
		}
		if ctx.trace && published%64 == 0 {
			ctx.tr.call("cosmos.Publish", published, t0, t1)
		}
		if err != nil {
			failed++
		}
		published++
	}
	for published < checked {
		publishOne()
	}
	atCheck := append([]int64(nil), q.counts...)

	// Rounds of a publish segment, a batch of online Submit+Cancel pairs
	// and two Adapt rounds, until the time is spent. The box's speed drifts
	// over seconds (README.md, "Spreads"); phases run one after the other
	// would each take a different stretch of it, interleaved they share it
	// and every figure is a median over rounds spread across the whole run.
	// Before each Adapt a handful of fresh queries replaces the previous
	// round's, as arrivals and departures would between two periodic
	// rounds, so every round has a changed load picture to work on.
	const (
		onlineN  = 50
		adaptN   = 2
		arrivals = 8
	)
	segDur := ctx.dur(0.02) // 400 ms of a 20 s run
	var segRates, submitMs, cancelMs, adaptMs, migrations []float64
	var cpu, tuples, submits, adapts int64
	var resident []*cosmos.QueryHandle
	for end := nowNs() + int64(ctx.dur(0.9)); len(segRates) < 3 || nowNs() < end; {
		c0, t0 := cpuNs(), nowNs()
		var n int64
		for segEnd := t0 + int64(segDur); n%64 != 0 || nowNs() < segEnd; n++ {
			publishOne()
		}
		segRates = append(segRates, float64(n)/(float64(nowNs()-t0)/1e9))
		cpu += cpuNs() - c0
		tuples += n

		for i := 0; i < onlineN; i++ {
			oq := in.draw()
			t0 := nowNs()
			h, err := m.Submit(oq.cql, oq.proxy, func(stream.Tuple) {})
			t1 := nowNs()
			ctx.ops(1, 0)
			if err != nil {
				ctx.ops(0, 1)
				ctx.note("online submit %q: %v", oq.cql, err)
				continue
			}
			submitMs = append(submitMs, float64(t1-t0)/1e6)
			t2 := nowNs()
			err = h.Cancel()
			t3 := nowNs()
			if err != nil {
				ctx.ops(0, 1)
				ctx.note("cancel %s: %v", h.Name, err)
			}
			cancelMs = append(cancelMs, float64(t3-t2)/1e6)
			if ctx.trace {
				ctx.tr.call("cosmos.Submit", submits, t0, t1)
				ctx.tr.call("cosmos.Cancel", submits, t2, t3)
			}
			submits++
		}

		for a := 0; a < adaptN; a++ {
			for _, h := range resident {
				if err := h.Cancel(); err != nil {
					ctx.note("cancel %s: %v", h.Name, err)
				}
			}
			resident = resident[:0]
			for i := 0; i < arrivals; i++ {
				oq := in.draw()
				if h, err := m.Submit(oq.cql, oq.proxy, func(stream.Tuple) {}); err == nil {
					resident = append(resident, h)
				}
			}
			t0 := nowNs()
			mig, err := m.Adapt()
			t1 := nowNs()
			ctx.ops(1, 0)
			if err != nil {
				ctx.ops(0, 1)
				ctx.note("adapt: %v", err)
				continue
			}
			adaptMs = append(adaptMs, float64(t1-t0)/1e6)
			migrations = append(migrations, float64(mig))
			if ctx.trace {
				ctx.tr.call("cosmos.Adapt", adapts, t0, t1)
			}
			adapts++
		}
	}
	ctx.ops(published, failed)
	var results int64
	for _, c := range q.counts {
		results += c
	}
	traffic := m.Traffic()
	stats := m.EngineStats()

	refUs, state, err := qmwReference(ctx, in, checked, atCheck)
	if err != nil {
		return err
	}
	if !ctx.trace {
		ctx.set("latency_p50_ms", metrics.Median(pubCallUs)/1e3, len(pubCallUs))
		ctx.set("throughput_per_s", metrics.Median(segRates), len(segRates))
		return nil
	}

	ctx.set("bench.samples", float64(published), 1)
	ctx.set("bench.cpu_us_per_op", float64(cpu)/1e3/float64(tuples), int(tuples))
	c := countersNow()
	ctx.set("pubsub.routed_tuples", float64(c["pubsub.routed_tuples"]), 1)
	ctx.set("pubsub.local_deliveries", float64(c["pubsub.local_deliveries"]), 1)
	ctx.set("engine.process_us_per_tuple", refUs, int(checked))
	ctx.set("engine.consumed", float64(stats.Consumed), 1)
	ctx.set("engine.emitted", float64(stats.Emitted), 1)
	ctx.set("engine.dropped", float64(stats.Dropped), 1)
	if stats.Consumed > 0 {
		ctx.set("engine.emit_ratio", float64(stats.Emitted)/float64(stats.Consumed), int(stats.Consumed))
	}
	ctx.set("engine.state_tuples", float64(state), 1)
	ctx.set("cosmos.publish_call_us", metrics.Median(pubCallUs), len(pubCallUs))
	ctx.set("cosmos.submit_p50_ms", metrics.Median(submitMs), len(submitMs))
	ctx.set("cosmos.start_ms", q.startMs, 1)
	ctx.set("cosmos.cancel_p50_ms", metrics.Median(cancelMs), len(cancelMs))
	ctx.set("cosmos.results_per_tuple", float64(results)/float64(published), int(published))
	ctx.set("cosmos.adapt_ms", metrics.Median(adaptMs), len(adaptMs))
	ctx.set("cosmos.migrations_per_adapt", metrics.Mean(migrations), len(migrations))
	ctx.set("cosmos.traffic_data_bytes_per_tuple", traffic.DataBytes/float64(published), int(published))
	ctx.set("cosmos.traffic_weighted_cost", traffic.WeightedCost, 1)
	if v, ok := tailQuantile(sortedCopy(submitMs), 0.99); ok {
		ctx.set("tail.submit_p99_ms", v, len(submitMs))
	}
	return qmwMicro(ctx, in)
}

// qmwReference replays the first `checked` tuples through one standalone
// engine.Engine holding every initial query unmerged, and holds the
// middleware's per-query result counts against it: placement, merging into
// superset queries, early filtering in the Pub/Sub and the residual split
// must not change what a user receives. It returns the engine's time per
// tuple and its buffered state.
func qmwReference(ctx *runCtx, in *qmwInputs, checked int64, got []int64) (usPerTuple float64, state int, err error) {
	eng := engine.New()
	want := make([]int64, len(in.initial))
	for i, iq := range in.initial {
		i := i
		pq, err := query.Parse(iq.cql)
		if err != nil {
			return 0, 0, err
		}
		pq.Name = fmt.Sprintf("ref%d", i)
		if err := eng.AddQuery(pq, "ref", func(stream.Tuple) { want[i]++ }); err != nil {
			return 0, 0, err
		}
	}
	t0 := nowNs()
	for k := int64(0); k < checked; k++ {
		t := in.tuple(k)
		t.Size = 56
		eng.Process(t)
	}
	usPerTuple = float64(nowNs()-t0) / 1e3 / float64(checked)
	for _, name := range eng.QueryNames() {
		state += eng.QueryState(name)
	}
	if got == nil {
		ctx.failf("the publish phase never reached the %d checked tuples", checked)
		return usPerTuple, state, nil
	}
	var bad int
	for i := range want {
		if got[i] != want[i] {
			if bad < 3 {
				ctx.note("query %d (%s): %d results, reference engine says %d", i, in.initial[i].cql, got[i], want[i])
			}
			bad++
		}
	}
	ctx.ops(int64(len(want)), int64(bad))
	if bad > 0 {
		ctx.failf("%d of %d queries disagree with the unmerged reference engine", bad, len(want))
	}
	return usPerTuple, state, nil
}

// qmwMicro times the query layer alone on the workload's queries.
func qmwMicro(ctx *runCtx, in *qmwInputs) error {
	asts := make([]*query.Query, 0, len(in.initial))
	t0 := nowNs()
	for i, iq := range in.initial {
		q, err := query.Parse(iq.cql)
		if err != nil {
			return err
		}
		q.Name = fmt.Sprintf("m%d", i)
		asts = append(asts, q)
	}
	ctx.set("query.parse_us", float64(nowNs()-t0)/1e3/float64(len(asts)), len(asts))
	t0 = nowNs()
	merged, left := query.MergeAll(asts)
	ctx.set("query.merge_all_ms", float64(nowNs()-t0)/1e6, len(merged)+len(left))
	return nil
}

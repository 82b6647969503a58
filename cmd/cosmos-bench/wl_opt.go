package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/querygraph"
	"repro/internal/sim"
	"repro/internal/workload"
)

// optInserts is how many online insertions (and removals) one round makes
// on top of the distributed workload.
const optInserts = 200

type optWorld struct {
	world *sim.World
	wl    *workload.Workload
	tree  *hierarchy.Tree
}

func optTree(w *sim.World) (*hierarchy.Tree, error) {
	return hierarchy.Build(w.Oracle, w.Processors, nil, hierarchy.Config{K: 3, VMax: 40, Seed: 7})
}

// setupOpt builds the simulated world of the paper's §4.1 at CI scale (16
// processors, 8 sources, 6000 substreams), draws the query workload, and
// builds the coordinator tree. The seed drives the substream placement and
// every query; the world itself — graph, source and processor nodes — is the
// scale's own, so the coordinator tree is the same tree on every seed and
// the optimizer's times vary with the queries alone.
func setupOpt(seed uint64, nQueries int) (*optWorld, error) {
	cfg := sim.ConfigFor(sim.ScaleCI)
	w, err := sim.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	wc := cfg.Workload
	wc.Seed = seed
	wl, err := workload.Generate(wc, w.Sources, w.Processors, nQueries)
	if err != nil {
		return nil, err
	}
	tree, err := optTree(w)
	if err != nil {
		return nil, err
	}
	return &optWorld{world: w, wl: wl, tree: tree}, nil
}

// runOptPlace: the hierarchical optimizer as the batch job it is — rounds of
// Build, Distribute of the whole workload, online Insert, Adapt, Remove.
// Nothing else exercises hierarchy, querygraph, mapping and netgraph at
// scale, and the placement-quality ratio catches a speed-up bought with
// worse placements.
func runOptPlace(ctx *runCtx) error {
	nQueries := ctx.scaled(2000, 100)
	inserts := ctx.scaled(optInserts, 10)
	o, setupS, err := repeatSetup(ctx, func() (*optWorld, error) { return setupOpt(ctx.seed, nQueries) }, func(*optWorld) {})
	if err != nil {
		return err
	}
	ctx.set("setup_s", metrics.Median(setupS), len(setupS))
	ctx.set("heap_mb", heapMB(), 1)
	w, wl := o.world, o.wl
	naive := w.WeightedCommCost(wl, sim.NaivePlacement(wl))

	var buildMs, distMs, respMs, totalMs, adaptMs, insertUs, removeUs, adaptMig, ratios []float64
	var placed int64
	span := func(name string, id, t0, t1 int64) {
		if ctx.trace {
			ctx.tr.call(name, id, t0, t1)
		}
	}
	cpu0 := cpuNs()
	tree := o.tree
	for round, end := int64(0), nowNs()+int64(ctx.dur(0.9)); round < 2 || nowNs() < end; round++ {
		if round > 0 {
			t0 := nowNs()
			if tree, err = optTree(w); err != nil {
				return err
			}
			buildMs = append(buildMs, float64(nowNs()-t0)/1e6)
			span("hierarchy.Build", round, t0, nowNs())
		}
		t0 := nowNs()
		rep, err := tree.Distribute(wl.Queries, wl.SubRates, wl.SourceOfSub)
		t1 := nowNs()
		ctx.ops(int64(len(wl.Queries)), 0)
		if err != nil {
			return fmt.Errorf("distribute: %w", err)
		}
		span("hierarchy.Distribute", round, t0, t1)
		distMs = append(distMs, float64(t1-t0)/1e6)
		respMs = append(respMs, float64(rep.ResponseTime)/1e6)
		totalMs = append(totalMs, float64(rep.TotalTime)/1e6)
		placement := tree.Placement()
		if missing := len(wl.Queries) - len(placement); missing != 0 {
			ctx.ops(0, int64(missing))
			ctx.note("round %d: %d of %d queries unplaced after Distribute", round, missing, len(wl.Queries))
		}
		placed += int64(len(placement))
		ratios = append(ratios, w.WeightedCommCost(wl, sim.Placement(placement))/naive)

		// Online insertions of fresh queries from the same model, then
		// one adaptation round, then their removal.
		fresh := make([]querygraph.QueryInfo, inserts)
		for i := range fresh {
			fresh[i] = wl.NewQuery(w.Processors)
		}
		t0 = nowNs()
		for i, q := range fresh {
			a := nowNs()
			_, err := tree.Insert(q)
			ctx.ops(1, 0)
			if err != nil {
				ctx.ops(0, 1)
				ctx.note("insert %s: %v", q.Name, err)
			}
			span("hierarchy.Insert", round*int64(inserts)+int64(i), a, nowNs())
		}
		insertUs = append(insertUs, float64(nowNs()-t0)/1e3/float64(inserts))
		placed += int64(inserts)

		t0 = nowNs()
		arep, err := tree.Adapt(nil)
		t1 = nowNs()
		ctx.ops(1, 0)
		if err != nil {
			return fmt.Errorf("adapt: %w", err)
		}
		span("hierarchy.Adapt", round, t0, t1)
		adaptMs = append(adaptMs, float64(t1-t0)/1e6)
		adaptMig = append(adaptMig, float64(arep.Migrations))

		t0 = nowNs()
		for i, q := range fresh {
			a := nowNs()
			_, ok := tree.Remove(q.Name)
			ctx.ops(1, 0)
			if !ok {
				ctx.ops(0, 1)
				ctx.note("remove %s: query unknown to the tree", q.Name)
			}
			span("hierarchy.Remove", round*int64(inserts)+int64(i), a, nowNs())
		}
		removeUs = append(removeUs, float64(nowNs()-t0)/1e3/float64(inserts))
	}
	cpu := cpuNs() - cpu0

	// Every round distributes the same queries on a fresh tree from the
	// same seed: the placement quality must repeat bit for bit, and the
	// hierarchical placement must beat placing every query at its proxy.
	for _, r := range ratios[1:] {
		if math.Float64bits(r) != math.Float64bits(ratios[0]) {
			ctx.failf("placement cost ratio differs between two distributions of one seed: %v vs %v", ratios[0], r)
			break
		}
	}
	if ratios[0] >= 1 {
		ctx.failf("hierarchical placement costs %.3f of the naive placement", ratios[0])
	}

	if !ctx.trace {
		ctx.set("latency_p50_ms", metrics.Median(distMs), len(distMs))
		ctx.set("throughput_per_s", 1e6/metrics.Median(insertUs), len(insertUs)*inserts)
		return nil
	}
	ctx.set("bench.samples", float64(placed), 1)
	ctx.set("bench.cpu_us_per_op", float64(cpu)/1e3/float64(placed), int(placed))
	ctx.set("hierarchy.build_ms", metrics.Median(buildMs), len(buildMs))
	ctx.set("hierarchy.distribute_response_ms", metrics.Median(respMs), len(respMs))
	ctx.set("hierarchy.distribute_total_ms", metrics.Median(totalMs), len(totalMs))
	ctx.set("hierarchy.insert_us", metrics.Median(insertUs), len(insertUs)*inserts)
	ctx.set("hierarchy.remove_us", metrics.Median(removeUs), len(removeUs)*inserts)
	ctx.set("hierarchy.adapt_ms", metrics.Median(adaptMs), len(adaptMs))
	ctx.set("hierarchy.adapt_migrations", metrics.Mean(adaptMig), len(adaptMig))
	ctx.set("sim.placement_cost_ratio", ratios[0], len(ratios))
	return optMicro(ctx, o, tree)
}

// optMicro times the optimizer's parts alone: the root's routing decision,
// the global query graph, and one mapping of the first 400 queries.
func optMicro(ctx *runCtx, o *optWorld, tree *hierarchy.Tree) error {
	w, wl := o.world, o.wl
	// The last round's tree holds the distributed workload.
	ctx.set("sim.max_load_imbalance", w.MaxLoadImbalance(wl, sim.Placement(tree.Placement())), 1)

	const routes = 1000
	probe := make([]querygraph.QueryInfo, routes)
	for i := range probe {
		probe[i] = wl.NewQuery(w.Processors)
	}
	t0 := nowNs()
	for _, q := range probe {
		if _, err := tree.RouteAtRoot(q); err != nil {
			return fmt.Errorf("route at root: %w", err)
		}
	}
	ctx.set("hierarchy.route_at_root_us", float64(nowNs()-t0)/1e3/routes, routes)

	t0 = nowNs()
	if _, _, err := w.GlobalGraphs(wl); err != nil {
		return err
	}
	ctx.set("querygraph.global_graph_ms", float64(nowNs()-t0)/1e6, 1)

	n := 400
	if n > len(wl.Queries) {
		n = len(wl.Queries)
	}
	sub := *wl
	sub.Queries = wl.Queries[:n]
	qg, ng, err := w.GlobalGraphs(&sub)
	if err != nil {
		return err
	}
	t0 = nowNs()
	if _, err := mapping.NewMapper(qg, ng, mapping.Options{}).Map(); err != nil {
		return fmt.Errorf("map: %w", err)
	}
	ctx.set("mapping.map_ms", float64(time.Duration(nowNs()-t0))/1e6, n)
	return nil
}

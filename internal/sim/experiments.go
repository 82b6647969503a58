package sim

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/metrics"
	"repro/internal/querygraph"
	"repro/internal/workload"
)

// ExperimentOptions tunes the figure drivers.
type ExperimentOptions struct {
	// K is the coordinator-tree cluster size parameter (default 4).
	K int
	// VMax is the coarsening budget (default 100).
	VMax int
	// QueryCounts overrides the x-axis of Fig 6 (defaults scale-aware).
	QueryCounts []int
	// Queries is the base query count for Figs 7, 9, 10 (default
	// scale-aware).
	Queries int
	// Rounds is the number of adaptation rounds / arrival intervals.
	Rounds int
	// BatchPerInterval is the number of new queries per interval (Fig 8).
	BatchPerInterval int
}

func (o ExperimentOptions) withDefaults(w *World) ExperimentOptions {
	if o.K == 0 {
		o.K = 4
	}
	if o.VMax == 0 {
		o.VMax = 100
	}
	base := 16 * len(w.Processors)
	if o.Queries == 0 {
		o.Queries = base
	}
	if len(o.QueryCounts) == 0 {
		o.QueryCounts = []int{base / 4, base / 2, base, base * 2}
	}
	if o.Rounds == 0 {
		o.Rounds = 12
	}
	if o.BatchPerInterval == 0 {
		o.BatchPerInterval = o.Queries / 20
	}
	return o
}

func (w *World) newTree(opts ExperimentOptions) (*hierarchy.Tree, error) {
	return hierarchy.Build(w.Oracle, w.Processors, nil, hierarchy.Config{
		K:    opts.K,
		VMax: opts.VMax,
		Seed: w.Cfg.Seed + 7,
	})
}

// Fig6 reproduces Figure 6: initial query distribution quality (a) and
// optimizer running time (b) versus the number of queries, for the
// Centralized, Hierarchical, Greedy and Naive schemes.
func (w *World) Fig6(opts ExperimentOptions) (cost, times *metrics.Table, err error) {
	opts = opts.withDefaults(w)
	cost = &metrics.Table{Title: "Fig 6(a) Weighted Comm. Cost", XLabel: "#queries"}
	times = &metrics.Table{Title: "Fig 6(b) Running time (ms)", XLabel: "#queries"}
	var cen, hier, greedy, naive []float64
	var cenTime, hierTotal, hierResp []float64

	for _, n := range opts.QueryCounts {
		cost.XS = append(cost.XS, fmt.Sprint(n))
		times.XS = append(times.XS, fmt.Sprint(n))
		wl, err := w.GenerateWorkload(n)
		if err != nil {
			return nil, nil, err
		}

		tree, err := w.newTree(opts)
		if err != nil {
			return nil, nil, err
		}
		rep, err := tree.Distribute(wl.Queries, wl.SubRates, wl.SourceOfSub)
		if err != nil {
			return nil, nil, err
		}
		hier = append(hier, w.WeightedCommCost(wl, Placement(tree.Placement())))
		hierResp = append(hierResp, float64(rep.ResponseTime.Milliseconds()))
		hierTotal = append(hierTotal, float64(rep.TotalTime.Milliseconds()))

		start := time.Now()
		cenPlace, _, _, err := w.CentralizedPlacement(wl)
		if err != nil {
			return nil, nil, err
		}
		cenTime = append(cenTime, float64(time.Since(start).Milliseconds()))
		cen = append(cen, w.WeightedCommCost(wl, cenPlace))

		gPlace, err := w.GreedyPlacement(wl)
		if err != nil {
			return nil, nil, err
		}
		greedy = append(greedy, w.WeightedCommCost(wl, gPlace))
		naive = append(naive, w.WeightedCommCost(wl, NaivePlacement(wl)))
	}
	cost.AddSeries("Centralized", cen)
	cost.AddSeries("Hierarchical", hier)
	cost.AddSeries("Greedy", greedy)
	cost.AddSeries("Naive", naive)
	times.AddSeries("Cen.Total", cenTime)
	times.AddSeries("Hie.Total", hierTotal)
	times.AddSeries("Hie.Response", hierResp)
	return cost, times, nil
}

// Fig7 reproduces Figure 7: adapting to inaccurate statistics. Three
// schemes over adaptation rounds: NA-Inaccurate (random start, no
// adaptation), A-Inaccurate (random start, adaptive), A-Accurate (proper
// initial distribution, adaptive).
func (w *World) Fig7(opts ExperimentOptions) (cost, dev *metrics.Table, err error) {
	opts = opts.withDefaults(w)
	cost = &metrics.Table{Title: "Fig 7(a) Comm. cost vs adaptation round", XLabel: "round"}
	dev = &metrics.Table{Title: "Fig 7(b) Load std-dev vs adaptation round", XLabel: "round"}

	wl, err := w.GenerateWorkload(opts.Queries)
	if err != nil {
		return nil, nil, err
	}

	type scheme struct {
		name     string
		random   bool
		adaptive bool
	}
	schemes := []scheme{
		{"NA-Inaccurate", true, false},
		{"A-Inaccurate", true, true},
		{"A-Accurate", false, true},
	}
	for r := 0; r <= opts.Rounds; r++ {
		cost.XS = append(cost.XS, fmt.Sprint(r))
		dev.XS = append(dev.XS, fmt.Sprint(r))
	}
	for _, s := range schemes {
		tree, err := w.newTree(opts)
		if err != nil {
			return nil, nil, err
		}
		if s.random {
			err = tree.DistributeRandom(wl.Queries, wl.SubRates, wl.SourceOfSub, 99)
		} else {
			_, err = tree.Distribute(wl.Queries, wl.SubRates, wl.SourceOfSub)
		}
		if err != nil {
			return nil, nil, err
		}
		var cs, ds []float64
		record := func() {
			p := Placement(tree.Placement())
			cs = append(cs, w.WeightedCommCost(wl, p))
			ds = append(ds, w.LoadStdDev(wl, p, nil))
		}
		record()
		for r := 0; r < opts.Rounds; r++ {
			if s.adaptive {
				if _, err := tree.Adapt(nil); err != nil {
					return nil, nil, err
				}
			}
			record()
		}
		cost.AddSeries(s.name, cs)
		dev.AddSeries(s.name, ds)
	}
	return cost, dev, nil
}

// Fig8 reproduces Figure 8: new queries arrive in batches; schemes Random
// (random allocation of new queries), Online (online insertion), and
// Online-Adaptive (online insertion plus adaptation each interval).
func (w *World) Fig8(opts ExperimentOptions) (cost, dev *metrics.Table, err error) {
	opts = opts.withDefaults(w)
	cost = &metrics.Table{Title: "Fig 8(a) Comm. cost vs time", XLabel: "interval"}
	dev = &metrics.Table{Title: "Fig 8(b) Load std-dev vs time", XLabel: "interval"}
	intervals := opts.Rounds
	for r := 0; r <= intervals; r++ {
		cost.XS = append(cost.XS, fmt.Sprint(r))
		dev.XS = append(dev.XS, fmt.Sprint(r))
	}

	type scheme struct {
		name     string
		random   bool
		adaptive bool
	}
	schemes := []scheme{
		{"Random", true, false},
		{"Online", false, false},
		{"Online-Adaptive", false, true},
	}
	for _, s := range schemes {
		// Fresh workload per scheme so arrival order matches.
		wl, err := w.GenerateWorkload(opts.Queries)
		if err != nil {
			return nil, nil, err
		}
		tree, err := w.newTree(opts)
		if err != nil {
			return nil, nil, err
		}
		if _, err := tree.Distribute(wl.Queries, wl.SubRates, wl.SourceOfSub); err != nil {
			return nil, nil, err
		}
		rng := rand.New(rand.NewPCG(w.Cfg.Seed+31, 31))
		var cs, ds []float64
		record := func() {
			p := Placement(tree.Placement())
			cs = append(cs, w.WeightedCommCost(wl, p))
			ds = append(ds, w.LoadStdDev(wl, p, nil))
		}
		record()
		for r := 0; r < intervals; r++ {
			for i := 0; i < opts.BatchPerInterval; i++ {
				q := wl.NewQuery(w.Processors)
				wl.Queries = append(wl.Queries, q)
				if s.random {
					proc := w.Processors[rng.IntN(len(w.Processors))]
					if err := tree.PlaceAt(q, proc); err != nil {
						return nil, nil, err
					}
				} else if _, err := tree.Insert(q); err != nil {
					return nil, nil, err
				}
			}
			if s.adaptive {
				if _, err := tree.Adapt(nil); err != nil {
					return nil, nil, err
				}
			}
			record()
		}
		cost.AddSeries(s.name, cs)
		dev.AddSeries(s.name, ds)
	}
	return cost, dev, nil
}

// Fig9 reproduces Figure 9: distribution quality and root-coordinator
// routing throughput versus the cluster size parameter k. Fig 9(b) carries
// two series over the same probe batch: Throughput is the root's routing
// decision alone (RouteAtRoot, the paper's quantity — the root is the
// potential bottleneck), Insert is the whole online insertion down the tree.
func (w *World) Fig9(opts ExperimentOptions, ks []int) (cost, thr *metrics.Table, err error) {
	opts = opts.withDefaults(w)
	if len(ks) == 0 {
		ks = []int{2, 4, 8, 16}
	}
	cost = &metrics.Table{Title: "Fig 9(a) Comm. cost vs cluster size k", XLabel: "k"}
	thr = &metrics.Table{Title: "Fig 9(b) Root throughput (queries/sec) vs k", XLabel: "k"}
	var cs, ts, ins []float64
	wl, err := w.GenerateWorkload(opts.Queries)
	if err != nil {
		return nil, nil, err
	}
	for _, k := range ks {
		cost.XS = append(cost.XS, fmt.Sprint(k))
		thr.XS = append(thr.XS, fmt.Sprint(k))
		o := opts
		o.K = k
		tree, err := w.newTree(o)
		if err != nil {
			return nil, nil, err
		}
		if _, err := tree.Distribute(wl.Queries, wl.SubRates, wl.SourceOfSub); err != nil {
			return nil, nil, err
		}
		cs = append(cs, w.WeightedCommCost(wl, Placement(tree.Placement())))

		// Root routing throughput: time RouteAtRoot over a probe batch.
		probes := make([]querygraph.QueryInfo, 200)
		for i := range probes {
			probes[i] = wl.NewQuery(w.Processors)
		}
		start := time.Now()
		for _, q := range probes {
			if _, err := tree.RouteAtRoot(q); err != nil {
				return nil, nil, err
			}
		}
		ts = append(ts, float64(len(probes))/time.Since(start).Seconds())
		// Only now mutate the tree: the routing loop above must see the
		// graph the distribution left.
		start = time.Now()
		for _, q := range probes {
			if _, err := tree.Insert(q); err != nil {
				return nil, nil, err
			}
		}
		ins = append(ins, float64(len(probes))/time.Since(start).Seconds())
	}
	cost.AddSeries("COSMOS", cs)
	thr.AddSeries("Throughput", ts)
	thr.AddSeries("Insert", ins)
	return cost, thr, nil
}

// Fig10 reproduces Figure 10: stream-rate perturbations ("I" increases,
// "D" decreases 800 random substreams) with three schemes: No-Adaptive,
// Adaptive (hierarchical rounds), and Remapping (centralized re-mapping
// from scratch). It also reports the migration ratio between Remapping and
// Adaptive, which the paper quotes as ≈7×.
func (w *World) Fig10(opts ExperimentOptions) (cost, dev *metrics.Table, migrations map[string]int, err error) {
	opts = opts.withDefaults(w)
	cost = &metrics.Table{Title: "Fig 10(a) Comm. cost under rate perturbation", XLabel: "event"}
	dev = &metrics.Table{Title: "Fig 10(b) Load std-dev under rate perturbation", XLabel: "event"}
	migrations = make(map[string]int)

	pattern := []float64{2, 0.25, 2, 2, 2, 2, 2, 0.25, 0.25, 2} // I D I I I I I D D I
	perturbCount := w.Cfg.Workload.NumSubstreams / 8

	type scheme struct {
		name  string
		mode  string // "none", "adaptive", "remap"
		queue []float64
	}
	schemes := []scheme{
		{name: "No-Adaptive", mode: "none"},
		{name: "Adaptive", mode: "adaptive"},
		{name: "Remapping", mode: "remap"},
	}
	for i := 0; i <= len(pattern); i++ {
		cost.XS = append(cost.XS, fmt.Sprint(i))
		dev.XS = append(dev.XS, fmt.Sprint(i))
	}

	for _, s := range schemes {
		wl, err := w.GenerateWorkload(opts.Queries)
		if err != nil {
			return nil, nil, nil, err
		}
		tree, err := w.newTree(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		if _, err := tree.Distribute(wl.Queries, wl.SubRates, wl.SourceOfSub); err != nil {
			return nil, nil, nil, err
		}
		byName := make(map[string]querygraph.QueryInfo, len(wl.Queries))
		for _, q := range wl.Queries {
			byName[q.Name] = q
		}
		loadOf := func(name string) float64 { return wl.LoadOf(byName[name]) }

		var cs, ds []float64
		record := func() {
			p := Placement(tree.Placement())
			cs = append(cs, w.WeightedCommCost(wl, p))
			ds = append(ds, w.LoadStdDev(wl, p, func(q querygraph.QueryInfo) float64 {
				return wl.LoadOf(q)
			}))
		}
		record()
		for _, factor := range pattern {
			wl.Perturb(perturbCount, factor)
			switch s.mode {
			case "adaptive":
				rep, err := tree.Adapt(loadOf)
				if err != nil {
					return nil, nil, nil, err
				}
				migrations[s.name] += rep.Migrations
			case "remap":
				prev := tree.Placement()
				qs := refreshedQueries(wl)
				if _, err := tree.Distribute(qs, wl.SubRates, wl.SourceOfSub); err != nil {
					return nil, nil, nil, err
				}
				for name, proc := range tree.Placement() {
					if prev[name] != proc {
						migrations[s.name]++
					}
				}
			}
			record()
		}
		cost.AddSeries(s.name, cs)
		dev.AddSeries(s.name, ds)
	}
	return cost, dev, migrations, nil
}

// refreshedQueries returns the workload's queries with loads re-estimated
// under the current (perturbed) rates.
func refreshedQueries(wl *workload.Workload) []querygraph.QueryInfo {
	out := make([]querygraph.QueryInfo, len(wl.Queries))
	for i, q := range wl.Queries {
		q.Load = wl.LoadOf(q)
		out[i] = q
	}
	return out
}

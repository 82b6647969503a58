// Command cosmos-sim regenerates the paper's evaluation figures (§4).
//
// Usage:
//
//	cosmos-sim -fig 6 -scale ci
//	cosmos-sim -fig all -scale medium
//	cosmos-sim -fig 11 -queries 250,1000,4000
//
// Each figure prints as a table of series against the x-axis, mirroring the
// rows the paper plots. Scales: ci (fast, default), medium, paper (the full
// 4096-node configuration — slow on one machine). Fig 11 runs its own
// 30-node prototype at every scale; the scale picks its query counts.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/prototype"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cosmos-sim", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: "+strings.Join(figureNames(), ", ")+", or all")
	scale := fs.String("scale", "ci", "experiment scale: ci, medium, paper")
	k := fs.Int("k", 0, "cluster size parameter (0 = default 4)")
	vmax := fs.Int("vmax", 0, "coarsening budget (0 = default 100)")
	queries := fs.String("queries", "", "comma-separated query counts (overrides scale defaults)")
	rounds := fs.Int("rounds", 0, "adaptation rounds / arrival intervals (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var s sim.Scale
	switch *scale {
	case "ci":
		s = sim.ScaleCI
	case "medium":
		s = sim.ScaleMedium
	case "paper":
		s = sim.ScalePaper
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}

	opts := sim.ExperimentOptions{K: *k, VMax: *vmax, Rounds: *rounds}
	if *queries != "" {
		counts, err := parseInts(*queries)
		if err != nil {
			return err
		}
		opts.QueryCounts = counts
		if len(counts) > 0 {
			opts.Queries = counts[len(counts)-1]
		}
	}

	figs := strings.Split(*fig, ",")
	if *fig == "all" {
		figs = figureNames()
	}
	for _, f := range figs {
		if err := runFig(f, s, opts); err != nil {
			return fmt.Errorf("fig %s: %w", f, err)
		}
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad count %q: %v", p, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// A figure regenerates one of the paper's §4 plots as tables, plus a note
// printed after its timing line.
type figure struct {
	name    string
	onWorld bool // runs on a sim.World at the chosen scale; Fig 11 builds its own prototype testbed
	run     func(s sim.Scale, w *sim.World, opts sim.ExperimentOptions) (tables []*metrics.Table, note string, err error)
}

// figures is every figure -fig accepts, in the order -fig all runs them: the
// flag help, "all" and runFig all read this one list.
var figures = []figure{
	{"6", true, twoTables((*sim.World).Fig6)},
	{"7", true, twoTables((*sim.World).Fig7)},
	{"8", true, twoTables((*sim.World).Fig8)},
	{"9", true, twoTables(func(w *sim.World, o sim.ExperimentOptions) (*metrics.Table, *metrics.Table, error) {
		return w.Fig9(o, nil)
	})},
	{"10", true, runFig10},
	{"11", false, runFig11},
}

func figureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

func twoTables(fig func(*sim.World, sim.ExperimentOptions) (*metrics.Table, *metrics.Table, error)) func(sim.Scale, *sim.World, sim.ExperimentOptions) ([]*metrics.Table, string, error) {
	return func(_ sim.Scale, w *sim.World, opts sim.ExperimentOptions) ([]*metrics.Table, string, error) {
		a, b, err := fig(w, opts)
		return []*metrics.Table{a, b}, "", err
	}
}

func runFig(name string, s sim.Scale, opts sim.ExperimentOptions) error {
	i := slices.IndexFunc(figures, func(f figure) bool { return f.name == name })
	if i < 0 {
		return fmt.Errorf("unknown figure %q", name)
	}
	var w *sim.World
	if figures[i].onWorld {
		var err error
		if w, err = sim.NewWorld(sim.ConfigFor(s)); err != nil {
			return err
		}
	}
	start := time.Now()
	tables, note, err := figures[i].run(s, w, opts)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Write(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	fmt.Printf("(fig %s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	fmt.Print(note)
	return nil
}

func runFig10(_ sim.Scale, w *sim.World, opts sim.ExperimentOptions) ([]*metrics.Table, string, error) {
	a, b, migs, err := w.Fig10(opts)
	if err != nil {
		return nil, "", err
	}
	ratio := float64(migs["Remapping"]) / max(1, float64(migs["Adaptive"]))
	note := fmt.Sprintf("migrations: adaptive=%d remapping=%d (ratio %.1fx; paper reports ~7x)\n\n",
		migs["Adaptive"], migs["Remapping"], ratio)
	return []*metrics.Table{a, b}, note, nil
}

// fig11Queries is Fig 11's x-axis at each scale, when -queries does not set
// it: the paper's 250, 1000 and 4000 queries at paper scale, and at ci the
// 50 and 150 that TestFig11Comparison runs.
var fig11Queries = map[sim.Scale][]int{
	sim.ScaleCI:     {50, 150},
	sim.ScaleMedium: {250, 1000},
	sim.ScalePaper:  {250, 1000, 4000},
}

func runFig11(s sim.Scale, _ *sim.World, opts sim.ExperimentOptions) ([]*metrics.Table, string, error) {
	counts := opts.QueryCounts
	if len(counts) == 0 {
		counts = fig11Queries[s]
	}
	w, err := prototype.NewWorld(30, trace.DefaultConfig(), 3)
	if err != nil {
		return nil, "", err
	}
	cost := &metrics.Table{Title: "Fig 11(a) Normalized comm. cost (over COSMOS)", XLabel: "#queries"}
	times := &metrics.Table{Title: "Fig 11(b) Normalized running time (over max)", XLabel: "#queries"}
	var cCos, cOp, tCos, tOp []float64
	for _, n := range counts {
		cost.XS = append(cost.XS, fmt.Sprint(n))
		times.XS = append(times.XS, fmt.Sprint(n))
		cqs, err := w.GenerateQueries(n, 9)
		if err != nil {
			return nil, "", err
		}
		res, err := w.Run(cqs, 2)
		if err != nil {
			return nil, "", err
		}
		cCos = append(cCos, res.CosmosCost)
		cOp = append(cOp, res.OpCost)
		tCos = append(tCos, float64(res.CosmosTime.Microseconds()))
		tOp = append(tOp, float64(res.OpTime.Microseconds()))
	}
	// Normalize as the paper does: costs over COSMOS, times over the max.
	normCos := make([]float64, len(cCos))
	normOp := make([]float64, len(cCos))
	for i := range cCos {
		normCos[i] = 1
		normOp[i] = cOp[i] / cCos[i]
	}
	maxT := metrics.Max(append(append([]float64(nil), tCos...), tOp...))
	cost.AddSeries("COSMOS", normCos)
	cost.AddSeries("Op placement", normOp)
	times.AddSeries("COSMOS", metrics.Normalize(tCos, maxT))
	times.AddSeries("Op placement", metrics.Normalize(tOp, maxT))
	return []*metrics.Table{cost, times}, "", nil
}

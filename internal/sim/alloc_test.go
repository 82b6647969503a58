package sim

import (
	"runtime"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/workload"
)

// TestDistributeAllocBudget pins the bytes one Tree.Distribute allocates on
// the opt_place benchmark's input at CI scale: 2 000 queries of workload seed
// 11 on the K=3, VMax=40 tree, one worker so the count does not depend on
// scheduling. Bytes, not time, because they repeat where times drift with the
// box. Before the graph builds took their scratch from pools, a Distribute
// allocated 95.3 MB (90.9 MiB). Since coarsening matches on the inverted
// index and only the coarse graphs get edges, twelve runs read 24.1–24.3 MB;
// the budget, 0.35 of 95.3 MB, is 1.37 times the largest.
func TestDistributeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a random share of Puts")
	}
	const budget = 0.35 * 95.3e6
	cfg := ConfigFor(ScaleCI)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wc := cfg.Workload
	wc.Seed = 11
	wl, err := workload.Generate(wc, w.Sources, w.Processors, 2000)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hierarchy.Build(w.Oracle, w.Processors, nil, hierarchy.Config{K: 3, VMax: 40, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	distribute := func() {
		if _, err := tree.Distribute(wl.Queries, wl.SubRates, wl.SourceOfSub); err != nil {
			t.Fatal(err)
		}
	}
	distribute() // warm-up: lazily built network graphs, pooled scratch
	const calls = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		distribute()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("%.1f MB per Distribute (budget %.1f MB)", perCall/1e6, budget/1e6)
	if perCall > budget {
		t.Errorf("one Distribute allocates %.1f MB, over the budget of %.1f MB", perCall/1e6, budget/1e6)
	}
}

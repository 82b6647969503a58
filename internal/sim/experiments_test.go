package sim

import (
	"os"
	"testing"

	"repro/internal/metrics"
)

func ciOpts() ExperimentOptions {
	return ExperimentOptions{
		K:           3,
		VMax:        40,
		QueryCounts: []int{200, 400, 800},
		Queries:     600,
		Rounds:      6,
	}
}

func seriesByName(t *testing.T, tbl *metrics.Table, name string) []float64 {
	t.Helper()
	for _, s := range tbl.Series {
		if s.Name == name {
			return s.Values
		}
	}
	t.Fatalf("series %q not found in %q", name, tbl.Title)
	return nil
}

func last(xs []float64) float64 { return xs[len(xs)-1] }

func TestFig6Shapes(t *testing.T) {
	w, _ := testWorld(t, 1)
	cost, times, err := w.Fig6(ciOpts())
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	_ = cost.Write(os.Stderr)
	_ = times.Write(os.Stderr)

	naive := seriesByName(t, cost, "Naive")
	hier := seriesByName(t, cost, "Hierarchical")
	cen := seriesByName(t, cost, "Centralized")
	for i := range naive {
		if hier[i] >= naive[i] {
			t.Errorf("point %d: hierarchical %.0f not below naive %.0f", i, hier[i], naive[i])
		}
		if cen[i] >= naive[i] {
			t.Errorf("point %d: centralized %.0f not below naive %.0f", i, cen[i], naive[i])
		}
		// Paper: hierarchical tracks centralized closely.
		if hier[i] > cen[i]*1.25 {
			t.Errorf("point %d: hierarchical %.0f more than 25%% above centralized %.0f", i, hier[i], cen[i])
		}
	}
	// Fig 6(b): hierarchical response time well below centralized total.
	cenT := seriesByName(t, times, "Cen.Total")
	resp := seriesByName(t, times, "Hie.Response")
	if last(resp) > last(cenT) {
		t.Errorf("hierarchical response %.0fms not below centralized %.0fms", last(resp), last(cenT))
	}
}

func TestFig7Shapes(t *testing.T) {
	w, _ := testWorld(t, 1)
	cost, dev, err := w.Fig7(ciOpts())
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	_ = cost.Write(os.Stderr)
	_ = dev.Write(os.Stderr)

	na := seriesByName(t, cost, "NA-Inaccurate")
	ai := seriesByName(t, cost, "A-Inaccurate")
	aa := seriesByName(t, cost, "A-Accurate")
	if last(ai) >= last(na) {
		t.Errorf("adaptive-inaccurate %.0f did not improve on non-adaptive %.0f", last(ai), last(na))
	}
	// A-Inaccurate converges toward A-Accurate (within 15%).
	if last(ai) > last(aa)*1.15 {
		t.Errorf("A-Inaccurate %.0f did not converge near A-Accurate %.0f", last(ai), last(aa))
	}
	// Load deviation of the adaptive scheme must improve on round 0.
	aiDev := seriesByName(t, dev, "A-Inaccurate")
	if last(aiDev) >= aiDev[0] {
		t.Errorf("A-Inaccurate load deviation %.3f did not improve on %.3f", last(aiDev), aiDev[0])
	}
}

func TestFig8Shapes(t *testing.T) {
	w, _ := testWorld(t, 1)
	opts := ciOpts()
	opts.Queries = 400
	opts.BatchPerInterval = 40
	cost, dev, err := w.Fig8(opts)
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	_ = cost.Write(os.Stderr)
	_ = dev.Write(os.Stderr)

	random := seriesByName(t, cost, "Random")
	online := seriesByName(t, cost, "Online")
	oa := seriesByName(t, cost, "Online-Adaptive")
	if last(online) >= last(random) {
		t.Errorf("online %.0f not below random %.0f", last(online), last(random))
	}
	if last(oa) >= last(random) {
		t.Errorf("online-adaptive %.0f not below random %.0f", last(oa), last(random))
	}
	// Online-Adaptive keeps load deviation near Online's (the paper
	// shows it strictly below; at CI scale the two are within noise, so
	// assert a 15% band).
	onDev := seriesByName(t, dev, "Online")
	oaDev := seriesByName(t, dev, "Online-Adaptive")
	if last(oaDev) > last(onDev)*1.15 {
		t.Errorf("online-adaptive deviation %.3f above online %.3f", last(oaDev), last(onDev))
	}
}

func TestFig9Shapes(t *testing.T) {
	w, _ := testWorld(t, 1)
	opts := ciOpts()
	opts.Queries = 400
	cost, thr, err := w.Fig9(opts, []int{2, 4, 8})
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	_ = cost.Write(os.Stderr)
	_ = thr.Write(os.Stderr)
	for _, name := range []string{"Throughput", "Insert"} {
		for _, v := range seriesByName(t, thr, name) {
			if v <= 0 {
				t.Errorf("non-positive %s rate %v", name, v)
			}
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	w, _ := testWorld(t, 1)
	opts := ciOpts()
	opts.Queries = 400
	cost, dev, migs, err := w.Fig10(opts)
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	_ = cost.Write(os.Stderr)
	_ = dev.Write(os.Stderr)
	t.Logf("migrations: %v", migs)

	noAd := seriesByName(t, dev, "No-Adaptive")
	ad := seriesByName(t, dev, "Adaptive")
	if last(ad) >= last(noAd) {
		t.Errorf("adaptive deviation %.3f not below no-adaptive %.3f", last(ad), last(noAd))
	}
	if migs["Remapping"] <= migs["Adaptive"] {
		t.Errorf("remapping migrations %d not above adaptive %d", migs["Remapping"], migs["Adaptive"])
	}
}

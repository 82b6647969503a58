package workload

import (
	"testing"

	"repro/internal/topology"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSubstreams = 500
	cfg.SubsPerQueryMin = 10
	cfg.SubsPerQueryMax = 20
	cfg.Groups = 4
	cfg.Seed = 7
	return cfg
}

var (
	testSources = []topology.NodeID{1, 2, 3}
	testProcs   = []topology.NodeID{10, 11, 12, 13}
)

func TestGenerateBasics(t *testing.T) {
	w, err := Generate(testConfig(), testSources, testProcs, 50)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(w.Queries) != 50 {
		t.Fatalf("queries = %d", len(w.Queries))
	}
	cfg := testConfig()
	for _, q := range w.Queries {
		n := q.Interest.Count()
		if n < cfg.SubsPerQueryMin || n > cfg.SubsPerQueryMax {
			t.Errorf("query %s has %d substreams, want [%d,%d]",
				q.Name, n, cfg.SubsPerQueryMin, cfg.SubsPerQueryMax)
		}
		if q.Load <= 0 || q.ResultRate <= 0 {
			t.Errorf("query %s has load=%v result=%v", q.Name, q.Load, q.ResultRate)
		}
		found := false
		for _, p := range testProcs {
			if q.Proxy == p {
				found = true
			}
		}
		if !found {
			t.Errorf("query %s proxied at non-processor %d", q.Name, q.Proxy)
		}
		if g, ok := w.GroupOf[q.Name]; !ok || g < 0 || g >= cfg.Groups {
			t.Errorf("query %s group = %d", q.Name, g)
		}
	}
	for i, rate := range w.SubRates {
		if rate < cfg.RateMin || rate > cfg.RateMax {
			t.Errorf("substream %d rate %v outside band", i, rate)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testConfig(), testSources, testProcs, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig(), testSources, testProcs, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Queries {
		if a.Queries[i].Interest.String() != b.Queries[i].Interest.String() {
			t.Fatalf("query %d interests differ between identical seeds", i)
		}
		if a.Queries[i].Proxy != b.Queries[i].Proxy {
			t.Fatalf("query %d proxies differ", i)
		}
	}
}

func TestGroupsShareMoreThanStrangers(t *testing.T) {
	w, err := Generate(testConfig(), testSources, testProcs, 200)
	if err != nil {
		t.Fatal(err)
	}
	var same, cross float64
	var sameN, crossN int
	words := len(w.Queries[0].Interest.Words())
	ones := make([]float64, 64*words)
	for i := range ones {
		ones[i] = 1
	}
	for i := 0; i < len(w.Queries); i++ {
		for j := i + 1; j < len(w.Queries); j++ {
			qi, qj := w.Queries[i], w.Queries[j]
			ov := qi.Interest.OverlapWeightedSumRange(qj.Interest, ones, 0, words)
			if w.GroupOf[qi.Name] == w.GroupOf[qj.Name] {
				same += ov
				sameN++
			} else {
				cross += ov
				crossN++
			}
		}
	}
	sameAvg, crossAvg := same/float64(sameN), cross/float64(crossN)
	t.Logf("avg overlap: same-group=%.2f cross-group=%.2f", sameAvg, crossAvg)
	if sameAvg <= 1.5*crossAvg {
		t.Errorf("zipf hot spots not clustering: same=%.2f cross=%.2f", sameAvg, crossAvg)
	}
}

func TestPerturb(t *testing.T) {
	w, err := Generate(testConfig(), testSources, testProcs, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), w.SubRates...)
	idxs := w.Perturb(50, 2)
	if len(idxs) != 50 {
		t.Fatalf("perturbed %d substreams", len(idxs))
	}
	changed := 0
	for i := range w.SubRates {
		if w.SubRates[i] != before[i] {
			changed++
		}
	}
	if changed != 50 {
		t.Errorf("%d rates changed, want 50", changed)
	}
	for _, i := range idxs {
		if w.SubRates[i] != before[i]*2 {
			t.Errorf("substream %d rate %v, want %v", i, w.SubRates[i], before[i]*2)
		}
	}
	// Oversized perturbation clamps.
	if got := w.Perturb(10_000, 1); len(got) != len(w.SubRates) {
		t.Errorf("clamped perturb = %d", len(got))
	}
}

func TestLoadOfTracksRates(t *testing.T) {
	w, err := Generate(testConfig(), testSources, testProcs, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := w.Queries[0]
	if got, want := w.LoadOf(q), q.Load; got != want {
		t.Errorf("initial LoadOf = %v, want %v", got, want)
	}
	for i := range w.SubRates {
		w.SubRates[i] *= 2
	}
	if got := w.LoadOf(q); got != 2*q.Load {
		t.Errorf("LoadOf after doubling = %v, want %v", got, 2*q.Load)
	}
}

func TestValidation(t *testing.T) {
	bad := testConfig()
	bad.SubsPerQueryMin = 1000
	if _, err := Generate(bad, testSources, testProcs, 1); err == nil {
		t.Error("oversubscribed config accepted")
	}
	if _, err := Generate(testConfig(), nil, testProcs, 1); err == nil {
		t.Error("empty sources accepted")
	}
}

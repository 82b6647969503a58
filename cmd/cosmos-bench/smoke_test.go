package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkJSONInSync holds BENCHMARK.json at the repo root equal to the
// spec compiled into the benchmark (`cosmos-bench -print-spec`).
func TestBenchmarkJSONInSync(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkSpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := currentSpec(); !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("BENCHMARK.json differs from the compiled spec; regenerate it with `cosmos-bench -print-spec`\n got %+v\nwant %+v", onDisk, want)
	}
}

// TestSpecWithinContract checks the limits the benchmark driver refuses a
// BENCHMARK.json over.
func TestSpecWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	s := currentSpec()
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
	seen := make(map[string]bool)
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside the contract", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s outside the contract", u, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range s.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s: %d characters", w.Name, len(w.Why))
		}
	}
	var setup bool
	for _, m := range s.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s", m.Bound, m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, m := range s.PerLayer {
		check(m.Name, m.Unit)
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at about a
// twentieth of the benchmark's populations and a fraction of a second: each
// oracle must pass, the result must carry exactly the metrics BENCHMARK.json
// names for that mode, and every per-layer metric a workload is listed for
// must have been measured there.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w.Name, 1, 0.3, traced, 0.05, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%q",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			line := contractLine(res)
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, spec names %d", w.Name, traced, len(line.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, s.Name)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, s.Name, m.Value)
				case traced && strings.Contains(s.On, w.Name) && m.N == 0 && !strings.HasPrefix(s.Name, "tail."):
					// Tails are reported only where ten samples lie
					// beyond them, which a smoke run cannot promise.
					t.Errorf("%s: per-layer metric %s was not measured", w.Name, s.Name)
				}
			}
			for name := range res.Metrics {
				if _, ok := specUnits[name]; !ok {
					t.Errorf("%s: metric %s is not in the spec", w.Name, name)
				}
			}
		}
	}
}

func TestCompare(t *testing.T) {
	base := map[string]map[string][]float64{"w": {"latency_p50_ms": {1.00, 1.02, 0.99, 1.01}, "throughput_per_s": {100, 101, 99, 100}}}
	same := map[string]map[string][]float64{"w": {"latency_p50_ms": {1.01, 1.03, 1.00, 1.02}, "throughput_per_s": {99, 100, 101, 100}}}
	slow := map[string]map[string][]float64{"w": {"latency_p50_ms": {1.30, 1.32, 1.29, 1.31}, "throughput_per_s": {100, 101, 99, 100}}}
	noisy := map[string]map[string][]float64{"w": {"latency_p50_ms": {1.0, 1.9, 0.6, 1.4}, "throughput_per_s": {100, 101, 99, 100}}}
	var out strings.Builder
	if code := printComparison(&out, base, same); code != 0 {
		t.Errorf("equal sets compare as %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(&out, base, slow); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a 30%% slower set compares as %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(&out, base, noisy); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a set noisier than the bound compares as %d:\n%s", code, out.String())
	}
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want Python's 2.75 5.5 8.25", q1, q2, q3)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/metrics"
)

// quartiles mirrors Python's statistics.quantiles(values, n=4), the rule
// the benchmark driver takes spreads by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// spreadOf is the run-to-run spread of one metric as a share of its median:
// the interquartile distance where there are at least four runs, the whole
// range for two or three, and unknown (0) for one.
func spreadOf(values []float64) float64 {
	med := metrics.Median(values)
	if med == 0 || len(values) < 2 {
		return 0
	}
	if len(values) >= 4 {
		q1, _, q3 := quartiles(values)
		return (q3 - q1) / med
	}
	s := sortedCopy(values)
	return (s[len(s)-1] - s[0]) / med
}

func loadSet(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSetFile
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string][]float64)
	for _, r := range set.Runs {
		if r.Trace {
			continue // end-to-end metrics come from untraced runs only
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run of %s (seed %d) failed its oracle", path, r.Workload, r.Seed)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for _, s := range endToEnd {
			if m, ok := r.Metrics[s.Name]; ok {
				out[r.Workload][s.Name] = append(out[r.Workload][s.Name], m.Value)
			}
		}
	}
	return out, nil
}

// compareSets prints one row per (workload, end-to-end metric) with both
// medians, how much worse b is than a, and the bound. A pair whose
// run-to-run spread exceeds the bound is unresolved, not unchanged; a
// resolved pair worse than the bound is a regression and the exit code is 1.
func compareSets(w io.Writer, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-bench:", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-bench:", err)
		return 2
	}
	return printComparison(w, a, b)
}

func printComparison(w io.Writer, a, b map[string]map[string][]float64) int {
	var names []string
	for wl := range a {
		if _, ok := b[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-12s %-18s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a(median)", "b(median)", "worse", "spr(a)", "spr(b)", "bound", "verdict")
	for _, wl := range names {
		for _, s := range endToEnd {
			va, vb := a[wl][s.Name], b[wl][s.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := metrics.Median(va), metrics.Median(vb)
			worse := (mb - ma) / ma
			if s.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spreadOf(va), spreadOf(vb)
			verdict := "ok"
			switch {
			case sa > s.Bound || sb > s.Bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > s.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-18s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl, s.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*s.Bound, verdict)
		}
	}
	return code
}

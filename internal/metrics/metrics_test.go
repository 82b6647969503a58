package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStdDev(t *testing.T) {
	cases := []struct {
		xs       []float64
		mean, sd float64
	}{
		{nil, 0, 0},
		{[]float64{5}, 5, 0},
		{[]float64{1, 2, 3, 4}, 2.5, math.Sqrt(1.25)},
		{[]float64{2, 2, 2}, 2, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almost(got, c.mean) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.mean)
		}
		if got := StdDev(c.xs); !almost(got, c.sd) {
			t.Errorf("StdDev(%v) = %v, want %v", c.xs, got, c.sd)
		}
	}
}

func TestMinMaxSumMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %v", got)
	}
	if got := Sum(xs); got != 14 {
		t.Errorf("Sum = %v", got)
	}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %v", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even Median = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty Median = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 8}, 4)
	want := []float64{0.5, 1, 2}
	for i := range want {
		if !almost(out[i], want[i]) {
			t.Errorf("Normalize[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	same := Normalize([]float64{1, 2}, 0)
	if same[0] != 1 || same[1] != 2 {
		t.Errorf("zero-base Normalize changed values: %v", same)
	}
}

func TestTableWrite(t *testing.T) {
	tbl := &Table{Title: "T", XLabel: "x", XS: []string{"1", "2"}}
	tbl.AddSeries("a", []float64{1.5, 2.5})
	tbl.AddSeries("short", []float64{9}) // missing second value
	var b strings.Builder
	if err := tbl.Write(&b); err != nil {
		t.Fatalf("Write: %v", err)
	}
	out := b.String()
	for _, want := range []string{"== T ==", "a", "short", "1.5", "2.5", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestQuickStdDevInvariance(t *testing.T) {
	// StdDev is translation-invariant and non-negative.
	f := func(xs []float64, shift float64) bool {
		if len(xs) == 0 {
			return StdDev(xs) == 0
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true // skip degenerate inputs
			}
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e9 {
			return true
		}
		sd := StdDev(xs)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		return sd >= 0 && math.Abs(StdDev(shifted)-sd) < 1e-6*(1+sd)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

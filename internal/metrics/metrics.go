// Package metrics provides the small statistical helpers the experiment
// harness uses to report results: mean, standard deviation, normalization,
// and fixed-width series printing that mirrors the paper's figures.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs — the load-balance
// metric reported in Figures 7(b), 8(b) and 10(b).
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Normalize returns xs scaled so that base maps to 1. A zero base yields a
// copy of xs unchanged. Used for the normalized plots of Figure 11.
func Normalize(xs []float64, base float64) []float64 {
	out := make([]float64, len(xs))
	if base == 0 {
		copy(out, xs)
		return out
	}
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}

// Median returns the median of xs, averaging the two middle elements for
// even lengths. It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Series is one labelled line of a figure: a name plus y-values aligned with
// a shared x-axis.
type Series struct {
	Name   string
	Values []float64
}

// Table renders rows of series against shared x labels, in the row/column
// style the paper's figures tabulate. It is the single output format used by
// cmd/cosmos-sim and EXPERIMENTS.md.
type Table struct {
	Title  string
	XLabel string
	XS     []string
	Series []Series
}

// AddSeries appends a named series to the table.
func (t *Table) AddSeries(name string, values []float64) {
	t.Series = append(t.Series, Series{Name: name, Values: values})
}

// Write renders the table to w. Missing values (series shorter than XS)
// render as "-".
func (t *Table) Write(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
			return err
		}
	}
	width := len(t.XLabel)
	for _, x := range t.XS {
		if len(x) > width {
			width = len(x)
		}
	}
	header := make([]string, 0, len(t.Series)+1)
	header = append(header, pad(t.XLabel, width))
	for _, s := range t.Series {
		header = append(header, pad(s.Name, 14))
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, "  ")); err != nil {
		return err
	}
	for i, x := range t.XS {
		row := make([]string, 0, len(t.Series)+1)
		row = append(row, pad(x, width))
		for _, s := range t.Series {
			if i < len(s.Values) {
				row = append(row, pad(fmt.Sprintf("%.4g", s.Values[i]), 14))
			} else {
				row = append(row, pad("-", 14))
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, "  ")); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

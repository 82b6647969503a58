package main

import (
	"errors"
	"flag"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestUnknownFigureRejected: a figure the dispatch does not know fails with
// the unknown-figure error, before any world is built. Table 2 is reproduced
// by BenchmarkTable2Mapping, not by this command.
func TestUnknownFigureRejected(t *testing.T) {
	err := run([]string{"-fig", "table2", "-scale", "ci"})
	if err == nil || !strings.Contains(err.Error(), `unknown figure "table2"`) {
		t.Fatalf("run(-fig table2) = %v, want the unknown-figure error", err)
	}
}

// TestHelpNamesOnlyDispatchedFigures: the -fig help names exactly the
// figures runFig dispatches, in the order -fig all runs them.
func TestHelpNamesOnlyDispatchedFigures(t *testing.T) {
	help := usage(t)
	m := regexp.MustCompile(`figure to regenerate: (.*), or all`).FindStringSubmatch(help)
	if m == nil {
		t.Fatalf("no -fig help in:\n%s", help)
	}
	if got := strings.Split(m[1], ", "); !slices.Equal(got, figureNames()) {
		t.Errorf("-fig help names %q, want %q", got, figureNames())
	}
}

// TestEveryFigureRunsAtCIScale: -fig all -scale ci runs every figure of the
// list, and Fig 11 runs the ci query counts, which are not medium's. Fig 11
// used to ignore -scale and always run 250, 1000 and 4000 queries.
func TestEveryFigureRunsAtCIScale(t *testing.T) {
	var err error
	out := captured(t, &os.Stdout, func() { err = run([]string{"-fig", "all", "-scale", "ci"}) })
	if err != nil {
		t.Fatalf("run(-fig all -scale ci) = %v", err)
	}
	for _, name := range figureNames() {
		if !strings.Contains(out, "(fig "+name+" took ") {
			t.Errorf("-fig all -scale ci did not run fig %s:\n%s", name, out)
		}
	}
	ci := fig11Queries[sim.ScaleCI]
	if slices.Equal(ci, fig11Queries[sim.ScaleMedium]) {
		t.Errorf("Fig 11 runs %v queries at both ci and medium scale", ci)
	}
	var want []string
	for _, n := range ci {
		want = append(want, strconv.Itoa(n))
	}
	if got := xAxis(out, "Fig 11(a)"); !slices.Equal(got, want) {
		t.Errorf("Fig 11(a) at ci has x-axis %q, want %q", got, want)
	}
}

// xAxis returns the first column of the rows of the table titled title.
func xAxis(out, title string) []string {
	_, table, ok := strings.Cut(out, "== "+title)
	if !ok {
		return nil
	}
	table, _, _ = strings.Cut(table, "\n\n")
	var xs []string
	for _, row := range strings.Split(table, "\n")[2:] { // title rest, header
		xs = append(xs, strings.Fields(row)[0])
	}
	return xs
}

// usage returns what run prints for -h.
func usage(t *testing.T) string {
	t.Helper()
	var err error
	out := captured(t, &os.Stderr, func() { err = run([]string{"-h"}) })
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	return out
}

// captured returns what fn writes to *f, os.Stdout or os.Stderr, while it
// runs.
func captured(t *testing.T, f **os.File, fn func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := *f
	*f = tmp
	fn()
	*f = saved
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

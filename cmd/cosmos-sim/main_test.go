package main

import (
	"errors"
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
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

// usage returns what run prints for -h.
func usage(t *testing.T) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	err = run([]string{"-h"})
	os.Stderr = stderr
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

package main

import (
	"strings"
	"testing"

	"repro/internal/analysis/checker"
)

// suite is the pinned analyzer set: LINT.md documents exactly these.
var suite = []string{"maporder", "lockdiscipline", "poolescape", "errdrop", "nondeterminism", "deadcode"}

// TestSeededViolationsFail proves the CI lint step fails on new
// violations: the seeded fixture trips every analyzer of the pinned suite
// through the same checker entry point the binary uses.
func TestSeededViolationsFail(t *testing.T) {
	diags, err := checker.Run("", false, checker.Analyzers(), "./testdata/seeded")
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]bool{}
	for _, d := range diags {
		fired[d.Analyzer] = true
	}
	for _, name := range suite {
		if !fired[name] {
			var got []string
			for _, d := range diags {
				got = append(got, d.String())
			}
			t.Errorf("analyzer %s did not fire on the seeded fixture; findings:\n%s",
				name, strings.Join(got, "\n"))
		}
	}
}

// TestCleanFixturePasses asserts the compliant shapes produce zero
// findings — the other half of red-then-green.
func TestCleanFixturePasses(t *testing.T) {
	diags, err := checker.Run("", false, checker.Analyzers(), "./testdata/clean")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding in clean fixture: %s", d)
	}
}

// TestSuiteNames pins the analyzer set.
func TestSuiteNames(t *testing.T) {
	want := suite
	as := checker.Analyzers()
	if len(as) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(as), len(want))
	}
	for i, a := range as {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %s, want %s", i, a.Name, want[i])
		}
	}
}

package checker

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// root is the module root, relative to this package's directory.
const root = "../../.."

// deadcodeFindings runs the suite from dir and returns the deadcode
// findings, as "file:line: message" with the file relative to the module
// root.
func deadcodeFindings(t *testing.T, dir string, tests bool, patterns ...string) []string {
	t.Helper()
	diags, err := Run(dir, tests, Analyzers(), patterns...)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	return render(abs, diags)
}

func render(abs string, diags []analysis.Diagnostic) []string {
	var out []string
	for _, d := range diags {
		if d.Analyzer == "deadcode" {
			rel, _ := filepath.Rel(abs, d.Pos.Filename)
			out = append(out, rel+":"+d.Message)
		}
	}
	return out
}

// canary is the one deadcode finding the seeded fixture carries: every
// entry point below must report it, so none passes by running nothing.
const canary = "cmd/cosmoslint/testdata/seeded/seeded.go:package seeded has no non-test importer"

// TestSameAnswerFromEveryEntryPoint: the reference set is the whole module
// whatever the patterns, so linting one package reports what linting ./...
// reports for it, from the root and from cmd/cosmos-bench (the bench-smoke
// lane) alike, with or without test variants.
func TestSameAnswerFromEveryEntryPoint(t *testing.T) {
	if got := deadcodeFindings(t, root, false, "./..."); len(got) != 0 {
		t.Fatalf("./... has deadcode findings: %v", got)
	}
	for _, c := range []struct {
		name     string
		dir      string
		tests    bool
		patterns []string
	}{
		{"one package", root, false, []string{"./internal/query", "./cmd/cosmoslint/testdata/seeded"}},
		{"one package, -tests", root, true, []string{"./internal/query", "./cmd/cosmoslint/testdata/seeded"}},
		{"from cmd/cosmos-bench", filepath.Join(root, "cmd", "cosmos-bench"), false, []string{"./...", "repro/cmd/cosmoslint/testdata/seeded"}},
	} {
		if got := deadcodeFindings(t, c.dir, c.tests, c.patterns...); !slices.Equal(got, []string{canary}) {
			t.Errorf("%s: deadcode findings %v, want only the seeded canary", c.name, got)
		}
	}
}

// TestTestsModeIgnoresTestReferences: the nightly -tests lane analyzes test
// variants, yet a reference from a _test.go file keeps nothing alive. The
// reference set holds no test file, and a target's own test files are not
// read for references: the deadcode fixture's OnlyTested, called from
// lib_test.go alone, is flagged when lib is loaded with its tests.
func TestTestsModeIgnoresTestReferences(t *testing.T) {
	refs, err := references(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range refs {
		for _, f := range p.Files {
			if name := p.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
				t.Errorf("reference set holds test file %s", name)
			}
		}
	}

	fixture := filepath.Join(root, "internal", "analysis", "deadcode", "testdata", "src")
	targets, err := load.Load(load.Config{Dir: fixture, IncludeTests: true}, "./lib")
	if err != nil {
		t.Fatal(err)
	}
	fixRefs, err := load.Load(load.Config{Dir: fixture}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Check(targets, fixRefs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := "internal/analysis/deadcode/testdata/src/lib/lib.go:OnlyTested has no reference outside tests"
	if got := render(abs, diags); !slices.Contains(got, want) {
		t.Errorf("deadcode findings %v lack %q", got, want)
	}
}

// Package analyzertest is the golden-test harness for cosmoslint
// analyzers, modeled on golang.org/x/tools/go/analysis/analysistest:
// fixture packages live under the analyzer's testdata/ directory (which
// `go build ./...` ignores) and mark each expected finding with a trailing
// comment on the offending line,
//
//	out = append(out, k) // want `map range feeds`
//
// where the backquoted (or double-quoted) text is a regular expression the
// diagnostic message must match; several `// want` expectations on one
// line each need a matching diagnostic. Lines without a want comment must
// produce no diagnostic. Suppression annotations are applied exactly as in
// a real cosmoslint run, so allowlist fixtures assert silence by carrying
// a //lint: annotation and no want comment.
package analyzertest //lint:deadcode golden-fixture harness of every analyzer's test: TestErrDrop, TestLockDiscipline, TestMapOrder, TestNondeterminism, TestPoolEscape and TestDeadcode

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/checker"
	"repro/internal/analysis/load"
)

var wantRE = regexp.MustCompile("// want ((?:[`\"][^`\"]*[`\"]\\s*)+)")
var wantArgRE = regexp.MustCompile("[`\"]([^`\"]*)[`\"]")

// Run loads the fixture package at pattern (a directory path relative to
// the calling test's working directory, e.g. "./testdata/src/a"), applies
// the analyzer, and compares findings against the fixture's want
// comments. A module-wide analyzer gets a pattern over several packages
// ("./testdata/src/..."), which serve as both its targets and its
// reference set, loaded with their test files so that a fixture can show
// a reference from a _test.go file being ignored.
func Run(t *testing.T, a *analysis.Analyzer, pattern string) {
	t.Helper()
	pkgs, err := load.Load(load.Config{IncludeTests: a.RunAll != nil}, pattern)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pattern, err)
	}
	if len(pkgs) == 0 || a.RunAll == nil && len(pkgs) != 1 {
		t.Fatalf("fixture %s matched %d packages", pattern, len(pkgs))
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("fixture %s has type errors: %v", pattern, pkg.TypeErrors)
		}
	}
	diags, err := checker.Check(pkgs, pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	// A test variant shares its base package's files, and so its wants.
	wants := map[key][]*want{}
	for _, pkg := range pkgs {
		w, err := parseWants(pkg)
		if err != nil {
			t.Fatal(err)
		}
		maps.Copy(wants, w)
	}

	matched := map[*want]bool{}
	for _, d := range diags {
		ok := false
		for _, w := range wants[key{d.Pos.Filename, d.Pos.Line}] {
			if !matched[w] && w.re.MatchString(d.Message) {
				matched[w] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !matched[w] {
				t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
			}
		}
	}
}

type key struct {
	file string
	line int
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// parseWants scans the fixture sources (as text: want comments may sit on
// lines the parser attaches elsewhere) for expectations.
func parseWants(pkg *load.Package) (map[key][]*want, error) {
	wants := map[key][]*want{}
	seen := map[string]bool{}
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if seen[name] {
			continue
		}
		seen[name] = true
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		base := filepath.Base(name)
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(arg[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", base, i+1, arg[1], err)
				}
				k := key{name, i + 1}
				wants[k] = append(wants[k], &want{file: base, line: i + 1, re: re})
			}
		}
	}
	return wants, nil
}

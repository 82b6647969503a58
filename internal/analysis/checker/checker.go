// Package checker runs the cosmoslint analyzer suite over loaded packages
// and applies the uniform //lint: suppression filtering. cmd/cosmoslint is
// a thin CLI over Run; tests drive Run directly against fixture packages.
package checker

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/deadcode"
	"repro/internal/analysis/errdrop"
	"repro/internal/analysis/load"
	"repro/internal/analysis/lockdiscipline"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/nondeterminism"
	"repro/internal/analysis/poolescape"
)

// Analyzers returns the full cosmoslint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maporder.Analyzer,
		lockdiscipline.Analyzer,
		poolescape.Analyzer,
		errdrop.Analyzer,
		nondeterminism.Analyzer,
		deadcode.Analyzer,
	}
}

// Run loads patterns (relative to dir) and the reference set, and applies
// analyzers, returning the surviving diagnostics sorted by position.
func Run(dir string, includeTests bool, analyzers []*analysis.Analyzer, patterns ...string) ([]analysis.Diagnostic, error) {
	pkgs, err := load.Load(load.Config{Dir: dir, IncludeTests: includeTests}, patterns...)
	if err != nil {
		return nil, err
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("type errors in %s (fix before linting): %v", pkg.ImportPath, pkg.TypeErrors[0])
		}
	}
	refs, err := references(dir)
	if err != nil {
		return nil, err
	}
	return Check(pkgs, refs, analyzers)
}

// references loads the packages a module-wide analyzer counts uses in:
// every non-test package of the root module and of the cmd/cosmos-bench
// module nested in it. Listing repro/... from inside cmd/cosmos-bench,
// which replaces repro with the root, matches both modules at once.
func references(dir string) ([]*load.Package, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}", "repro")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("locating the root module: %v", err)
	}
	bench := filepath.Join(strings.TrimSpace(string(out)), "cmd", "cosmos-bench")
	return load.Load(load.Config{Dir: bench}, "repro/...")
}

// Check applies analyzers to targets, a module-wide one reading refs as
// well, and returns the unsuppressed diagnostics sorted by position.
// Duplicate findings (the same non-test file analyzed both in a base
// package and its test variant under includeTests) are merged.
func Check(targets, refs []*load.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var all []analysis.Diagnostic
	passes := func(a *analysis.Analyzer, pkgs []*load.Package, keep bool) []*analysis.Pass {
		var ps []*analysis.Pass
		for _, pkg := range pkgs {
			sup := analysis.BuildSuppressions(pkg.Fset, pkg.Files)
			report := func(d analysis.Diagnostic) {
				if keep && !sup.Suppressed(d) {
					all = append(all, d)
				}
			}
			ps = append(ps, analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, report))
		}
		return ps
	}
	for _, a := range analyzers {
		ps := passes(a, targets, true)
		if a.RunAll != nil {
			if err := a.RunAll(ps, passes(a, refs, false)); err != nil {
				return nil, fmt.Errorf("%s: %v", a.Name, err)
			}
			continue
		}
		for _, p := range ps {
			if err := a.Run(p); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, p.Pkg.Path(), err)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	seen := map[string]bool{}
	dedup := all[:0]
	for _, d := range all {
		key := d.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		dedup = append(dedup, d)
	}
	return dedup, nil
}

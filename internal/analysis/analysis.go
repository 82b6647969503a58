package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:
	// suppression annotations. It must be a single lowercase word.
	Name string

	// Doc is the one-paragraph description printed by `cosmoslint -help`
	// and quoted in LINT.md.
	Doc string

	// Run inspects the package presented by pass and reports findings
	// through pass.Reportf. An error aborts the whole cosmoslint run —
	// reserve it for internal failures, not findings.
	Run func(pass *Pass) error

	// RunAll, set instead of Run by a module-wide analyzer, is called once
	// per run. It reports on targets, the packages the run was given, and
	// reads refs, the reference set the checker loads whatever the
	// patterns: every non-test package of the root module and of
	// cmd/cosmos-bench. Reports issued on a ref pass are dropped.
	RunAll func(targets, refs []*Pass) error
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// NewPass assembles a Pass. The report callback receives every diagnostic
// as it is issued (before suppression filtering, which is the checker's
// job).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, report: report}
}

// Reportf issues a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object denoted by ident, consulting both Defs and
// Uses, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// Callee returns the function or method a call names statically, or nil for
// a call through a function value, a conversion or a builtin.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// RootObj resolves the base identifier of an lvalue chain (x, x.f, x[i],
// x[i:j], *x, (x)) to its object, or nil when the chain starts at anything
// else, such as a call.
func (p *Pass) RootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return p.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Suppressions indexes the //lint: annotation comments of one package:
// sup[filename][line] holds the analyzer names suppressed on that line.
type Suppressions map[string]map[int]map[string]bool

// BuildSuppressions scans the comment groups of files for suppression
// annotations. An annotation suppresses findings on the line its comment
// ends on and on the immediately following line, so both the trailing and
// the line-above placements work.
func BuildSuppressions(fset *token.FileSet, files []*ast.File) Suppressions {
	sup := Suppressions{}
	add := func(pos token.Position, names []string) {
		file := sup[pos.Filename]
		if file == nil {
			file = map[int]map[string]bool{}
			sup[pos.Filename] = file
		}
		for _, line := range []int{pos.Line, pos.Line + 1} {
			set := file[line]
			if set == nil {
				set = map[string]bool{}
				file[line] = set
			}
			for _, n := range names {
				set[n] = true
			}
		}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				var spec string
				switch {
				case strings.HasPrefix(text, "lint:"):
					spec = strings.TrimPrefix(text, "lint:")
				case strings.HasPrefix(text, "cosmoslint:ignore "):
					spec = strings.TrimPrefix(text, "cosmoslint:ignore ")
				default:
					continue
				}
				fields := strings.Fields(spec)
				if len(fields) == 0 {
					continue
				}
				names := strings.Split(fields[0], ",")
				add(fset.Position(c.End()), names)
			}
		}
	}
	return sup
}

// Suppressed reports whether d is covered by an annotation.
func (s Suppressions) Suppressed(d Diagnostic) bool {
	file := s[d.Pos.Filename]
	if file == nil {
		return false
	}
	return file[d.Pos.Line][d.Analyzer]
}

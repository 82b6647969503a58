// Package deadcode flags production code that only tests reach. Whether an
// identifier is dead depends on the whole module, so the analyzer runs once
// (analysis.Analyzer.RunAll) and counts uses in the reference set: the
// non-test files of the root module and of cmd/cosmos-bench. Outside
// package main and the module root (the public API) it flags an exported
// identifier nothing references, a struct field nothing reads (a write or a
// composite-literal key is not a read) and a package nothing imports, in
// place of its members. LINT.md lists the exemptions and the hatch.
package deadcode

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "deadcode",
	Doc: "flag exported identifiers, never-read struct fields and packages " +
		"that no non-test code in the module uses",
	RunAll: runAll,
}

// modulePath is the root package's import path, exempt as the public API.
const modulePath = "repro"

// dynamic matches the methods the standard library calls dynamically.
var dynamic = regexp.MustCompile(`^(String|Error|Format|(Marshal|Unmarshal|Gob).*)$`)

// uses is what the reference set does. The targets and the reference set
// are separate loads, so an object is keyed by where it is declared, as
// "file:line:name", which a package loaded from source and the export data
// its importers read agree on.
type uses struct {
	used, imported, methods map[string]bool
}

func runAll(targets, refs []*analysis.Pass) error {
	u := uses{map[string]bool{}, map[string]bool{}, map[string]bool{}}
	for _, p := range refs {
		u.collect(p)
	}
	for _, p := range targets {
		if p.Pkg.Name() != "main" && pkgPath(p.Pkg) != modulePath {
			u.check(p)
		}
	}
	return nil
}

// pkgPath is pkg's import path without a test variant's " [p.test]".
func pkgPath(pkg *types.Package) string {
	path, _, _ := strings.Cut(pkg.Path(), " [")
	return path
}

func nonTestFiles(p *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

func key(p *analysis.Pass, obj types.Object) string {
	if obj == nil || !obj.Pos().IsValid() {
		return ""
	}
	pos := p.Fset.Position(obj.Pos())
	return pos.Filename + ":" + strconv.Itoa(pos.Line) + ":" + obj.Name()
}

func (u *uses) collect(p *analysis.Pass) {
	for _, tv := range p.TypesInfo.Types {
		u.noteType(tv.Type)
	}
	for _, f := range nonTestFiles(p) {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			u.imported[path] = true
		}
		// notUse holds the identifiers that are not uses: the selector an
		// assignment writes and a method's own receiver type.
		notUse := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			var written []ast.Expr
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							notUse[id] = true
						}
						return true
					})
				}
			case *ast.AssignStmt:
				written = n.Lhs
			case *ast.IncDecStmt:
				written = []ast.Expr{n.X}
			case *ast.Ident:
				// A field is used where a selector reads it, not where a
				// composite literal sets it.
				obj := p.TypesInfo.Uses[n]
				if v, ok := obj.(*types.Var); !notUse[n] && !(ok && v.IsField()) {
					u.used[key(p, obj)] = true
				}
			case *ast.SelectorExpr:
				if sel := p.TypesInfo.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !notUse[n.Sel] {
					u.used[key(p, sel.Obj())] = true
				}
			}
			for _, e := range written {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					notUse[sel.Sel] = true
				}
			}
			return true
		})
	}
}

// noteType records the method names of an interface type, also of one in
// a signature's parameters and results.
func (u *uses) noteType(t types.Type) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tup.Len(); i++ {
				u.noteType(tup.At(i).Type())
			}
		}
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			u.methods[it.Method(i).Name()] = true
		}
	}
}

func (u *uses) check(p *analysis.Pass) {
	files := nonTestFiles(p)
	if len(files) == 0 {
		return
	}
	if !u.imported[pkgPath(p.Pkg)] {
		p.Reportf(files[0].Name.Pos(), "package %s has no non-test importer", p.Pkg.Name())
		return
	}
	unused := func(id *ast.Ident) bool { return !u.used[key(p, p.TypesInfo.Defs[id])] }
	dead := func(id *ast.Ident, name string) {
		if id.IsExported() && unused(id) {
			p.Reportf(id.Pos(), "%s has no reference outside tests", name)
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				name := fn.Name.Name
				if fn.Recv != nil {
					if u.methods[name] || dynamic.MatchString(name) {
						continue
					}
					recv := p.TypesInfo.Defs[fn.Name].Type().(*types.Signature).Recv().Type()
					name = strings.TrimPrefix(types.TypeString(recv, func(*types.Package) string { return "" }), "*") + "." + name
				}
				dead(fn.Name, name)
				continue
			}
			for _, spec := range decl.(*ast.GenDecl).Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						dead(id, id.Name)
					}
				case *ast.TypeSpec:
					dead(s.Name, s.Name.Name)
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					// Embedded fields have no names: they serve promotion.
					for _, field := range st.Fields.List {
						for _, id := range field.Names {
							if id.Name != "_" && unused(id) {
								p.Reportf(id.Pos(), "field %s.%s is never read outside tests", s.Name.Name, id.Name)
							}
						}
					}
				}
			}
		}
	}
}

// Package maporder flags code whose observable behavior depends on Go's
// randomized map iteration order — the TrafficReport bug class from PR 2,
// where per-link float volumes summed in map order drifted between runs
// and broke the bit-identical equivalence oracles.
//
// A `range` over a map is flagged when its body
//
//   - appends to a slice declared outside the loop (element order becomes
//     iteration order), unless the slice is passed to a sort.* / slices.*
//     call later in the same function — the canonical collect-then-sort
//     idiom stays quiet;
//   - accumulates into a float (+=, -=, *=, /=, or x = x + ...): float
//     addition is not associative, so the sum is order-dependent;
//   - sends on a Peer (the five wire-protocol methods): neighbors would
//     observe a different message order each run;
//   - writes wire envelopes (transport-package calls or gob encoding).
//
// Order-insensitive sites are annotated `//lint:maporder <reason>`.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag map-range bodies whose effects depend on iteration order " +
		"(slice appends, float accumulation, Peer sends, wire writes)",
	Run: run,
}

// peerMethods is the wire-protocol method set (pubsub.Peer): a send inside
// a map range makes inter-broker message order run-dependent.
var peerMethods = map[string]bool{
	"AdvertFrom":    true,
	"UnadvertFrom":  true,
	"PropagateFrom": true,
	"RetractFrom":   true,
	"RouteFrom":     true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	reported := map[token.Pos]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypeOf(rng.X); t == nil || !isMap(t) {
			return true
		}
		checkRange(pass, body, rng, reported)
		return true
	})
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkRange(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, reported map[token.Pos]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return // already flagged under a nested map range
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, funcBody, rng, st, report)
		case *ast.CallExpr:
			checkCall(pass, st, report)
		}
		return true
	})
}

func checkAssign(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, st *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	switch st.Tok {
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range st.Rhs {
			if i >= len(st.Lhs) {
				break
			}
			obj := pass.RootObj(st.Lhs[i])
			if obj == nil || declaredWithin(obj, rng) {
				continue
			}
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
				if sortedAfter(pass, funcBody, rng, obj) {
					continue
				}
				report(st.Pos(), "append to %q inside range over map: element order follows map iteration order (sort the keys first, sort %q afterward, or annotate //lint:maporder)", obj.Name(), obj.Name())
				continue
			}
			if isFloat(pass.TypeOf(st.Lhs[i])) && mentionsObj(pass, rhs, obj) {
				report(st.Pos(), "float accumulation into %q inside range over map: float addition is not associative, so the result depends on iteration order (sort the keys first or annotate //lint:maporder)", obj.Name())
			}
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := st.Lhs[0]
		obj := pass.RootObj(lhs)
		if obj == nil || declaredWithin(obj, rng) {
			return
		}
		if isFloat(pass.TypeOf(lhs)) {
			report(st.Pos(), "float accumulation into %q inside range over map: float addition is not associative, so the result depends on iteration order (sort the keys first or annotate //lint:maporder)", obj.Name())
		}
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if peerMethods[sel.Sel.Name] {
		report(call.Pos(), "Peer send %s inside range over map: neighbors observe a run-dependent message order (iterate in sorted order or annotate //lint:maporder)", sel.Sel.Name)
		return
	}
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if strings.Contains(path, "transport") || (path == "encoding/gob" && fn.Name() == "Encode") {
		report(call.Pos(), "wire write %s.%s inside range over map: envelopes go out in a run-dependent order (iterate in sorted order or annotate //lint:maporder)", fn.Pkg().Name(), fn.Name())
	}
}

// sortedAfter reports whether obj is handed to a sort.*/slices.* call
// after the range statement, within the same function body — the
// collect-then-sort idiom, which is order-insensitive.
func sortedAfter(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || call.Pos() < rng.End() {
			return !found
		}
		fn := pass.Callee(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObj(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func declaredWithin(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
}

func mentionsObj(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

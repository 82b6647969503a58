// Package errdrop flags discarded errors on transport, encode and flush
// calls — the PR 6 bug class, where `_ =`-dropped transport send errors
// hid terminal connection failures until the chaos tests surfaced them.
//
// A call is "must-check" when it returns an error and the callee lives in
// a transport package (import path containing "transport") or in one of
// the wire-adjacent standard packages: encoding/gob, bufio, net. Both
// forms of discard are flagged:
//
//	_ = enc.Encode(env)   // explicit discard
//	enc.Encode(env)       // bare call statement
//
// `defer c.Close()` is NOT flagged (the deferred-cleanup idiom); a
// non-deferred `_ = c.Close()` is, and the intentional ones — closing an
// already-poisoned gob stream, say — carry a `//lint:errdrop <reason>`
// annotation that documents why the error is meaningless there.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "flag discarded errors (_ = and bare calls) on transport, encode " +
		"and flush calls",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					check(pass, call, "return value not checked")
				}
			case *ast.AssignStmt:
				checkAssign(pass, st)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags must-check calls whose error result lands in a blank
// identifier.
func checkAssign(pass *analysis.Pass, st *ast.AssignStmt) {
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// x, _ := f(): the blank position must be the error result.
		call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		for i, lhs := range st.Lhs {
			if isBlank(lhs) && resultIsError(pass, call, i) {
				check(pass, call, "error discarded into _")
			}
		}
		return
	}
	for i, rhs := range st.Rhs {
		if i >= len(st.Lhs) || !isBlank(st.Lhs[i]) {
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if resultIsError(pass, call, 0) {
			check(pass, call, "error discarded into _")
		}
	}
}

func check(pass *analysis.Pass, call *ast.CallExpr, how string) {
	fn := pass.Callee(call)
	if fn == nil || !returnsError(fn) || !mustCheck(fn) {
		return
	}
	pass.Reportf(call.Pos(), "error result of %s.%s %s: transport/encode/flush errors signal dead connections and poisoned streams — handle it, or annotate //lint:errdrop with the reason it is meaningless here", fn.Pkg().Name(), fn.Name(), how)
}

// mustCheck reports whether fn belongs to the wire-path call set.
func mustCheck(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	if strings.Contains(path, "transport") {
		return true
	}
	switch path {
	case "encoding/gob", "bufio", "net":
		return true
	}
	return false
}

func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return isErrorType(res.At(res.Len() - 1).Type())
}

// resultIsError reports whether result i of the call is of type error.
func resultIsError(pass *analysis.Pass, call *ast.CallExpr, i int) bool {
	t := pass.TypeOf(call)
	if tup, ok := t.(*types.Tuple); ok {
		return i < tup.Len() && isErrorType(tup.At(i).Type())
	}
	return i == 0 && t != nil && isErrorType(t)
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

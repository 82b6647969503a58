// Package poolescape flags pooled buffers that escape the call that
// borrowed them. The PR 4 route path pops delivery/hop buffers from a
// sync.Pool, lends slices of them to the matchers, and returns them to the
// pool before route() exits — any reference that outlives the call (stored
// in a field, a global, a map, a channel, a goroutine closure, or returned)
// is a use-after-Put data race the moment the next route call pops the
// same buffer. This is the machine-checked half of the delivered-tuples-
// are-read-only Handler contract.
//
// Tracking is intraprocedural and flow-insensitive-by-source-order: a
// value is "pooled" when it is (derived from) the result of a
// (*sync.Pool).Get call — through type assertions, field selections,
// indexing, slicing and re-slicing, plain-variable copies, and append
// whose destination is itself pooled. A pooled value is flagged when it is
//
//   - assigned into anything that is not a local variable or another
//     pooled location (fields of non-pooled values, map/slice elements,
//     dereferences, package-level variables);
//   - appended into a non-pooled slice;
//   - sent on a channel;
//   - captured by a `go` closure;
//   - returned from the function.
//
// Deliberate exceptions carry `//lint:poolescape <reason>`.
package poolescape

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolescape",
	Doc: "flag sync.Pool-backed buffers escaping the borrowing call via " +
		"stored references, channel sends, goroutine captures or returns",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

type state struct {
	pass    *analysis.Pass
	tracked map[types.Object]bool
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	st := &state{pass: pass, tracked: map[types.Object]bool{}}
	// Two passes: the first discovers tracked objects (pool.Get results
	// and copies, in source order — a second sweep catches copies written
	// before their source textually, e.g. in loops), the second reports.
	for i := 0; i < 2; i++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				st.propagate(as)
			}
			return true
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			st.checkAssign(x)
		case *ast.SendStmt:
			if st.pooled(x.Value) {
				pass.Reportf(x.Pos(), "pooled buffer sent on a channel: the receiver's reference outlives the Put (copy the data out, or annotate //lint:poolescape)")
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if st.pooled(r) {
					pass.Reportf(x.Pos(), "pooled buffer returned from the borrowing function: the caller's reference outlives the Put (copy the data out, or annotate //lint:poolescape)")
				}
			}
		case *ast.GoStmt:
			st.checkGo(x)
		case *ast.CallExpr:
			st.checkAppend(x)
		}
		return true
	})
}

// propagate records LHS objects of assignments whose RHS is pooled.
func (s *state) propagate(as *ast.AssignStmt) {
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Rhs {
			if !s.pooled(as.Rhs[i]) {
				continue
			}
			if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
				if obj := s.pass.ObjectOf(id); obj != nil && isLocalVar(obj) {
					s.tracked[obj] = true
				}
			}
		}
	}
}

// checkAssign flags stores of pooled values into non-pooled, non-local
// destinations.
func (s *state) checkAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Rhs {
		if !s.pooled(as.Rhs[i]) {
			continue
		}
		lhs := ast.Unparen(as.Lhs[i])
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			if obj := s.pass.ObjectOf(id); obj != nil && !isLocalVar(obj) {
				s.pass.Reportf(as.Pos(), "pooled buffer stored in package variable %q: the reference outlives the Put (copy the data out, or annotate //lint:poolescape)", id.Name)
			}
			continue // local copy: tracked by propagate
		}
		// Field, index or dereference store: fine only when the
		// destination root is itself pooled memory (e.g. writing a popped
		// buffer's own fields back before Put).
		if root := s.pass.RootObj(lhs); root != nil && s.tracked[root] {
			continue
		}
		s.pass.Reportf(as.Pos(), "pooled buffer stored through %s: the stored reference outlives the Put (copy the data out, or annotate //lint:poolescape)", describeLHS(lhs))
	}
}

// checkAppend flags append(dst, pooled...) into a non-pooled dst.
func (s *state) checkAppend(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if b, ok := s.pass.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "append" {
		return
	}
	if len(call.Args) < 2 || s.pooled(call.Args[0]) {
		return
	}
	for _, arg := range call.Args[1:] {
		if s.pooled(arg) {
			s.pass.Reportf(call.Pos(), "pooled buffer appended into a non-pooled slice: the element reference outlives the Put (copy the data out, or annotate //lint:poolescape)")
			return
		}
	}
}

// checkGo flags goroutine closures capturing pooled variables: the
// goroutine races the Put.
func (s *state) checkGo(g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := s.pass.ObjectOf(id); obj != nil && s.tracked[obj] {
					s.pass.Reportf(id.Pos(), "pooled buffer %q captured by a goroutine: the goroutine races the Put (copy the data out, or annotate //lint:poolescape)", id.Name)
					return false
				}
			}
			return true
		})
	}
	for _, arg := range g.Call.Args {
		if s.pooled(arg) {
			s.pass.Reportf(arg.Pos(), "pooled buffer passed to a goroutine: the goroutine races the Put (copy the data out, or annotate //lint:poolescape)")
		}
	}
}

// pooled reports whether e evaluates to (part of) a pooled buffer.
func (s *state) pooled(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := s.pass.ObjectOf(x)
		return obj != nil && s.tracked[obj]
	case *ast.CallExpr:
		if isPoolGet(s.pass, x) {
			return true
		}
		// append(pooled, ...) yields pooled memory.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := s.pass.ObjectOf(id).(*types.Builtin); ok && b.Name() == "append" && len(x.Args) > 0 {
				return s.pooled(x.Args[0])
			}
		}
		return false
	case *ast.TypeAssertExpr:
		return s.pooled(x.X)
	case *ast.SelectorExpr:
		// A field of a pooled struct is pooled memory; a method value is not.
		if sel, ok := s.pass.TypesInfo.Selections[x]; ok && sel.Kind() != types.FieldVal {
			return false
		}
		return s.pooled(x.X)
	case *ast.IndexExpr:
		return s.pooled(x.X)
	case *ast.SliceExpr:
		return s.pooled(x.X)
	case *ast.StarExpr:
		return s.pooled(x.X)
	case *ast.UnaryExpr:
		return s.pooled(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if s.pooled(el) {
				return true
			}
		}
		return false
	}
	return false
}

// isPoolGet matches calls to (*sync.Pool).Get.
func isPoolGet(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isLocalVar reports whether obj is a function-scoped variable (not a
// package-level var, field or parameter of another function).
func isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if v.IsField() {
		return false
	}
	return v.Parent() == nil || v.Parent() != v.Pkg().Scope()
}

func describeLHS(e ast.Expr) string {
	switch e.(type) {
	case *ast.SelectorExpr:
		return "a field store"
	case *ast.IndexExpr:
		return "a map/slice element store"
	case *ast.StarExpr:
		return "a pointer dereference"
	}
	return "a store"
}

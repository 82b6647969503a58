// Package lockdiscipline enforces the broker's reentrancy contract: no
// Peer send, transport call or user Handler/Sink callback may run while a
// guarded mutex is held. Every broker entry point follows the
// lock-mutate-unlock-send shape — decisions are made and recorded under
// Broker.mu, but the sends they produce go out after Unlock, because a
// synchronous Peer send re-enters the neighbor (or, in-process, this very
// broker: handlers are free to call back into Subscribe/Publish), and a
// send made under the mutex deadlocks or violates the pooled-buffer
// Handler contract. This is the precondition audit for the ROADMAP's
// sharded/RCU matching index: the sharding refactor can only move the
// mutex if no send secretly depends on it.
//
// A mutex opts into checking with a `// cosmoslint:guards` annotation on
// its field (or package-level var) declaration. The analyzer then walks
// every function in the package, tracking which guarded mutexes are held
// at each statement (Lock/RLock acquire; Unlock/RUnlock release; a branch
// that unlocks and returns does not release the fall-through path), and
// flags any call made while one is held that
//
//   - is a Peer protocol send (AdvertFrom, UnadvertFrom, PropagateFrom,
//     RetractFrom, RouteFrom),
//   - invokes a value of a named func type whose name contains Handler or
//     Sink (pubsub.Handler, engine.ResultSink),
//   - calls into a transport package, or
//   - calls a same-package function that transitively reaches any of the
//     above (static callgraph, context-insensitive).
//
// The callgraph is per-package and the held-state analysis is a linear
// over-approximation; a genuinely safe site (e.g. a send on a mutex the
// callee provably releases first) is annotated `//lint:lockdiscipline
// <reason>`.
//
// The analyzer also enforces the snapshot write-once contract of the
// RCU-style matching index. A type opts in with `// cosmoslint:snapshot`
// on its declaration; any assignment that writes through a value of a
// snapshot type (field set, map insert, slice-element store, append
// rebind) is flagged unless the chain is rooted at a local variable that
// the same function constructed from a snapshot composite literal — the
// builder pattern: populate a fresh value, then publish it with one
// atomic store. Only assignments are checked: a method call on a field of
// a snapshot (an atomic cell's Store, say) is outside the rule.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "flag Peer sends, transport calls and Handler/Sink callbacks reachable " +
		"while a cosmoslint:guards-annotated mutex is held, and writes to " +
		"cosmoslint:snapshot types outside their builders",
	Run: run,
}

var peerMethods = map[string]bool{
	"AdvertFrom":    true,
	"UnadvertFrom":  true,
	"PropagateFrom": true,
	"RetractFrom":   true,
	"RouteFrom":     true,
}

func run(pass *analysis.Pass) error {
	checkSnapshotWrites(pass)
	guarded := findGuarded(pass)
	if len(guarded) == 0 {
		return nil
	}
	c := &checker{pass: pass, guarded: guarded, decls: map[*types.Func]*ast.FuncDecl{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[fn] = fd
				}
			}
		}
	}
	c.buildReachability()
	for _, fn := range c.sortedFns() {
		c.walkStmts(c.decls[fn].Body.List, map[*types.Var]token.Position{})
	}
	return nil
}

// findGuarded collects the mutex fields and package vars annotated with
// `// cosmoslint:guards`.
func findGuarded(pass *analysis.Pass) map[*types.Var]bool {
	guarded := map[*types.Var]bool{}
	mark := func(names []*ast.Ident, doc, line *ast.CommentGroup) {
		if !hasGuardsAnnotation(doc) && !hasGuardsAnnotation(line) {
			return
		}
		for _, name := range names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
				guarded[v] = true
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.StructType:
				for _, field := range x.Fields.List {
					mark(field.Names, field.Doc, field.Comment)
				}
			case *ast.ValueSpec:
				mark(x.Names, x.Doc, x.Comment)
			}
			return true
		})
	}
	return guarded
}

func hasGuardsAnnotation(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, "cosmoslint:guards") {
			return true
		}
	}
	return false
}

type checker struct {
	pass    *analysis.Pass
	guarded map[*types.Var]bool
	decls   map[*types.Func]*ast.FuncDecl
	// reaches[fn] describes the sink fn can reach ("" = none).
	reaches map[*types.Func]string
}

// sortedFns returns the package's analyzed functions in source order, so
// every pass over the callgraph is deterministic — the chain descriptions
// the fixpoint records must not depend on map iteration order.
func (c *checker) sortedFns() []*types.Func {
	fns := make([]*types.Func, 0, len(c.decls))
	for fn := range c.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return c.decls[fns[i]].Pos() < c.decls[fns[j]].Pos() })
	return fns
}

// buildReachability computes, for every function in the package, whether
// it can transitively reach a sink (fixpoint over the static callgraph).
func (c *checker) buildReachability() {
	c.reaches = map[*types.Func]string{}
	callees := map[*types.Func][]*types.Func{}
	fns := c.sortedFns()
	for _, fn := range fns {
		fd := c.decls[fn]
		if desc := c.directSink(fd.Body); desc != "" {
			c.reaches[fn] = desc
		}
		var cs []*types.Func
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if g := c.pass.Callee(call); g != nil && c.decls[g] != nil {
					cs = append(cs, g)
				}
			}
			return true
		})
		callees[fn] = cs
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if c.reaches[fn] != "" {
				continue
			}
			for _, g := range callees[fn] {
				if d := c.reaches[g]; d != "" {
					c.reaches[fn] = g.Name() + " → " + d
					changed = true
					break
				}
			}
		}
	}
}

// directSink scans a body for a sink call and describes the first one.
func (c *checker) directSink(body *ast.BlockStmt) string {
	desc := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		desc = c.sinkDesc(call)
		return desc == ""
	})
	return desc
}

// sinkDesc classifies a call as a sink ("" if not one).
func (c *checker) sinkDesc(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && peerMethods[sel.Sel.Name] {
		// Only method calls count (a local function that happens to share
		// a protocol name would need a receiver to be confused here).
		if s, ok := c.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
			return "Peer send " + sel.Sel.Name
		}
	}
	if t := c.pass.TypeOf(call.Fun); t != nil {
		if named, ok := t.(*types.Named); ok {
			name := named.Obj().Name()
			if _, isSig := named.Underlying().(*types.Signature); isSig && (strings.Contains(name, "Handler") || strings.Contains(name, "Sink")) {
				return "callback through " + name
			}
		}
	}
	if fn := c.pass.Callee(call); fn != nil && fn.Pkg() != nil && fn.Pkg() != c.pass.Pkg {
		if strings.Contains(fn.Pkg().Path(), "transport") {
			return "transport call " + fn.Name()
		}
	}
	return ""
}

// lockOp decodes recv.mu.Lock()-shaped statements on guarded mutexes,
// returning the mutex and +1 (acquire) / -1 (release); 0 otherwise.
func (c *checker) lockOp(call *ast.CallExpr) (*types.Var, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, 0
	}
	dir := 0
	switch sel.Sel.Name {
	case "Lock", "RLock":
		dir = 1
	case "Unlock", "RUnlock":
		dir = -1
	default:
		return nil, 0
	}
	muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	var muObj types.Object
	if ok {
		muObj = c.pass.ObjectOf(muSel.Sel)
	} else if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID {
		muObj = c.pass.ObjectOf(id)
	}
	if v, isVar := muObj.(*types.Var); isVar && c.guarded[v] {
		return v, dir
	}
	return nil, 0
}

// walkStmts runs the held-mutex dataflow over a statement list, reporting
// calls that (can) reach sinks while a guarded mutex is held. The held map
// carries the Lock site for the message. It returns the state at the end
// of the list.
func (c *checker) walkStmts(stmts []ast.Stmt, held map[*types.Var]token.Position) map[*types.Var]token.Position {
	for _, st := range stmts {
		held = c.walkStmt(st, held)
	}
	return held
}

func (c *checker) walkStmt(st ast.Stmt, held map[*types.Var]token.Position) map[*types.Var]token.Position {
	switch x := st.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
			if mu, dir := c.lockOp(call); mu != nil {
				held = clone(held)
				if dir > 0 {
					held[mu] = c.pass.Fset.Position(call.Pos())
				} else {
					delete(held, mu)
				}
				return held
			}
		}
		c.checkCalls(x, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the mutex held to the end of the
		// function, which the no-removal default already models. Other
		// deferred calls run at return time with an unknowable held
		// state; they are not checked.
		return held
	case *ast.GoStmt:
		// The goroutine does not inherit the caller's critical section —
		// its body is checked from an empty held state.
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			c.walkStmts(lit.Body.List, map[*types.Var]token.Position{})
		}
	case *ast.BlockStmt:
		return c.walkStmts(x.List, clone(held))
	case *ast.IfStmt:
		if x.Init != nil {
			held = c.walkStmt(x.Init, held)
		}
		c.checkCalls(x.Cond, held)
		bodyEnd := c.walkStmts(x.Body.List, clone(held))
		states := [][2]any{}
		if !terminates(x.Body.List) {
			states = append(states, [2]any{bodyEnd, true})
		}
		if x.Else != nil {
			elseEnd := c.walkStmt(x.Else, clone(held))
			if !stmtTerminates(x.Else) {
				states = append(states, [2]any{elseEnd, true})
			}
		} else {
			states = append(states, [2]any{held, true})
		}
		// Fall-through state: a mutex is held only if every non-returning
		// path still holds it (the unlock-and-return branch pattern).
		if len(states) == 0 {
			return held // every branch returns; successor is unreachable
		}
		merged := clone(states[0][0].(map[*types.Var]token.Position))
		for _, s := range states[1:] {
			other := s[0].(map[*types.Var]token.Position)
			for mu := range merged {
				if _, ok := other[mu]; !ok {
					delete(merged, mu)
				}
			}
		}
		return merged
	case *ast.ForStmt:
		if x.Init != nil {
			held = c.walkStmt(x.Init, held)
		}
		if x.Cond != nil {
			c.checkCalls(x.Cond, held)
		}
		c.walkStmts(x.Body.List, clone(held))
		return held
	case *ast.RangeStmt:
		c.checkCalls(x.X, held)
		c.walkStmts(x.Body.List, clone(held))
		return held
	case *ast.SwitchStmt:
		if x.Init != nil {
			held = c.walkStmt(x.Init, held)
		}
		if x.Tag != nil {
			c.checkCalls(x.Tag, held)
		}
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, clone(held))
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, clone(held))
			}
		}
		return held
	case *ast.SelectStmt:
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				c.walkStmts(cc.Body, clone(held))
			}
		}
		return held
	default:
		c.checkCalls(st, held)
	}
	return held
}

// checkCalls reports every sink (or sink-reaching same-package call)
// under node while held is non-empty.
func (c *checker) checkCalls(node ast.Node, held map[*types.Var]token.Position) {
	if len(held) == 0 || node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if mu, _ := c.lockOp(call); mu != nil {
			return true // nested lock ops are handled at statement level
		}
		mu, lockPos := anyHeld(held)
		if desc := c.sinkDesc(call); desc != "" {
			c.pass.Reportf(call.Pos(), "%s while %s is held (Lock at line %d): sends and callbacks re-enter brokers — move it after Unlock, or annotate //lint:lockdiscipline", desc, mu.Name(), lockPos.Line)
			return true
		}
		if g := c.pass.Callee(call); g != nil && c.decls[g] != nil {
			if d := c.reaches[g]; d != "" {
				c.pass.Reportf(call.Pos(), "call to %s while %s is held (Lock at line %d) can reach a send (%s): sends and callbacks re-enter brokers — move it after Unlock, or annotate //lint:lockdiscipline", g.Name(), mu.Name(), lockPos.Line, d)
			}
		}
		return true
	})
}

func anyHeld(held map[*types.Var]token.Position) (*types.Var, token.Position) {
	var best *types.Var
	var bestPos token.Position
	for mu, pos := range held {
		if best == nil || pos.Offset < bestPos.Offset {
			best, bestPos = mu, pos
		}
	}
	return best, bestPos
}

func clone(m map[*types.Var]token.Position) map[*types.Var]token.Position {
	out := make(map[*types.Var]token.Position, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// checkSnapshotWrites enforces the write-once contract on types annotated
// `// cosmoslint:snapshot`: after construction, a snapshot value is only
// ever read. Writes through a snapshot-typed expression are allowed solely
// when the chain is rooted at a local the same function created from a
// snapshot composite literal (the builder filling a fresh value before the
// atomic publish).
func checkSnapshotWrites(pass *analysis.Pass) {
	snap := findSnapshotTypes(pass)
	if len(snap) == 0 {
		return
	}
	typeOf := func(e ast.Expr) *types.TypeName {
		t := pass.TypeOf(e)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && snap[named.Obj()] {
			return named.Obj()
		}
		return nil
	}
	// snapshotTarget walks an assignment LHS. It returns the snapshot type
	// the write goes through (nil: not a snapshot write) and the chain's
	// root identifier (nil when the root is not a plain identifier).
	snapshotTarget := func(e ast.Expr) (*types.TypeName, *ast.Ident) {
		var hit *types.TypeName
		for {
			e = ast.Unparen(e)
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if tn := typeOf(x.X); tn != nil && hit == nil {
					hit = tn
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.Ident:
				return hit, x
			default:
				return hit, nil
			}
		}
	}
	report := func(pos token.Pos, tn *types.TypeName) {
		pass.Reportf(pos, "write through cosmoslint:snapshot type %s outside its builder: published snapshots are write-once — build a fresh value and republish, or annotate //lint:lockdiscipline", tn.Name())
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fresh := freshSnapshotLocals(pass, fd.Body, snap)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						tn, root := snapshotTarget(lhs)
						if tn == nil {
							continue
						}
						if root != nil && fresh[pass.ObjectOf(root)] {
							continue
						}
						report(lhs.Pos(), tn)
					}
				case *ast.IncDecStmt:
					if tn, root := snapshotTarget(x.X); tn != nil && (root == nil || !fresh[pass.ObjectOf(root)]) {
						report(x.Pos(), tn)
					}
				}
				return true
			})
		}
	}
}

// findSnapshotTypes collects the named types annotated with
// `// cosmoslint:snapshot` on their declaration.
func findSnapshotTypes(pass *analysis.Pass) map[types.Object]bool {
	snap := map[types.Object]bool{}
	has := func(cgs ...*ast.CommentGroup) bool {
		for _, cg := range cgs {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				if strings.Contains(c.Text, "cosmoslint:snapshot") {
					return true
				}
			}
		}
		return false
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if has(gd.Doc, ts.Doc, ts.Comment) {
					if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil {
						snap[obj] = true
					}
				}
			}
		}
	}
	return snap
}

// freshSnapshotLocals collects the local variables a function initializes
// from a snapshot composite literal (ds := &dirSnap{...}); writes rooted at
// those are the builder filling its own value.
func freshSnapshotLocals(pass *analysis.Pass, body *ast.BlockStmt, snap map[types.Object]bool) map[types.Object]bool {
	isSnapLit := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		cl, ok := e.(*ast.CompositeLit)
		if !ok {
			return false
		}
		t := pass.TypeOf(cl)
		if named, ok := t.(*types.Named); ok {
			return snap[named.Obj()]
		}
		return false
	}
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, rhs := range x.Rhs {
				if !isSnapLit(rhs) {
					continue
				}
				if id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok {
					if obj := pass.ObjectOf(id); obj != nil {
						fresh[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range x.Values {
				if i < len(x.Names) && isSnapLit(v) {
					if obj := pass.ObjectOf(x.Names[i]); obj != nil {
						fresh[obj] = true
					}
				}
			}
		}
		return true
	})
	return fresh
}

// terminates reports whether a statement list always transfers control
// out (return, branch, panic) at its end.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	return stmtTerminates(stmts[len(stmts)-1])
}

func stmtTerminates(st ast.Stmt) bool {
	switch x := st.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(x.List)
	case *ast.IfStmt:
		return terminates(x.Body.List) && x.Else != nil && stmtTerminates(x.Else)
	}
	return false
}

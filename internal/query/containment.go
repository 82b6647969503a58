package query

import (
	"fmt"
	"sort"
)

// This file implements the window-based query containment and merging
// theorems sketched in §2.1 of the paper (details in its reference [25]):
// when several queries placed on the same processor have overlapping
// results, COSMOS composes one superset query Q whose result contains each
// original result, runs only Q, and "splits" Q's result stream back into the
// original results with per-user residual subscriptions.
//
// The dialect restriction (conjunctive comparison predicates, per-stream
// sliding windows, projection lists) makes containment decidable with
// per-column interval reasoning:
//
//	Q' contains Q  ⇐  same FROM streams
//	               ∧ every window of Q' covers the matching window of Q
//	               ∧ Q's predicate conjunction implies every predicate of Q'
//	               ∧ Q' projects every attribute Q projects.

// aliasMap maps q2's aliases onto q1's by stream name. Queries with repeated
// streams (self-joins) are out of scope and return an error.
func aliasMap(q1, q2 *Query) (map[string]string, error) {
	byStream := make(map[string]string, len(q1.From))
	for _, r := range q1.From {
		if _, dup := byStream[r.Stream]; dup {
			return nil, fmt.Errorf("query: self-join on %q not supported by containment", r.Stream)
		}
		byStream[r.Stream] = r.Alias
	}
	if len(q2.From) != len(q1.From) {
		return nil, errStreamMismatch
	}
	m := make(map[string]string, len(q2.From))
	seen := make(map[string]bool, len(q2.From))
	for _, r := range q2.From {
		a1, ok := byStream[r.Stream]
		if !ok || seen[r.Stream] {
			return nil, errStreamMismatch
		}
		seen[r.Stream] = true
		m[r.Alias] = a1
	}
	return m, nil
}

var errStreamMismatch = fmt.Errorf("query: FROM stream sets differ")

// rename rewrites q2-side column references through the alias map.
func renameCol(c *ColRef, m map[string]string) *ColRef {
	if c == nil {
		return nil
	}
	out := *c
	if a, ok := m[c.Alias]; ok {
		out.Alias = a
	}
	return &out
}

func renamePredicate(p Predicate, m map[string]string) Predicate {
	return Predicate{
		Left:  Operand{Col: renameCol(p.Left.Col, m), Lit: p.Left.Lit},
		Op:    p.Op,
		Right: Operand{Col: renameCol(p.Right.Col, m), Lit: p.Right.Lit},
	}
}

func renamed(q *Query, m map[string]string) *Query {
	out := &Query{Name: q.Name}
	for _, r := range q.From {
		rr := r
		if a, ok := m[r.Alias]; ok {
			rr.Alias = a
		}
		out.From = append(out.From, rr)
	}
	for _, s := range q.Select {
		ss := s
		if a, ok := m[s.Col.Alias]; ok {
			ss.Col.Alias = a
		}
		out.Select = append(out.Select, ss)
	}
	for _, p := range q.Where {
		out.Where = append(out.Where, renamePredicate(p, m))
	}
	return out
}

// projectsAll reports whether super's projection list covers sub's.
func projectsAll(super, sub *Query) bool {
	bareStarSuper := false
	starAliases := make(map[string]bool)
	cols := make(map[string]bool)
	for _, p := range super.Select {
		switch {
		case p.Star && p.Col.Alias == "":
			bareStarSuper = true
		case p.Star:
			starAliases[p.Col.Alias] = true
		default:
			cols[p.Col.String()] = true
		}
	}
	if bareStarSuper {
		return true
	}
	for _, p := range sub.Select {
		switch {
		case p.Star && p.Col.Alias == "":
			// sub wants everything; super must star every alias.
			for _, r := range sub.From {
				if !starAliases[r.Alias] {
					return false
				}
			}
		case p.Star:
			if !starAliases[p.Col.Alias] {
				return false
			}
		default:
			if !cols[p.Col.String()] && !starAliases[p.Col.Alias] {
				return false
			}
		}
	}
	return true
}

// Contains reports whether super's result is a superset of sub's under the
// dialect's containment theorem. Both queries must be valid.
func Contains(super, sub *Query) bool {
	m, err := aliasMap(super, sub)
	if err != nil {
		return false
	}
	s := renamed(sub, m)
	// Windows: super must cover.
	for _, r := range s.From {
		sr, ok := super.RefByAlias(r.Alias)
		if !ok || !sr.Window.Covers(r.Window) {
			return false
		}
	}
	// Predicates: sub's conjunction must imply each super predicate.
	ivs := ColumnIntervals(s)
	joins := JoinSet(s)
	for _, p := range super.Where {
		if !ImpliesPredicate(ivs, joins, p) {
			return false
		}
	}
	return projectsAll(super, s)
}

// Equivalent reports mutual containment.
func Equivalent(a, b *Query) bool {
	return Contains(a, b) && Contains(b, a)
}

// MergeResult is the outcome of merging two queries: the superset query plus
// the residual filters each original query needs to recover its exact result
// from the superset's result stream.
type MergeResult struct {
	Super *Query
	// Residuals[i] holds, for input query i, the selection predicates
	// (in the superset's alias space) that must be re-applied, and the
	// window constraint to re-check, when splitting the shared result.
	Residuals []Residual
}

// Residual describes the post-filter for one original query over the merged
// result stream.
type Residual struct {
	Query      *Query            // the original query
	Filters    []Predicate       // selections to re-apply (superset aliases)
	Windows    map[string]Window // per-alias windows to re-enforce
	Projection []Projection      // the original projection (superset aliases)
	AliasToSub map[string]string // superset alias -> original alias
}

// Merge composes the minimal superset query covering q1 and q2, mirroring
// the Q3+Q4 → Q5 example of §2.1:
//
//   - per-stream windows take the maximum span;
//   - per-column selection intervals take the union (weakest common bound);
//   - join predicates present in both queries are kept; a join predicate
//     present in only one query blocks merging (results would not align);
//   - projections take the union, plus what the residuals read off the
//     shared result stream (projectResidualInputs).
//
// It returns an error when the two queries read different stream sets or
// disagree on join structure.
func Merge(q1, q2 *Query) (*MergeResult, error) {
	m, err := aliasMap(q1, q2)
	if err != nil {
		return nil, err
	}
	r2 := renamed(q2, m)

	j1, j2 := JoinSet(q1), JoinSet(r2)
	if len(j1) != len(j2) {
		return nil, fmt.Errorf("query: join structures differ (%d vs %d predicates)", len(j1), len(j2))
	}
	for k := range j1 {
		if !j2[k] {
			return nil, fmt.Errorf("query: join predicate %s missing from %s", k, q2.Name)
		}
	}

	super := &Query{Name: q1.Name + "+" + q2.Name}
	for _, r := range q1.From {
		rr := r
		if r2ref, ok := r2.RefByAlias(r.Alias); ok {
			rr.Window = MaxWindow(r.Window, r2ref.Window)
		}
		super.From = append(super.From, rr)
	}

	// Union of selection constraints per column.
	iv1, iv2 := ColumnIntervals(q1), ColumnIntervals(r2)
	keys := make([]string, 0, len(iv1))
	for k := range iv1 {
		if _, ok := iv2[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	colOf := func(key string, q *Query) ColRef {
		for _, p := range q.Where {
			p = p.Normalize()
			if p.IsSelection() && p.Left.Col.String() == key {
				return *p.Left.Col
			}
		}
		return ColRef{}
	}
	for _, k := range keys {
		u := iv1[k].Union(iv2[k])
		col := colOf(k, q1)
		if col.Attr == "" {
			col = colOf(k, r2)
		}
		super.Where = append(super.Where, u.Predicates(col)...)
	}
	// Shared join predicates.
	for _, p := range q1.JoinPredicates() {
		super.Where = append(super.Where, p.Normalize())
	}

	// Projection union (dedup by string form).
	seen := make(map[string]bool)
	addProj := func(ps []Projection) {
		for _, p := range ps {
			if !seen[p.String()] {
				seen[p.String()] = true
				super.Select = append(super.Select, p)
			}
		}
	}
	addProj(q1.Select)
	addProj(r2.Select)

	if err := super.Validate(); err != nil {
		return nil, fmt.Errorf("merge %s,%s: %w", q1.Name, q2.Name, err)
	}
	if !Contains(super, q1) || !Contains(super, r2) {
		return nil, fmt.Errorf("query: merged query does not contain inputs (dialect limit)")
	}

	res := &MergeResult{Super: super}
	res.Residuals = append(res.Residuals,
		residualFor(q1, q1, super, nil),
		residualFor(q2, r2, super, invert(m)))
	res.projectResidualInputs()
	return res, nil
}

// projectResidualInputs extends the superset's select list with what the
// residuals evaluate on its result tuples and no star already carries: every
// column a residual filter reads, and alias.timestamp for every alias whose
// window a residual re-checks. Without them the split loses every result of
// a query that filters on a column its own select list omits. (What
// MergeAll's fold adds for an intermediate superset the final residuals
// read too: merging further only weakens the superset.)
func (mr *MergeResult) projectResidualInputs() {
	have := make(map[string]bool, len(mr.Super.Select)) // "*", "A.*", "A.x"
	for _, p := range mr.Super.Select {
		have[p.String()] = true
	}
	add := func(c *ColRef) {
		if c == nil || have["*"] || have[c.Alias+".*"] || have[c.String()] {
			return
		}
		have[c.String()] = true
		mr.Super.Select = append(mr.Super.Select, Projection{Col: *c})
	}
	for _, r := range mr.Residuals {
		for _, f := range r.Filters {
			add(f.Left.Col)
			add(f.Right.Col)
		}
		for _, ref := range mr.Super.From {
			if _, ok := r.Windows[ref.Alias]; ok {
				add(&ColRef{Alias: ref.Alias, Attr: "timestamp"})
			}
		}
	}
}

// MergeAll left-folds Merge over a set of queries, returning the superset
// query and one residual per input. Inputs that cannot merge with the
// accumulated superset are returned in the leftover list so the caller can
// form additional groups.
func MergeAll(queries []*Query) (merged []*MergeResult, leftovers []*Query) {
	remaining := append([]*Query(nil), queries...)
	for len(remaining) > 0 {
		acc := remaining[0]
		group := []*Query{remaining[0]}
		var next []*Query
		for _, q := range remaining[1:] {
			mr, err := Merge(acc, q)
			if err != nil {
				next = append(next, q)
				continue
			}
			acc = mr.Super
			group = append(group, q)
		}
		if len(group) == 1 {
			leftovers = append(leftovers, group[0])
		} else {
			// Re-derive residuals of every group member against the
			// final accumulated superset.
			mr := &MergeResult{Super: acc}
			for _, q := range group {
				m, err := aliasMap(acc, q)
				if err != nil {
					continue
				}
				mr.Residuals = append(mr.Residuals, residualFor(q, renamed(q, m), acc, invert(m)))
			}
			mr.projectResidualInputs()
			merged = append(merged, mr)
		}
		remaining = next
	}
	return merged, leftovers
}

func invert(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// residualFor computes the split subscription for original (with renamed
// being original expressed in super's alias space).
func residualFor(original, renamedQ, super *Query, superToOrig map[string]string) Residual {
	res := Residual{
		Query:      original,
		Windows:    make(map[string]Window, len(renamedQ.From)),
		Projection: renamedQ.Select,
		AliasToSub: superToOrig,
	}
	// Re-apply every selection of the original that the superset weakened
	// or dropped.
	supIVs := ColumnIntervals(super)
	supJoins := JoinSet(super)
	for _, p := range renamedQ.Where {
		if ImpliesPredicate(supIVs, supJoins, p) {
			continue
		}
		res.Filters = append(res.Filters, p.Normalize())
	}
	// Re-enforce windows the superset widened.
	for _, r := range renamedQ.From {
		sr, ok := super.RefByAlias(r.Alias)
		if ok && !r.Window.Covers(sr.Window) {
			res.Windows[r.Alias] = r.Window
		}
	}
	return res
}

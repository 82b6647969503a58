package query

import (
	"fmt"
	"slices"
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

// renamed returns q in the alias space m maps to; q itself, read-only, when
// m renames nothing.
func renamed(q *Query, m map[string]string) *Query {
	if !slices.ContainsFunc(q.From, func(r StreamRef) bool { a, ok := m[r.Alias]; return ok && a != r.Alias }) {
		return q
	}
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
	return covers(super, s, ColumnIntervals(s), JoinSet(s)) && projectsAll(super, s)
}

// covers is Contains less the projection test, for a sub already in super's
// alias space whose column intervals and join set are given: super's windows
// cover sub's, and sub's conjunction implies every predicate of super.
func covers(super, sub *Query, ivs map[string]Interval, joins map[string]bool) bool {
	for _, r := range sub.From {
		sr, ok := super.RefByAlias(r.Alias)
		if !ok || !sr.Window.Covers(r.Window) {
			return false
		}
	}
	for _, p := range super.Where {
		if !ImpliesPredicate(ivs, joins, p) {
			return false
		}
	}
	return true
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
//     shared result stream (group.project).
//
// It is the step a query joining a sharing group takes (Groups), and fails
// when the two queries read different stream sets or join predicates.
func Merge(q1, q2 *Query) (*MergeResult, error) {
	if shape := shapeOf(q1); shape == "" || shape != shapeOf(q2) {
		return nil, fmt.Errorf("query: %s and %s differ in streams or join predicates", q1.Name, q2.Name)
	}
	g := &group{}
	if g.seed(q1, q1.Name+"+"+q2.Name); !g.join(q2) {
		return nil, fmt.Errorf("query: merged query does not contain inputs (dialect limit)")
	}
	return &MergeResult{Super: g.super, Residuals: g.residuals()}, nil
}

// colOf returns the column of q's first selection on key ("alias.attr").
func colOf(key string, q *Query) ColRef {
	for _, p := range q.Where {
		p = p.Normalize()
		if p.IsSelection() && p.Left.Col.String() == key {
			return *p.Left.Col
		}
	}
	return ColRef{}
}

// MergeAll groups a set of queries as Groups does when they are added in
// order: each joins the first earlier group whose superset Merge widens by
// it. It returns the groups of two or more queries, with one residual per
// member against the group's final superset, and the queries left alone.
func MergeAll(queries []*Query) (merged []*MergeResult, leftovers []*Query) {
	gs := NewGroups(true)
	for _, q := range queries {
		gs.Add(q)
	}
	for _, g := range gs.Delta().Changed {
		if len(g.Residuals) == 1 {
			leftovers = append(leftovers, g.Residuals[0].Query)
		} else {
			merged = append(merged, &MergeResult{Super: g.Super, Residuals: g.Residuals})
		}
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
// being original expressed in super's alias space), given super's column
// intervals and join set.
func residualFor(original, renamedQ, super *Query, supIVs map[string]Interval, supJoins map[string]bool, superToOrig map[string]string) Residual {
	res := Residual{
		Query:      original,
		Windows:    make(map[string]Window, len(renamedQ.From)),
		Projection: renamedQ.Select,
		AliasToSub: superToOrig,
	}
	// Re-apply every selection of the original that the superset weakened
	// or dropped.
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

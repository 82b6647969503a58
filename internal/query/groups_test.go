package query

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// sameSuperset reports how two supersets differ, ignoring the name and the
// order of the select list: FROM and windows, column intervals, join set and
// projection set must be equal.
func sameSuperset(a, b *Query) string {
	proj := func(q *Query) []string {
		out := make([]string, 0, len(q.Select))
		for _, p := range q.Select {
			if !slices.Contains(out, p.String()) {
				out = append(out, p.String())
			}
		}
		sort.Strings(out)
		return out
	}
	switch {
	case !reflect.DeepEqual(a.From, b.From):
		return fmt.Sprintf("FROM %v vs %v", a.From, b.From)
	case !reflect.DeepEqual(ColumnIntervals(a), ColumnIntervals(b)):
		return fmt.Sprintf("intervals %v vs %v", ColumnIntervals(a), ColumnIntervals(b))
	case !reflect.DeepEqual(JoinSet(a), JoinSet(b)):
		return fmt.Sprintf("joins %v vs %v", JoinSet(a), JoinSet(b))
	case !slices.Equal(proj(a), proj(b)):
		return fmt.Sprintf("projections %v vs %v", proj(a), proj(b))
	}
	return ""
}

// foldGroup is one group of a fresh MergeAll: its superset and residuals.
type foldGroup struct {
	super     *Query
	residuals []Residual
}

// freshFold groups qs by the pairwise left fold Groups maintains
// incrementally: the first remaining query seeds a group, every later one
// joins it when merge accepts, the rest fold again, and each member's
// residual is derived against its group's final superset. Groups are in the
// order of their first member.
func freshFold(qs []*Query) []foldGroup {
	var out []foldGroup
	for remaining := qs; len(remaining) > 0; {
		acc, members := remaining[0], remaining[:1:1]
		var next []*Query
		for _, q := range remaining[1:] {
			if mr, err := merge(acc, q); err == nil {
				acc, members = mr.Super, append(members, q)
			} else {
				next = append(next, q)
			}
		}
		fg := foldGroup{super: acc, residuals: []Residual{{Query: acc, Projection: acc.Select}}}
		if len(members) > 1 {
			g := &group{super: acc, have: selectSet(acc)}
			fg.residuals = nil
			for _, q := range members {
				m, err := aliasMap(acc, q)
				if err != nil {
					panic(err)
				}
				fg.residuals = append(fg.residuals, residualFor(q, renamed(q, m), acc, ColumnIntervals(acc), JoinSet(acc), invert(m)))
				g.project(fg.residuals[len(fg.residuals)-1])
			}
		}
		out = append(out, fg)
		remaining = next
	}
	return out
}

// sameGroups compares a Delta read from empty Groups with a fresh fold.
func sameGroups(t *testing.T, got []Shared, want []foldGroup) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d groups, the fold forms %d", len(got), len(want))
	}
	for i := range got {
		if diff := sameSuperset(got[i].Super, want[i].super); diff != "" {
			t.Fatalf("group %d: superset %s, the fold's %s: %s", i, got[i].Super, want[i].super, diff)
		}
		if !reflect.DeepEqual(got[i].Residuals, want[i].residuals) {
			t.Fatalf("group %d: residuals %+v, the fold's %+v", i, got[i].Residuals, want[i].residuals)
		}
	}
}

// TestGroupsMatchFreshFold drives Groups through random Add/Remove sequences
// and holds it after every step to three oracles: every member is contained
// in its group's superset; every residual a Delta reported, for groups
// changed or not since, equals residualFor recomputed from scratch against
// that superset, and the superset is the fresh fold of its members in
// joining order; and Add in name order from empty, which is MergeAll, forms
// exactly the fresh fold's groups.
func TestGroupsMatchFreshFold(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		r := rand.New(rand.NewPCG(seed, 0x6709))
		gs := NewGroups(true)
		live := map[string]*Query{}
		super := map[string]*Query{}      // member -> the superset a Delta reported
		residual := map[string]Residual{} // member -> the residual a Delta reported
		groupOf := map[string][]string{}  // superset name -> members, joining order
		next := 0
		for step := 0; step < 40; step++ {
			if len(live) == 0 || r.IntN(3) != 0 {
				q := randomQuery(r, fmt.Sprintf("q%03d", next))
				next++
				// Draw the aliases apart from the stream names.
				q = renamed(q, map[string]string{"R": pick(r, "R", "X"), "S": pick(r, "S", "Y")})
				gs.Add(q)
				live[q.Name] = q
			} else {
				names := slices.Sorted(maps.Keys(live))
				name := names[r.IntN(len(names))]
				if !gs.Remove(name) {
					t.Fatalf("seed %d: Remove(%s) of a member reports false", seed, name)
				}
				delete(live, name)
				delete(super, name)
				delete(residual, name)
			}
			if r.IntN(3) == 0 {
				continue // let changes pile up for one Delta
			}
			d := gs.Delta()
			for _, q := range d.Dropped {
				delete(groupOf, q.Name)
			}
			for _, g := range d.Changed {
				members := make([]string, len(g.Residuals))
				for i, res := range g.Residuals {
					members[i] = res.Query.Name
					super[res.Query.Name], residual[res.Query.Name] = g.Super, res
				}
				groupOf[g.Super.Name] = members
			}

			names := slices.Sorted(maps.Keys(live))
			if got := gs.Names(); !slices.Equal(got, names) {
				t.Fatalf("seed %d step %d: members %v, want %v", seed, step, got, names)
			}
			for _, name := range names {
				q, s := live[name], super[name]
				if s == nil {
					t.Fatalf("seed %d step %d: no Delta reported member %s", seed, step, name)
				}
				if !Contains(s, q) {
					t.Fatalf("seed %d step %d: %s is not contained in its superset %s", seed, step, q, s)
				}
				want := Residual{Query: q, Projection: q.Select}
				if len(groupOf[s.Name]) > 1 {
					m, err := aliasMap(s, q)
					if err != nil {
						t.Fatal(err)
					}
					want = residualFor(q, renamed(q, m), s, ColumnIntervals(s), JoinSet(s), invert(m))
				}
				if !reflect.DeepEqual(residual[name], want) {
					t.Fatalf("seed %d step %d: %s's residual %+v, from scratch %+v", seed, step, name, residual[name], want)
				}
			}
			for name, members := range groupOf {
				qs := make([]*Query, len(members))
				for i, m := range members {
					qs[i] = live[m]
				}
				if fold := freshFold(qs); len(fold) != 1 || sameSuperset(super[members[0]], fold[0].super) != "" {
					t.Fatalf("seed %d step %d: group %s of %v is not MergeAll's fold of its members", seed, step, name, members)
				}
			}

			fresh := NewGroups(true)
			qs := make([]*Query, len(names))
			for i, name := range names {
				qs[i] = live[name]
				fresh.Add(qs[i])
			}
			sameGroups(t, fresh.Delta().Changed, freshFold(qs))
		}
	}
}

func pick(r *rand.Rand, xs ...string) string { return xs[r.IntN(len(xs))] }

// TestGroupsDeltaReportsOnlyChanges: a query of another shape leaves a group
// out of the Delta; a newcomer that joins reports its group under the same
// superset name; the last member's removal drops it.
func TestGroupsDeltaReportsOnlyChanges(t *testing.T) {
	mk := func(name, text string) *Query {
		q := MustParse(text)
		q.Name = name
		return q
	}
	gs := NewGroups(true)
	gs.Add(mk("a", `SELECT * FROM R [Now] WHERE R.x > 1`))
	first := gs.Delta()
	if len(first.Changed) != 1 || len(first.Dropped) != 0 {
		t.Fatalf("first Delta %+v, want one new group", first)
	}
	ran := first.Changed[0].Super
	name := ran.Name
	gs.Add(mk("b", `SELECT * FROM S [Now] WHERE S.x > 1`))
	if d := gs.Delta(); len(d.Changed) != 1 || d.Changed[0].Super.Name == name || len(d.Dropped) != 0 {
		t.Fatalf("a query over another stream reported %+v", d)
	}
	gs.Add(mk("c", `SELECT * FROM R [Now] Z WHERE Z.x > 0`))
	d := gs.Delta()
	if len(d.Dropped) != 1 || d.Dropped[0] != ran || len(d.Changed) != 1 || d.Changed[0].Super.Name != name || len(d.Changed[0].Residuals) != 2 {
		t.Fatalf("joining c reported %+v, want the group %s replaced by one of two members", d, name)
	}
	if got := d.Changed[0].Residuals[1].AliasToSub; got["R"] != "Z" {
		t.Errorf("c's alias map %v, want R -> Z", got)
	}
	gs.Remove("a")
	gs.Remove("c")
	if d := gs.Delta(); len(d.Changed) != 0 || len(d.Dropped) != 1 || d.Dropped[0].Name != name {
		t.Fatalf("emptying %s reported %+v", name, d)
	}
}

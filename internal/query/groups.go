package query

import (
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Groups is §2.1's result sharing at one processor, maintained while queries
// come and go. A query joins the first live group, in creation order, whose
// superset it would widen, or founds a group of its own; MergeAll is
// Groups fed in order. A group caches its superset's column intervals, join
// set and select list strings and widens them by the newcomer alone, so one
// Add costs one merge step and not a regrouping. A superset is named after
// its group ("G7"), never after its members, so the tag a member's result
// split filters on survives other members joining and leaving.
type Groups struct {
	merge   bool
	nextID  int
	live    []*group          // in creation order
	of      map[string]*group // member name -> its group
	dropped []*Query
}

// group is one superset query and the members it serves, in joining order.
type group struct {
	shape    string // shapeOf its members; "" when no other query may join
	super    *Query
	members  []*Query
	ivs      map[string]Interval // ColumnIntervals(super)
	joins    map[string]bool     // JoinSet(super)
	have     map[string]bool     // the strings of super's select list
	touched  bool                // changed since the last Delta
	reported bool                // its superset, as last reported, runs
}

// Shared is a group as a Delta reports it: the superset its processor runs
// and, per member in joining order, its residual.
type Shared struct {
	Super     *Query
	Residuals []Residual
}

// Delta is what changed since the previous Delta call: the supersets to stop
// running, those of groups that changed or lost their last member, and then
// the groups to start, founded or changed, in creation order. A changed
// group's superset keeps its name.
type Delta struct {
	Dropped []*Query
	Changed []Shared
}

// NewGroups returns empty groups; with merge false every query runs alone.
func NewGroups(merge bool) *Groups {
	return &Groups{merge: merge, of: make(map[string]*group)}
}

// Names returns the members' names, sorted.
func (gs *Groups) Names() []string { return slices.Sorted(maps.Keys(gs.of)) }

// Add places q, unless it is a member already, in the first live group of
// its shape whose superset it would widen, else in a new group.
func (gs *Groups) Add(q *Query) {
	if gs.of[q.Name] != nil {
		return
	}
	shape := ""
	if gs.merge {
		shape = shapeOf(q)
	}
	for _, g := range gs.live {
		if ran := g.super; shape != "" && g.shape == shape && g.join(q) {
			gs.of[q.Name] = g
			gs.changed(g, ran)
			return
		}
	}
	g := &group{shape: shape, touched: true}
	g.seed(q, "G"+strconv.Itoa(gs.nextID))
	gs.nextID++
	gs.of[q.Name] = g
	gs.live = append(gs.live, g)
}

// Remove takes the named member out of its group and refolds only that
// group's superset from the members that remain, in joining order. A member
// the refold does not admit (a dialect corner a join rejects) is added anew.
// It reports whether the name was a member.
func (gs *Groups) Remove(name string) bool {
	g := gs.of[name]
	if g == nil {
		return false
	}
	delete(gs.of, name)
	ran, members := g.super, g.members
	g.members = nil
	var evicted []*Query
	for _, q := range members {
		switch {
		case q.Name == name:
		case len(g.members) == 0:
			g.seed(q, ran.Name)
		case !g.join(q):
			delete(gs.of, q.Name)
			evicted = append(evicted, q)
		}
	}
	gs.changed(g, ran)
	if len(g.members) == 0 {
		gs.live = slices.DeleteFunc(gs.live, func(o *group) bool { return o == g })
	}
	for _, q := range evicted {
		gs.Add(q)
	}
	return true
}

// changed marks g for the next Delta; ran is the superset before the change,
// which stops running if it was reported.
func (gs *Groups) changed(g *group, ran *Query) {
	if g.reported {
		gs.dropped = append(gs.dropped, ran)
	}
	g.touched, g.reported = true, false
}

// Delta returns the changes since the previous call and forgets them,
// deriving each changed group's residuals once.
func (gs *Groups) Delta() Delta {
	d := Delta{Dropped: gs.dropped}
	gs.dropped = nil
	for _, g := range gs.live {
		if g.touched {
			d.Changed = append(d.Changed, Shared{Super: g.super, Residuals: g.residuals()})
			g.touched, g.reported = false, true
		}
	}
	return d
}

// seed makes q the only member and a copy of it named name the superset.
func (g *group) seed(q *Query, name string) {
	g.super = &Query{Name: name, From: slices.Clone(q.From), Where: slices.Clone(q.Where), Select: slices.Clone(q.Select)}
	g.members = []*Query{q}
	g.ivs, g.joins = ColumnIntervals(q), JoinSet(q)
	g.have = selectSet(g.super)
}

// join widens the superset by q, reading its cached state, and reports
// whether the result passes Validate and contains both the superset and q.
// A group's members share its join set (shapeOf). What the residuals read is
// projected once they are derived: a bound or window a superset widens is
// some member's own, so that member's residual reads the same column.
func (g *group) join(q *Query) bool {
	m, err := aliasMap(g.super, q)
	if err != nil {
		return false
	}
	r := renamed(q, m)
	rivs := ColumnIntervals(r)
	super := &Query{Name: g.super.Name, From: slices.Clone(g.super.From)}
	for i, ref := range super.From {
		if rr, ok := r.RefByAlias(ref.Alias); ok {
			super.From[i].Window = MaxWindow(ref.Window, rr.Window)
		}
	}
	keys := make([]string, 0, len(g.ivs))
	for k := range g.ivs {
		if _, ok := rivs[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	ivs := make(map[string]Interval, len(keys)) // ColumnIntervals(super), fold by fold
	for _, k := range keys {
		col := colOf(k, g.super)
		if col.Attr == "" {
			col = colOf(k, r)
		}
		preds := g.ivs[k].Union(rivs[k]).Predicates(col)
		if len(preds) > 0 {
			iv := FullInterval()
			for _, p := range preds {
				iv = iv.Constrain(p.Op, *p.Right.Lit)
			}
			ivs[k] = iv
		}
		super.Where = append(super.Where, preds...)
	}
	for _, p := range g.super.JoinPredicates() {
		super.Where = append(super.Where, p.Normalize())
	}
	super.Select = slices.Clone(g.super.Select)
	for _, p := range r.Select {
		if !g.have[p.String()] && !slices.Contains(super.Select[len(g.super.Select):], p) {
			super.Select = append(super.Select, p)
		}
	}
	if super.Validate() != nil || !covers(super, g.super, g.ivs, g.joins) || !covers(super, r, rivs, g.joins) {
		return false
	}
	for _, p := range super.Select[len(g.super.Select):] {
		g.have[p.String()] = true
	}
	g.super, g.ivs = super, ivs
	g.members = append(g.members, q)
	return true
}

// residuals derives every member's residual against the superset and
// projects what they read off its result stream. A lone member recovers its
// result by the tag alone.
func (g *group) residuals() []Residual {
	if len(g.members) == 1 {
		q := g.members[0]
		return []Residual{{Query: q, Projection: q.Select}}
	}
	out := make([]Residual, len(g.members))
	for i, q := range g.members {
		m, _ := aliasMap(g.super, q) // join admitted q, so its streams match
		out[i] = residualFor(q, renamed(q, m), g.super, g.ivs, g.joins, invert(m))
		g.project(out[i])
	}
	return out
}

// project extends the superset's select list with what residual r reads off
// its result tuples and no star already carries: every column a filter
// reads, alias.timestamp for every window it re-checks included. Without
// them the split loses every result of a member that filters on a column its
// own select list omits.
func (g *group) project(r Residual) {
	add := func(c *ColRef) {
		if c == nil || g.have["*"] || g.have[c.Alias+".*"] || g.have[c.String()] {
			return
		}
		g.have[c.String()] = true
		g.super.Select = append(g.super.Select, Projection{Col: *c})
	}
	for _, f := range r.Filters {
		add(f.Left.Col)
		add(f.Right.Col)
	}
}

// selectSet returns the strings of q's select list ("*", "A.*", "A.x").
func selectSet(q *Query) map[string]bool {
	have := make(map[string]bool, len(q.Select))
	for _, p := range q.Select {
		have[p.String()] = true
	}
	return have
}

// shapeOf is what two queries must share to share a group: the stream set
// and the join set, named by stream instead of by alias. A self-join has no
// shape (it always runs alone).
func shapeOf(q *Query) string {
	toStream := make(map[string]string, len(q.From))
	streams := make([]string, 0, len(q.From))
	for _, r := range q.From {
		if slices.Contains(streams, r.Stream) {
			return ""
		}
		toStream[r.Alias] = r.Stream
		streams = append(streams, r.Stream)
	}
	sort.Strings(streams)
	var joins []string
	for _, p := range q.JoinPredicates() {
		joins = append(joins, renamePredicate(p, toStream).Normalize().String())
	}
	sort.Strings(joins)
	return strings.Join(streams, ",") + "|" + strings.Join(joins, "&")
}

package hierarchy

import (
	"repro/internal/mapping"
	"repro/internal/querygraph"
	"repro/internal/topology"
)

// Remove withdraws a query from the coordinator tree — the teardown
// counterpart of Insert (§3.6). Walking the ancestor chain of the query's
// processor (exactly the coordinators whose state the query lives in,
// whether it arrived via the initial distribution, PlaceAt, or online
// insertion), each level removes the query's graph vertex — or shrinks the
// merged vertex containing it; querygraph deletes what the vertex lost from
// its maintained inverted index — retires the assignment entry, and
// recomputes the per-target loads from the surviving vertices. Sustained
// submit/cancel churn therefore keeps the optimizer's load picture exact:
// after the last removal every coordinator holds zero query vertices and
// zero load, and nothing of the query biases later insertions or adaptation
// rounds. Returns the processor the query was placed on and whether the
// query was known (removing an unknown or already-removed name is a no-op).
func (t *Tree) Remove(name string) (topology.NodeID, bool) {
	q, known := t.queries[name]
	if !known {
		return -1, false
	}
	proc, placed := t.placement[name]
	delete(t.queries, name)
	delete(t.placement, name)
	if !placed {
		return -1, true
	}
	for c := t.leafOf[proc]; c != nil; c = c.Parent {
		if c.graph == nil {
			continue
		}
		t.removeQueryAt(c, name, q)
	}
	return proc, true
}

// removeQueryAt erases one query from a coordinator's mapped state. A
// single-query vertex is removed outright (the graph repairs its inverted
// index in place and the slot's assignment is retired); a merged vertex is
// shrunk to its surviving constituents, its edges re-estimated from the new
// content. Either way the per-target loads are recomputed from the
// surviving vertex weights — bit-exact, not decayed by subtract-and-drift.
func (t *Tree) removeQueryAt(c *Coordinator, name string, _ querygraph.QueryInfo) {
	g := c.graph
	vi, ok := c.byQuery[name]
	if !ok {
		return // not represented at this level (nothing to repair)
	}
	delete(c.byQuery, name)
	v := g.Vertices[vi]
	if v == nil {
		return // defensive: the index should never point at a freed slot
	}
	qi := -1
	for j := range v.Queries {
		if v.Queries[j].Name == name {
			qi = j
			break
		}
	}
	if qi < 0 {
		return // defensive: index and vertex content disagree
	}
	if len(v.Queries) == 1 {
		g.RemoveVertex(vi)
		if vi < len(c.assign) {
			c.assign[vi] = mapping.Unassigned
		}
	} else {
		g.ShrinkVertex(vi, shrunkVertex(v, qi))
	}
	c.loads = mapping.Loads(g, c.ng, c.assign)
}

// shrunkVertex rebuilds a merged vertex without its qi-th constituent query:
// weight, state size, interest union and per-proxy result rates are
// recomputed from the survivors (content only ever shrinks, which is what
// lets querygraph repair the index in place). The vertex identity (tag, key,
// grain, pin) is preserved; the old vertex object is left untouched — it may
// be shared with expansion registries.
func shrunkVertex(v *querygraph.Vertex, qi int) *querygraph.Vertex {
	nv := &querygraph.Vertex{
		Nodes:      append([]topology.NodeID(nil), v.Nodes...),
		Clu:        v.Clu,
		Assignable: v.Assignable,
		Tag:        v.Tag,
		Key:        v.Key,
		Grain:      v.Grain,
	}
	nv.Queries = make([]querygraph.QueryInfo, 0, len(v.Queries)-1)
	for j := range v.Queries {
		if j != qi {
			nv.Queries = append(nv.Queries, v.Queries[j])
		}
	}
	for _, q := range nv.Queries {
		nv.Weight += q.Load
		nv.StateSize += q.StateSize
		if q.Interest != nil {
			if nv.Interest == nil {
				nv.Interest = q.Interest.Clone()
			} else {
				_ = nv.Interest.Or(q.Interest) // lengths equal within one graph
			}
		}
		if nv.ResultRates == nil {
			nv.ResultRates = make(map[topology.NodeID]float64)
		}
		nv.ResultRates[q.Proxy] += q.ResultRate
	}
	return nv
}

// Residual reports the query state the tree still holds anywhere: the
// registered query count, the query-bearing vertices across every
// coordinator's mapped graph, and the summed per-target loads. All three
// are zero exactly when every submitted query has been removed — the
// coordinator-tree half of the drain-to-empty invariant the churn-soak
// asserts.
//
//lint:deadcode drain-to-empty oracle of TestCancelRemovesCoordinatorState, TestRemoveKeepsStateExact and the churn soaks (runSoak)
func (t *Tree) Residual() (queries, vertices int, load float64) {
	queries = len(t.queries)
	if len(t.placement) > queries {
		queries = len(t.placement)
	}
	for _, c := range t.All {
		if c.graph == nil {
			continue
		}
		for _, v := range c.graph.Vertices {
			if v != nil && len(v.Queries) > 0 {
				vertices++
			}
		}
		for _, l := range c.loads {
			load += l
		}
	}
	return queries, vertices, load
}

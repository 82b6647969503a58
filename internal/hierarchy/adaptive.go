package hierarchy

import (
	"fmt"
	"sort"

	"repro/internal/adapt"
	"repro/internal/mapping"
	"repro/internal/querygraph"
)

// AdaptReport summarizes one adaptation round (§3.7).
type AdaptReport struct {
	// Migrations counts queries whose processor changed this round.
	Migrations int
}

// Adapt runs one hierarchical adaptation round, initiated at the root and
// propagated level by level (§3.7): every coordinator refreshes statistics,
// runs the two-phase Algorithm 3 (diffusion-guided re-balance plus
// refinement) over its level, and hands each child its share — expanding
// vertices that migrated in from other subtrees via the tagging
// coordinators' registries. Queries physically migrate only at the end,
// which is when the report counts them.
//
// loadOf, when non-nil, supplies refreshed per-query load estimates (§3.8);
// stream-rate changes are picked up automatically because the tree shares
// the rate slice passed to Distribute.
func (t *Tree) Adapt(loadOf func(name string) float64) (*AdaptReport, error) {
	if t.Root.graph == nil {
		return nil, fmt.Errorf("hierarchy: no distribution state; run Distribute first")
	}
	if loadOf != nil {
		t.loadOf = loadOf
	}
	prev := t.Placement()

	// Refresh per-query load estimates (§3.8).
	if t.loadOf != nil {
		for name, q := range t.queries {
			q.Load = t.loadOf(name)
			t.queries[name] = q
		}
	}
	// Periodic query-graph propagation (§3.4): rebuild the interest-based
	// hierarchy bottom-up over the current query set, so coarse vertices
	// reflect current statistics and group structure rather than the
	// grouping frozen at initial-distribution time.
	queries := make([]querygraph.QueryInfo, 0, len(t.queries))
	for _, q := range t.queries {
		queries = append(queries, q)
	}
	sort.Slice(queries, func(i, j int) bool { return queries[i].Name < queries[j].Name })
	// Downward pass against the current placement. Coarsening groups by
	// interest, as in the initial distribution: interest-grouped vertices
	// let the rebalance escape the local minima single-query moves cannot.
	// The per-coordinator RNG is fixed, so the grouping is stable across
	// rounds and a vertex's constituents are co-located from the previous
	// round; the warm majority start is then exact except right after
	// workload changes. At the leaf, queries stay atomic: the diffusion
	// flows of Algorithm 3 are small relative to coarse-chunk weights, and
	// per-processor balancing needs query granularity.
	if err := t.run(queries, descent{assign: t.rebalanceAssign, atomicLeaves: true}, true); err != nil {
		return nil, err
	}

	rep := &AdaptReport{}
	for name, proc := range t.placement {
		if old, ok := prev[name]; ok && old != proc {
			rep.Migrations++
		}
	}
	return rep, nil
}

// warmAssign starts every coarse vertex on the target where its queries
// live now (warmTarget) and gives each vertex with no placed query the
// mapper's best target for the loads so far. When every query is placed,
// it installs the current placement verbatim.
func (t *Tree) warmAssign(c *Coordinator, g *querygraph.Graph, m *mapping.Mapper) (mapping.Assignment, error) {
	assign := make(mapping.Assignment, len(g.Vertices))
	loads := make([]float64, c.ng.Len())
	for vi, v := range g.Vertices {
		assign[vi] = mapping.Unassigned
		if v.IsN() {
			assign[vi] = v.Clu
		} else if k := t.warmTarget(c, v); k >= 0 {
			assign[vi] = k
		}
		if assign[vi] >= 0 {
			loads[assign[vi]] += v.Weight
		}
	}
	for vi, v := range g.Vertices {
		if assign[vi] == mapping.Unassigned {
			assign[vi] = m.BestTarget(assign, vi, loads)
			loads[assign[vi]] += v.Weight
		}
	}
	return assign, nil
}

// rebalanceAssign is Adapt's assign step: the warm start, then Algorithm 3
// (diffusion-guided re-balance plus refinement) over this level.
func (t *Tree) rebalanceAssign(c *Coordinator, g *querygraph.Graph, m *mapping.Mapper) (mapping.Assignment, error) {
	warm, err := t.warmAssign(c, g, m)
	if err != nil {
		return nil, err
	}
	return adapt.Rebalance(g, c.ng, warm, adapt.Options{Rng: t.coordRng(c)})
}

// samePlacedProc reports whether two query-bearing vertices are currently
// placed on the same processor (pure n-vertices merge freely). Because it
// is applied at every coarsening step, vertices stay placement-pure by
// induction and checking the first constituent suffices. placeMu guards the
// map read against concurrent leaf installs in sibling subtrees; the
// entries read here belong to this subtree and are stable for the round.
func (t *Tree) samePlacedProc(u, v *querygraph.Vertex) bool {
	if len(u.Queries) == 0 || len(v.Queries) == 0 {
		return true
	}
	t.placeMu.Lock()
	pu, okU := t.placement[u.Queries[0].Name]
	pv, okV := t.placement[v.Queries[0].Name]
	t.placeMu.Unlock()
	return okU && okV && pu == pv
}

// warmTarget returns the target index at c where the vertex's constituent
// queries currently live (load-weighted majority), or -1 when unknown.
// placeMu guards the placement reads during the parallel descent; a
// subtree's warm reads only ever see its own pre-round entries, so the
// result does not depend on sibling progress.
func (t *Tree) warmTarget(c *Coordinator, v *querygraph.Vertex) int {
	weights := make(map[int]float64)
	t.placeMu.Lock()
	defer t.placeMu.Unlock()
	for _, q := range v.Queries {
		proc, ok := t.placement[q.Name]
		if !ok {
			continue
		}
		if k, covered := c.childOfNode[proc]; covered {
			w := q.Load
			if w <= 0 {
				w = 1e-9
			}
			weights[k] += w
		}
	}
	best, bestW := -1, 0.0
	for k, w := range weights {
		if w > bestW || (w == bestW && (best < 0 || k < best)) {
			best, bestW = k, w
		}
	}
	return best
}

// refreshWeights re-sums q-vertex weights from their queries' loads, which
// Adapt refreshed from the installed estimator (§3.8) when the round
// started. Without an estimator, the weights coarsening summed are kept.
func (t *Tree) refreshWeights(g *querygraph.Graph) {
	if t.loadOf == nil {
		return
	}
	for _, v := range g.Vertices {
		if v == nil || len(v.Queries) == 0 {
			continue
		}
		var sum float64
		for _, q := range v.Queries {
			sum += q.Load
		}
		v.Weight = sum
	}
}

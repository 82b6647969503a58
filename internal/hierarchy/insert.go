package hierarchy

import (
	"fmt"
	"math"

	"repro/internal/mapping"
	"repro/internal/querygraph"
	"repro/internal/topology"
)

// Insert routes a new query through the coordinator tree (§3.6): starting
// at the root, each coordinator estimates the new vertex's edges against its
// current query graph, picks the child that minimizes the WEC increase
// without violating the load constraint, and forwards the query; the leaf
// assigns a processor. It returns the chosen processor.
//
// Distribute must have run first so coordinators have mapped state.
func (t *Tree) Insert(q querygraph.QueryInfo) (topology.NodeID, error) {
	c := t.Root
	for {
		if c.graph == nil || c.ng == nil {
			return -1, fmt.Errorf("hierarchy: %s has no distribution state; run Distribute first", c.Name)
		}
		k, err := t.routeAt(c, q)
		if err != nil {
			return -1, err
		}
		c.record(atomVertex(q), k)

		if c.IsLeaf() {
			proc := c.ng.Vertices[k].Node
			t.placement[q.Name] = proc
			t.queries[q.Name] = q
			return proc, nil
		}
		c = c.Children[k]
	}
}

// RouteAtRoot performs only the root coordinator's routing decision for a
// query, without inserting it — the primitive timed by the throughput
// experiment of Fig 9(b), which studies the root because it is the
// potential bottleneck of the system (§3.6).
func (t *Tree) RouteAtRoot(q querygraph.QueryInfo) (int, error) {
	if t.Root.graph == nil {
		return -1, fmt.Errorf("hierarchy: no distribution state; run Distribute first")
	}
	return t.routeAt(t.Root, q)
}

// routeAt scores every assignable target of c for the new query and returns
// the best one. The cost of a target is the WEC increase: overlap edges
// against the coordinator's current query vertices plus source and result
// edges against the query's referenced nodes, each weighted by the latency
// from the candidate target to the referenced vertex's current position.
//
// The WEC increase is assembled in two steps: every edge contribution is
// first bucketed by the network-graph position it is anchored at (the
// overlap weights come from the graph's inverted substream index, touching
// only vertices that share a substream with q), and the per-target costs
// are then |positions| dot products against hoisted latency rows — instead
// of |Vq|·|targets| Latency() calls.
func (t *Tree) routeAt(c *Coordinator, q querygraph.QueryInfo) (int, error) {
	g, ng := c.graph, c.ng
	n := c.assignableCount()
	costs := make([]float64, n)

	wByPos := make([]float64, ng.Len())
	touched := make([]int, 0, 16)
	anchor := func(pos int, w float64) {
		if wByPos[pos] == 0 && w != 0 {
			touched = append(touched, pos)
		}
		wByPos[pos] += w
	}

	// Overlap edges to existing query vertices.
	g.ForEachOverlap(q.Interest, func(vi int, w float64) {
		v := g.Vertices[vi]
		if len(v.Queries) == 0 || c.assign[vi] < 0 || w == 0 {
			return
		}
		anchor(c.assign[vi], w)
	})
	// Source edges: demand per origin node of the query's substreams.
	for _, idx := range q.Interest.Indices() {
		rate := g.SubRates[idx]
		if rate == 0 {
			continue
		}
		src := g.SourceOfSub[idx]
		pin, _, ok := c.pinOf(src)
		if !ok {
			continue
		}
		anchor(pin, rate)
	}
	// Result edge to the proxy.
	if pin, _, ok := c.pinOf(q.Proxy); ok {
		anchor(pin, q.ResultRate)
	}
	for k := 0; k < n; k++ {
		row := ng.Row(k)
		var cost float64
		for _, pos := range touched {
			cost += wByPos[pos] * row[pos]
		}
		costs[k] = cost
	}

	// Load feasibility under Eqn 3.1 with the query's load included.
	total := q.Load
	for _, l := range c.loads {
		total += l
	}
	bestK, bestCost := -1, math.Inf(1)
	bestOverK, bestOver := -1, math.Inf(1)
	for k := 0; k < n; k++ {
		cap := (1 + t.Cfg.Alpha) * ng.Vertices[k].Capability * total / ng.TotalCapability()
		if c.loads[k]+q.Load <= cap {
			if costs[k] < bestCost {
				bestK, bestCost = k, costs[k]
			}
		} else if over := c.loads[k] + q.Load - cap; over < bestOver {
			bestOverK, bestOver = k, over
		}
	}
	if bestK >= 0 {
		return bestK, nil
	}
	if bestOverK >= 0 {
		return bestOverK, nil
	}
	return -1, fmt.Errorf("hierarchy: %s has no assignable target", c.Name)
}

// record installs the atomic vertex v of a newly arrived query in c's graph
// on target k, so subsequent insertions and adaptation rounds see it. The
// graph posts the vertex to its inverted index in place; its edges are only
// materialized by the next adaptation round's ComputeEdges. AddVertex may
// reuse a slot freed by an earlier removal, so the assignment entry is
// installed by ID, not appended.
func (c *Coordinator) record(v *querygraph.Vertex, k int) {
	prevLen := len(c.graph.Vertices)
	c.graph.AddVertex(v)
	c.setAssign(v.ID, k)
	c.noteQuery(v.Queries[0].Name, v.ID)
	if len(c.graph.Vertices) > prevLen {
		// Appended at the end: the O(1) increment equals the
		// vertex-order recompute exactly (old sum, then the new last
		// weight).
		if k < len(c.loads) {
			c.loads[k] += v.Weight
		}
	} else {
		// A freed mid-array slot was reused: recompute so loads stay
		// the exact vertex-order sum a removal's repair produces.
		c.loads = mapping.Loads(c.graph, c.ng, c.assign)
	}
}

// PlaceAt force-places a query on a processor, bypassing routing — the
// "Random" baseline of Fig 8 and the Naive baseline use it. The query is
// attached to the processor's leaf coordinator state so later adaptation
// rounds can move it.
func (t *Tree) PlaceAt(q querygraph.QueryInfo, proc topology.NodeID) error {
	leaf, ok := t.leafOf[proc]
	if !ok {
		return fmt.Errorf("hierarchy: node %d is not a processor", proc)
	}
	t.placement[q.Name] = proc
	t.queries[q.Name] = q
	// Thread the vertex through the ancestor chain so adaptation sees it.
	v := atomVertex(q)
	for c := leaf; c != nil; c = c.Parent {
		if c.graph == nil {
			continue
		}
		k, _, ok := c.pinOf(proc)
		if !ok {
			return fmt.Errorf("hierarchy: %s cannot pin processor %d", c.Name, proc)
		}
		c.record(v.Clone(), k)
	}
	return nil
}

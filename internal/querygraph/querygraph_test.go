package querygraph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/topology"
)

const (
	nodeA = topology.NodeID(10)
	nodeB = topology.NodeID(11)
	srcX  = topology.NodeID(20)
	srcY  = topology.NodeID(21)
)

// smallGraph builds a graph with 6 substreams: 0-2 from srcX, 3-5 from srcY,
// all rate 2.
func smallGraph(t *testing.T) *Graph {
	t.Helper()
	rates := []float64{2, 2, 2, 2, 2, 2}
	sources := []topology.NodeID{srcX, srcX, srcX, srcY, srcY, srcY}
	g, err := New(rates, sources)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func qinfo(name string, proxy topology.NodeID, subs []int, load float64) QueryInfo {
	return QueryInfo{
		Name:       name,
		Proxy:      proxy,
		Load:       load,
		Interest:   bitvec.FromIndices(6, subs),
		ResultRate: 1,
		StateSize:  load * 10,
	}
}

func TestEdgeWeights(t *testing.T) {
	g := smallGraph(t)
	q1 := g.AddQVertex(qinfo("q1", nodeA, []int{0, 1}, 0.1))
	q2 := g.AddQVertex(qinfo("q2", nodeB, []int{1, 2}, 0.1))
	nx := g.AddNVertex(srcX, 2, false)
	na := g.AddNVertex(nodeA, 0, true)
	g.ComputeEdges()

	// q1-q2 overlap: substream 1 (rate 2).
	if w, _ := g.Weight(q1.ID, q2.ID); w != 2 {
		t.Errorf("overlap edge = %v, want 2", w)
	}
	// q1-srcX demand: substreams 0,1 -> 4.
	if w, _ := g.Weight(q1.ID, nx.ID); w != 4 {
		t.Errorf("source edge = %v, want 4", w)
	}
	// q1-nodeA result edge: 1.
	if w, _ := g.Weight(q1.ID, na.ID); w != 1 {
		t.Errorf("result edge = %v, want 1", w)
	}
	// No n-n edge.
	if _, ok := g.Weight(nx.ID, na.ID); ok {
		t.Error("unexpected n-n edge")
	}
}

func TestSourceAndProxySameNode(t *testing.T) {
	g := smallGraph(t)
	// Query proxied at srcX AND pulling from srcX: one edge carrying both.
	q := g.AddQVertex(qinfo("q", srcX, []int{0}, 0.1))
	n := g.AddNVertex(srcX, 0, true)
	g.ComputeEdges()
	if w, _ := g.Weight(q.ID, n.ID); w != 2+1 {
		t.Errorf("combined edge = %v, want 3 (demand 2 + result 1)", w)
	}
}

func TestConnectVertexMatchesComputeEdges(t *testing.T) {
	g := smallGraph(t)
	g.AddQVertex(qinfo("q1", nodeA, []int{0, 1}, 0.1))
	g.AddNVertex(srcX, 1, false)
	g.ComputeEdges()
	v := g.AddQVertex(qinfo("q2", nodeB, []int{1, 2}, 0.1))
	g.ConnectVertex(v)

	g2 := smallGraph(t)
	g2.AddQVertex(qinfo("q1", nodeA, []int{0, 1}, 0.1))
	g2.AddNVertex(srcX, 1, false)
	g2.AddQVertex(qinfo("q2", nodeB, []int{1, 2}, 0.1))
	g2.ComputeEdges()

	for i := range g.Vertices {
		for _, e := range g.Neighbors(i) {
			if w2, ok := g2.Weight(i, e.To); !ok || w2 != e.W {
				t.Errorf("edge (%d,%d) = %v incrementally, %v from scratch", i, e.To, e.W, w2)
			}
		}
		if len(g.Neighbors(i)) != len(g2.Neighbors(i)) {
			t.Errorf("vertex %d degree %d vs %d", i, len(g.Neighbors(i)), len(g2.Neighbors(i)))
		}
	}
}

func TestCoarsenReachesVMax(t *testing.T) {
	g := smallGraph(t)
	for i := 0; i < 12; i++ {
		g.AddQVertex(qinfo("q", nodeA, []int{i % 6, (i + 1) % 6}, 0.1))
	}
	g.ComputeEdges()
	res := g.Coarsen(CoarsenOptions{VMax: 4, Rng: rand.New(rand.NewPCG(1, 1))})
	if got := len(res.Graph.Vertices); got > 4 {
		t.Errorf("coarsened to %d vertices, want <= 4", got)
	}
	// Every fine vertex maps to a live coarse vertex, and weights add up.
	var fineLoad, coarseLoad float64
	for _, v := range g.Vertices {
		fineLoad += v.Weight
	}
	for _, v := range res.Graph.Vertices {
		coarseLoad += v.Weight
	}
	if diff := fineLoad - coarseLoad; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("total load changed: %v -> %v", fineLoad, coarseLoad)
	}
	for fine, coarse := range res.FineToCoarse {
		if coarse < 0 || coarse >= len(res.Graph.Vertices) {
			t.Errorf("fine %d maps to invalid coarse %d", fine, coarse)
		}
	}
	for ci, fines := range res.CoarseToFine {
		for _, fi := range fines {
			if res.FineToCoarse[fi] != ci {
				t.Errorf("inconsistent coarse/fine maps at %d/%d", ci, fi)
			}
		}
	}
}

func TestCoarsenRespectsNVertexClusters(t *testing.T) {
	g := smallGraph(t)
	g.AddNVertex(nodeA, 0, true)
	g.AddNVertex(nodeB, 1, true)
	g.AddQVertex(qinfo("q1", nodeA, []int{0}, 0.1))
	g.AddQVertex(qinfo("q2", nodeB, []int{0}, 0.1))
	g.ComputeEdges()
	res := g.Coarsen(CoarsenOptions{VMax: 1, Rng: rand.New(rand.NewPCG(2, 2))})
	// The two n-vertices are pinned to different clusters and must
	// survive unmerged.
	for _, v := range res.Graph.Vertices {
		if len(v.Nodes) > 1 {
			t.Errorf("n-vertices from different clusters merged: %v", v.Nodes)
		}
	}
}

func TestCoarsenNoQN(t *testing.T) {
	g := smallGraph(t)
	g.AddNVertex(nodeA, 0, true)
	g.AddQVertex(qinfo("q1", nodeA, []int{0}, 0.1))
	g.AddQVertex(qinfo("q2", nodeA, []int{0}, 0.1))
	g.ComputeEdges()
	res := g.Coarsen(CoarsenOptions{VMax: 1, Rng: rand.New(rand.NewPCG(3, 3)), NoQN: true, CountQOnly: true})
	for _, v := range res.Graph.Vertices {
		if v.IsN() && len(v.Queries) > 0 {
			t.Errorf("q-n merge happened despite NoQN: %+v", v)
		}
	}
}

func TestCoarsenCanMergeHook(t *testing.T) {
	g := smallGraph(t)
	for i := 0; i < 6; i++ {
		g.AddQVertex(qinfo("q", nodeA, []int{0}, 0.1))
	}
	g.ComputeEdges()
	// Forbid all merges: graph must stay at 6 vertices.
	res := g.Coarsen(CoarsenOptions{
		VMax:     1,
		Rng:      rand.New(rand.NewPCG(4, 4)),
		CanMerge: func(u, v *Vertex) bool { return false },
	})
	if len(res.Graph.Vertices) != 6 {
		t.Errorf("merges happened despite CanMerge=false: %d vertices", len(res.Graph.Vertices))
	}
}

func TestCloneIndependence(t *testing.T) {
	g := smallGraph(t)
	v := g.AddQVertex(qinfo("q1", nodeA, []int{0}, 0.1))
	c := v.Clone()
	c.ResultRates[nodeB] = 9
	if _, ok := v.ResultRates[nodeB]; ok {
		t.Error("clone shares result-rate map")
	}
	c.Nodes = append(c.Nodes, nodeB)
	if len(v.Nodes) != 0 {
		t.Error("clone shares node slice")
	}
}

// TestQuickCoarsenPreservesQueries: coarsening never loses or duplicates a
// query, for random graphs and budgets.
func TestQuickCoarsenPreservesQueries(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 17))
		g, err := New([]float64{1, 1, 1, 1}, []topology.NodeID{srcX, srcX, srcY, srcY})
		if err != nil {
			return false
		}
		n := 3 + r.IntN(10)
		for i := 0; i < n; i++ {
			g.AddQVertex(QueryInfo{
				Name:     string(rune('a' + i)),
				Proxy:    nodeA,
				Load:     0.1,
				Interest: bitvec.FromIndices(4, []int{r.IntN(4), r.IntN(4)}),
			})
		}
		g.ComputeEdges()
		res := g.Coarsen(CoarsenOptions{VMax: 1 + r.IntN(n), Rng: r})
		seen := make(map[string]int)
		for _, v := range res.Graph.Vertices {
			for _, q := range v.Queries {
				seen[q.Name]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

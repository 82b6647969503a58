package querygraph

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/topology"
)

// computeEdgesNaive is the literal O(|V|²) edge construction of the model —
// every vertex pair gets one EdgeWeight evaluation. It is the reference the
// indexed ComputeEdges must match bit-for-bit.
func (g *Graph) computeEdgesNaive() {
	for i := range g.adj {
		g.adj[i] = nil
	}
	for len(g.adj) < len(g.Vertices) {
		g.adj = append(g.adj, nil)
	}
	for i := 0; i < len(g.Vertices); i++ {
		for j := i + 1; j < len(g.Vertices); j++ {
			if g.Vertices[i] == nil || g.Vertices[j] == nil {
				continue
			}
			w := g.EdgeWeight(g.Vertices[i], g.Vertices[j])
			if w > 0 {
				g.setEdge(i, j, w)
			}
		}
	}
}

// randomGraph builds a randomized query graph over a random substream space:
// q-vertices with zipf-ish interests, n-vertices for processors and sources
// (some never referenced), and prebuilt mixed coarse vertices with multiple
// queries, nodes, and result-rate entries — every vertex shape the
// hierarchy's coarsening and shipping can produce.
func randomGraph(r *rand.Rand) *Graph {
	nSub := 16 + r.IntN(120)
	nSrc := 1 + r.IntN(5)
	nProc := 2 + r.IntN(5)
	rates := make([]float64, nSub)
	sources := make([]topology.NodeID, nSub)
	for i := range rates {
		if r.IntN(5) > 0 { // leave some substreams at rate zero
			rates[i] = r.Float64() * 10
		}
		sources[i] = topology.NodeID(1000 + r.IntN(nSrc))
	}
	g, err := New(rates, sources)
	if err != nil {
		panic(err)
	}

	interest := func() *bitvec.Vector {
		iv := bitvec.New(nSub)
		for b := 1 + r.IntN(8); b > 0; b-- {
			iv.Set(r.IntN(nSub))
		}
		return iv
	}

	nQ := r.IntN(20)
	for q := 0; q < nQ; q++ {
		g.AddQVertex(QueryInfo{
			Name:       fmt.Sprintf("q%d", q),
			Proxy:      topology.NodeID(r.IntN(nProc)),
			Load:       r.Float64(),
			Interest:   interest(),
			ResultRate: r.Float64() * 2,
		})
	}
	// Mixed coarse vertices, as coarsening with q-n merges produces.
	for m := r.IntN(4); m > 0; m-- {
		v := &Vertex{
			Weight:   r.Float64(),
			Clu:      r.IntN(nProc),
			Queries:  []QueryInfo{{Name: fmt.Sprintf("m%d", m)}},
			Interest: interest(),
			ResultRates: map[topology.NodeID]float64{
				topology.NodeID(r.IntN(nProc)): r.Float64(),
				topology.NodeID(r.IntN(nProc)): r.Float64(),
			},
		}
		if r.IntN(2) == 0 {
			v.Nodes = []topology.NodeID{topology.NodeID(r.IntN(nProc))}
		}
		g.AddVertex(v)
	}
	for p := 0; p < nProc; p++ {
		g.AddNVertex(topology.NodeID(p), p, true)
	}
	for s := 0; s < nSrc; s++ {
		if r.IntN(4) > 0 { // occasionally leave a source out of the graph
			g.AddNVertex(topology.NodeID(1000+s), nProc+s, false)
		}
	}
	return g
}

func sameAdjacency(t *testing.T, label string, a, b *Graph) {
	t.Helper()
	if len(a.Vertices) != len(b.Vertices) {
		t.Fatalf("%s: vertex counts differ: %d vs %d", label, len(a.Vertices), len(b.Vertices))
	}
	for i := range a.Vertices {
		ra, rb := a.Neighbors(i), b.Neighbors(i)
		if len(ra) != len(rb) {
			t.Fatalf("%s: vertex %d degree %d vs %d", label, i, len(ra), len(rb))
		}
		for k := range ra {
			if ra[k].To != rb[k].To || ra[k].W != rb[k].W {
				t.Fatalf("%s: vertex %d entry %d: (%d,%v) vs (%d,%v)",
					label, i, k, ra[k].To, ra[k].W, rb[k].To, rb[k].W)
			}
		}
	}
}

// TestComputeEdgesMatchesNaive: the index-driven edge construction must
// reproduce the retained O(V²) reference bit-for-bit — same edge set, same
// weights — on randomized graphs.
func TestComputeEdgesMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 0xed9e))
		g := randomGraph(r)
		g.ComputeEdges()

		naive := &Graph{Space: g.Space, Vertices: g.Vertices, adj: make([][]Adj, len(g.Vertices))}
		naive.computeEdgesNaive()
		sameAdjacency(t, fmt.Sprintf("seed %d", seed), g, naive)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestConnectVertexMatchesNaive: incremental connection of a late-arriving
// vertex must agree with a from-scratch naive construction.
func TestConnectVertexMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 0xc044))
		g := randomGraph(r)
		g.ComputeEdges()

		iv := bitvec.New(len(g.SubRates))
		for b := 1 + r.IntN(6); b > 0; b-- {
			iv.Set(r.IntN(len(g.SubRates)))
		}
		v := g.AddQVertex(QueryInfo{
			Name:       "late",
			Proxy:      0,
			Load:       r.Float64(),
			Interest:   iv,
			ResultRate: r.Float64(),
		})
		g.ConnectVertex(v)

		naive := &Graph{Space: g.Space, Vertices: g.Vertices, adj: make([][]Adj, len(g.Vertices))}
		naive.computeEdgesNaive()
		sameAdjacency(t, fmt.Sprintf("seed %d", seed), g, naive)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestCoarsenEquivalentOnNaiveEdges: Coarsen's deferred, batched edge
// re-estimation must produce the same coarse graph regardless of whether
// the fine edges came from the indexed or the naive construction.
func TestCoarsenEquivalentOnNaiveEdges(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewPCG(seed, 0xc0a5))
		g := randomGraph(r)
		g.ComputeEdges()
		naive := &Graph{Space: g.Space, Vertices: g.Vertices, adj: make([][]Adj, len(g.Vertices))}
		naive.computeEdgesNaive()

		vmax := 1 + r.IntN(8)
		a := g.Coarsen(CoarsenOptions{VMax: vmax, Rng: rand.New(rand.NewPCG(seed, 1)), NoQN: true, CountQOnly: true})
		b := naive.Coarsen(CoarsenOptions{VMax: vmax, Rng: rand.New(rand.NewPCG(seed, 1)), NoQN: true, CountQOnly: true})
		sameAdjacency(t, fmt.Sprintf("seed %d", seed), a.Graph, b.Graph)
		for i := range a.FineToCoarse {
			if a.FineToCoarse[i] != b.FineToCoarse[i] {
				t.Fatalf("seed %d: fine %d coarsens to %d vs %d", seed, i, a.FineToCoarse[i], b.FineToCoarse[i])
			}
		}
	}
}

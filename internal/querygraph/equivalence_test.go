package querygraph

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/topology"
)

// EdgeWeight is the model edge weight between two vertices, evaluated from
// their content pair by pair — the reference estimate must match
// bit-for-bit:
//
//	overlap(u,v)  — rate of substreams both are interested in (q–q sharing)
//	demand(u→v)   — rate u requests from sources among v's nodes
//	demand(v→u)   — symmetric
//	result(u→v)   — result rate u sends to proxies among v's nodes
//	result(v→u)   — symmetric
func (g *Graph) EdgeWeight(u, v *Vertex) float64 {
	var w float64
	if u.Interest != nil && v.Interest != nil {
		w += g.overlapRate(u, v)
	}
	w += g.demand(u, v) + g.demand(v, u)
	w += resultTo(u, v) + resultTo(v, u)
	return w
}

// overlapRate is OverlapWeightedSum with an adaptive strategy: when either
// interest is sparse, walk its cached indices and test the other side.
// Every strategy visits the shared bits in the same ascending order, so the
// sums are identical bit-for-bit.
func (g *Graph) overlapRate(u, v *Vertex) float64 {
	su, sv := u.ensureScan(), v.ensureScan()
	lo, hi := max(su.lo, sv.lo), min(su.hi, sv.hi)
	if lo >= hi {
		return 0
	}
	switch {
	case su.idx != nil && (sv.idx == nil || len(su.idx) <= len(sv.idx)):
		return sparseOverlap(su.idx, v.Interest, g.SubRates)
	case sv.idx != nil:
		return sparseOverlap(sv.idx, u.Interest, g.SubRates)
	default:
		return u.Interest.OverlapWeightedSumRange(v.Interest, g.SubRates, int(lo), int(hi))
	}
}

// Weight returns the weight of edge i–j, if present.
func (g *Graph) Weight(i, j int) (float64, bool) {
	run := g.adj[i]
	k := searchAdj(run, j)
	if k < len(run) && run[k].To == j {
		return run[k].W, true
	}
	return 0, false
}

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
// (some never referenced), and prebuilt coarse vertices with multiple
// result-rate entries, some of them mixed (queries and a node). Coarsening
// never produces a mixed vertex, but the edge construction and Coarsen
// must still handle one, so the graph keeps them as inputs.
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
	// Prebuilt coarse vertices; about half also carry a node (mixed).
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
		g.AddNVertex(topology.NodeID(p), p)
	}
	for s := 0; s < nSrc; s++ {
		if r.IntN(4) > 0 { // occasionally leave a source out of the graph
			g.AddNVertex(topology.NodeID(1000+s), nProc+s)
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
// weights — on randomized graphs; on small graphs built right after a
// ScaleCI-sized one, whose larger build scratch they reuse; and on graphs of
// both sizes built from several goroutines at once.
func TestComputeEdgesMatchesNaive(t *testing.T) {
	matchesNaive := func(label string, g *Graph) {
		t.Helper()
		naive := &Graph{Space: g.Space, Vertices: g.Vertices, adj: make([][]Adj, len(g.Vertices))}
		naive.computeEdgesNaive()
		sameAdjacency(t, label, g, naive)
	}
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 0xed9e))
		g := randomGraph(r)
		g.ComputeEdges()
		matchesNaive(fmt.Sprintf("seed %d", seed), g)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}

	big := scaleCIGraph(2)
	for seed := uint64(0); seed < 4; seed++ {
		big.ComputeEdges()
		g := randomGraph(rand.New(rand.NewPCG(seed, 0xb16)))
		g.ComputeEdges()
		matchesNaive(fmt.Sprintf("after ScaleCI, seed %d", seed), g)
	}
	matchesNaive("ScaleCI after small", big)

	graphs := concurrently(6, func(i int) *Graph {
		g := randomGraph(rand.New(rand.NewPCG(uint64(i), 0xc0c)))
		if i%3 == 0 {
			g = scaleCIGraph(uint64(i))
		}
		g.ComputeEdges()
		return g
	})
	for i, g := range graphs {
		matchesNaive(fmt.Sprintf("concurrent build %d", i), g)
	}
}

// concurrently runs fn(0..n-1) on n goroutines at once and returns the
// results in index order.
func concurrently[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = fn(i)
		}()
	}
	wg.Wait()
	return out
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

// TestReconnectVertexWithNodesMatchesNaive: re-estimating a vertex that has
// nodes — a source's n-vertex removed and connected afresh, a mixed vertex
// shrunk in place — takes every candidate's demand toward it pairwise; the
// edges must still equal the naive construction.
func TestReconnectVertexWithNodesMatchesNaive(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		r := rand.New(rand.NewPCG(seed, 0x5a1f))
		g := randomGraph(r)
		g.ComputeEdges()
		for id, v := range g.Vertices {
			switch {
			case !v.IsN():
			case len(v.Queries) == 0:
				g.RemoveVertex(id)
				g.ConnectVertex(g.AddNVertex(v.Nodes[0], v.Clu))
			default:
				// Shrink to the lowest interest bit, nodes and result
				// keys kept; a fresh vertex, so no scan cache survives.
				iv := bitvec.New(len(g.SubRates))
				iv.Set(v.Interest.Indices()[0])
				rr := make(map[topology.NodeID]float64, len(v.ResultRates))
				for n, w := range v.ResultRates {
					rr[n] = w
				}
				g.ShrinkVertex(id, &Vertex{
					Weight: v.Weight, Clu: v.Clu,
					Nodes:   append([]topology.NodeID(nil), v.Nodes...),
					Queries: v.Queries, Interest: iv, ResultRates: rr,
				})
			}
		}
		naive := &Graph{Space: g.Space, Vertices: g.Vertices, adj: make([][]Adj, len(g.Vertices))}
		naive.computeEdgesNaive()
		sameAdjacency(t, fmt.Sprintf("seed %d", seed), g, naive)
	}
}

// checkCoarsened holds a Coarsen result to the model: no nil slot, every
// fine vertex mapped onto a live coarse vertex, no coarse vertex merging an
// n-vertex (IsN) with a vertex that is not one, and the adjacency equal, bit
// for bit, to the naive construction over the coarse vertices.
func checkCoarsened(t *testing.T, label string, fine *Graph, res *CoarsenResult) {
	t.Helper()
	cg := res.Graph
	for i, v := range cg.Vertices {
		if v == nil {
			t.Fatalf("%s: coarse slot %d is nil", label, i)
		}
	}
	if len(res.FineToCoarse) != len(fine.Vertices) {
		t.Fatalf("%s: %d fine vertices mapped, want %d", label, len(res.FineToCoarse), len(fine.Vertices))
	}
	for f, c := range res.FineToCoarse {
		if c < 0 || c >= len(cg.Vertices) {
			t.Fatalf("%s: fine %d maps to %d, outside the %d coarse vertices", label, f, c, len(cg.Vertices))
		}
	}
	for c, fs := range res.CoarseToFine {
		for _, f := range fs[1:] {
			if fine.Vertices[f].IsN() != fine.Vertices[fs[0]].IsN() {
				t.Fatalf("%s: coarse %d merges fine %d (IsN %v) with fine %d (IsN %v)",
					label, c, fs[0], fine.Vertices[fs[0]].IsN(), f, fine.Vertices[f].IsN())
			}
		}
	}
	naive := &Graph{Space: cg.Space, Vertices: cg.Vertices, adj: make([][]Adj, len(cg.Vertices))}
	naive.computeEdgesNaive()
	sameAdjacency(t, label, cg, naive)
}

// TestCoarsenCompactsUncountedRound: a round whose only merges do not count
// against VMax — a mixed q+n vertex absorbing a same-cluster n-vertex —
// must still end in compact. Coarsen used to stop ahead of it, returning the
// emptied slot as a nil vertex that a FineToCoarse entry pointed at, with the
// merged vertex's edges never re-estimated (seed 73 is the first of the
// seeds that did).
func TestCoarsenCompactsUncountedRound(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		r := rand.New(rand.NewPCG(seed, 0xc0a6))
		g := randomGraph(r)
		g.ComputeEdges()
		res := g.Coarsen(CoarsenOptions{VMax: 1 + r.IntN(8), Rng: rand.New(rand.NewPCG(seed, 2))})
		checkCoarsened(t, fmt.Sprintf("seed %d", seed), g, res)
	}
}

// sameHome is a CanMerge gate in the shape of the adaptation path's
// same-processor rule: query-bearing vertices merge only within one home
// (here, the parity of the first query's name length), n-vertices freely.
func sameHome(u, v *Vertex) bool {
	if len(u.Queries) == 0 || len(v.Queries) == 0 {
		return true
	}
	return len(u.Queries[0].Name)%2 == len(v.Queries[0].Name)%2
}

// scaleCIGraph builds a graph the size of a ScaleCI coordinator's: 6 000
// substreams over 8 sources, 500 queries of 20–40 substreams drawn around 10
// interest groups, proxies on 16 processors pinned four to a child cluster,
// and the source and proxy n-vertices a coordinator's graph carries.
func scaleCIGraph(seed uint64) *Graph {
	r := rand.New(rand.NewPCG(seed, 0x5ca1e))
	const nSub, nSrc, nProc, groups = 6000, 8, 16, 10
	rates := make([]float64, nSub)
	sources := make([]topology.NodeID, nSub)
	for i := range rates {
		rates[i] = 1 + 9*r.Float64()
		sources[i] = topology.NodeID(1000 + i*nSrc/nSub)
	}
	g, err := New(rates, sources)
	if err != nil {
		panic(err)
	}
	for q := 0; q < 500; q++ {
		iv := bitvec.New(nSub)
		base := r.IntN(groups) * (nSub / groups)
		for b := 20 + r.IntN(21); b > 0; b-- {
			iv.Set(base + r.IntN(nSub/groups/4))
		}
		g.AddQVertex(QueryInfo{
			Name:       fmt.Sprintf("q%d", q),
			Proxy:      topology.NodeID(r.IntN(nProc)),
			Load:       r.Float64(),
			Interest:   iv,
			ResultRate: r.Float64(),
		})
	}
	for p := 0; p < nProc; p++ {
		g.AddNVertex(topology.NodeID(p), p/4)
	}
	for s := 0; s < nSrc; s++ {
		g.AddNVertex(topology.NodeID(1000+s), nProc/4+s)
	}
	return g
}

// TestCoarsenedEdgesMatchNaive: every coarse graph Coarsen returns must be
// one the model could have built from scratch. Over random graphs, with and
// without a CanMerge gate, on one ScaleCI-sized graph,
// on small graphs coarsened right after a ScaleCI-sized one, and on graphs
// of both sizes coarsened from several goroutines at once, checkCoarsened
// holds the result to the naive construction.
func TestCoarsenedEdgesMatchNaive(t *testing.T) {
	ciOpts := func() CoarsenOptions {
		return CoarsenOptions{VMax: 40, Rng: rand.New(rand.NewPCG(7, 7))}
	}
	for seed := uint64(0); seed < 400; seed++ {
		for variant := uint64(0); variant < 2; variant++ {
			r := rand.New(rand.NewPCG(seed, 0xc0a7))
			g := randomGraph(r)
			g.ComputeEdges()
			opts := CoarsenOptions{VMax: 1 + r.IntN(8), Rng: rand.New(rand.NewPCG(seed, variant))}
			if variant == 1 {
				opts.CanMerge = sameHome
			}
			checkCoarsened(t, fmt.Sprintf("seed %d variant %d", seed, variant), g, g.Coarsen(opts))
		}
	}
	g := scaleCIGraph(1)
	g.ComputeEdges()
	checkCoarsened(t, "ScaleCI", g, g.Coarsen(ciOpts()))

	for seed := uint64(0); seed < 4; seed++ {
		g.Coarsen(ciOpts())
		small := randomGraph(rand.New(rand.NewPCG(seed, 0xb17)))
		small.ComputeEdges()
		opts := CoarsenOptions{VMax: 1 + int(seed), Rng: rand.New(rand.NewPCG(seed, 3))}
		checkCoarsened(t, fmt.Sprintf("after ScaleCI, seed %d", seed), small, small.Coarsen(opts))
	}

	fines := concurrently(6, func(i int) *Graph {
		g := randomGraph(rand.New(rand.NewPCG(uint64(i), 0xc0d)))
		if i%3 == 0 {
			g = scaleCIGraph(uint64(i))
		}
		g.ComputeEdges()
		return g
	})
	coarse := concurrently(len(fines), func(i int) *CoarsenResult {
		opts := ciOpts()
		if i%3 != 0 {
			opts.VMax = 1 + i
		}
		return fines[i].Coarsen(opts)
	})
	for i, res := range coarse {
		checkCoarsened(t, fmt.Sprintf("concurrent coarsen %d", i), fines[i], res)
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
		a := g.Coarsen(CoarsenOptions{VMax: vmax, Rng: rand.New(rand.NewPCG(seed, 1))})
		b := naive.Coarsen(CoarsenOptions{VMax: vmax, Rng: rand.New(rand.NewPCG(seed, 1))})
		sameAdjacency(t, fmt.Sprintf("seed %d", seed), a.Graph, b.Graph)
		for i := range a.FineToCoarse {
			if a.FineToCoarse[i] != b.FineToCoarse[i] {
				t.Fatalf("seed %d: fine %d coarsens to %d vs %d", seed, i, a.FineToCoarse[i], b.FineToCoarse[i])
			}
		}
	}
}

package mapping

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/netgraph"
	"repro/internal/querygraph"
	"repro/internal/topology"
)

// randomInstance builds a random mapping problem with nProc processors and
// nQ queries over 8 substreams.
func randomInstance(t testing.TB, seed uint64, nProc, nQ int) (*querygraph.Graph, *netgraph.Graph) {
	r := rand.New(rand.NewPCG(seed, 23))
	rates := make([]float64, 8)
	sources := make([]topology.NodeID, 8)
	for i := range rates {
		rates[i] = 1 + r.Float64()*9
		sources[i] = topology.NodeID(100 + i%2)
	}
	qg, err := querygraph.New(rates, sources)
	if err != nil {
		t.Fatal(err)
	}
	verts := make([]netgraph.Vertex, 0, nProc+2)
	lat := make([][]float64, nProc+2)
	for i := range lat {
		lat[i] = make([]float64, nProc+2)
		for j := range lat[i] {
			if i != j {
				lat[i][j] = 1 + float64((i*7+j*13)%20)
			}
		}
	}
	// Symmetrize.
	for i := range lat {
		for j := i + 1; j < len(lat); j++ {
			lat[j][i] = lat[i][j]
		}
	}
	for p := 0; p < nProc; p++ {
		verts = append(verts, netgraph.Vertex{
			Node: topology.NodeID(p), Capability: 1, Members: []topology.NodeID{topology.NodeID(p)},
		})
	}
	verts = append(verts,
		netgraph.Vertex{Node: 100},
		netgraph.Vertex{Node: 101},
	)
	ng, err := netgraph.NewWithLatencies(verts, lat)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < nQ; q++ {
		subs := []int{r.IntN(8), r.IntN(8), r.IntN(8)}
		qg.AddQVertex(querygraph.QueryInfo{
			Name:       "q",
			Proxy:      topology.NodeID(r.IntN(nProc)),
			Load:       0.05 + r.Float64()*0.1,
			Interest:   bitvec.FromIndices(8, subs),
			ResultRate: r.Float64(),
		})
	}
	qg.AddNVertex(100, nProc, false)
	qg.AddNVertex(101, nProc+1, false)
	for p := 0; p < nProc; p++ {
		qg.AddNVertex(topology.NodeID(p), p, true)
	}
	qg.ComputeEdges()
	return qg, ng
}

func TestGreedyRespectsPins(t *testing.T) {
	qg, ng := randomInstance(t, 1, 4, 20)
	m := NewMapper(qg, ng, Options{})
	a, err := m.Greedy()
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	for i, v := range qg.Vertices {
		if v.IsN() && a[i] != v.Clu {
			t.Errorf("n-vertex %d mapped to %d, pinned to %d", i, a[i], v.Clu)
		}
		if !v.IsN() && (a[i] < 0 || a[i] >= 4) {
			t.Errorf("q-vertex %d mapped to non-processor %d", i, a[i])
		}
	}
}

func TestRefineNeverWorsensWEC(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		qg, ng := randomInstance(t, seed, 4, 25)
		m := NewMapper(qg, ng, Options{})
		a, err := m.Greedy()
		if err != nil {
			t.Fatal(err)
		}
		before := WEC(qg, ng, a)
		after := WEC(qg, ng, m.Refine(a))
		if after > before+1e-9 {
			t.Errorf("seed %d: refine worsened WEC %v -> %v", seed, before, after)
		}
	}
}

func TestMapKeepsLoadFeasibleWhenPossible(t *testing.T) {
	qg, ng := randomInstance(t, 3, 4, 24)
	m := NewMapper(qg, ng, Options{})
	a, err := m.Map()
	if err != nil {
		t.Fatal(err)
	}
	// Total load is well under capacity: no violation expected.
	if over := overCapacity(m, a); len(over) > 0 {
		t.Errorf("targets %v over capacity on an easy instance", over)
	}
}

// overCapacity lists the targets whose load under a exceeds the mapper's
// capacity for them.
func overCapacity(m *Mapper, a Assignment) []int {
	caps := m.Capacities()
	var over []int
	for k, l := range Loads(m.qg, m.ng, a) {
		if l > caps[k] {
			over = append(over, k)
		}
	}
	return over
}

func TestSweepModeMatchesInterface(t *testing.T) {
	qg, ng := randomInstance(t, 4, 4, 30)
	// Force sweep with ExactLimit=1.
	m := NewMapper(qg, ng, Options{ExactLimit: 1})
	a, err := m.Map()
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := m.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if WEC(qg, ng, a) > WEC(qg, ng, greedy)+1e-9 {
		t.Errorf("sweep result worse than greedy: %v > %v",
			WEC(qg, ng, a), WEC(qg, ng, greedy))
	}
}

func TestBestTarget(t *testing.T) {
	qg, ng := randomInstance(t, 5, 4, 10)
	m := NewMapper(qg, ng, Options{})
	a, err := m.Map()
	if err != nil {
		t.Fatal(err)
	}
	loads := Loads(qg, ng, a)
	// Insert a new query vertex and ask for the best target.
	v := qg.AddQVertex(querygraph.QueryInfo{
		Name:     "new",
		Proxy:    0,
		Load:     0.05,
		Interest: bitvec.FromIndices(8, []int{0, 1}),
	})
	qg.ConnectVertex(v)
	a = append(a, Unassigned)
	m2 := NewMapper(qg, ng, Options{})
	k := m2.BestTarget(a, v.ID, loads)
	if k < 0 || k >= 4 {
		t.Errorf("BestTarget = %d, want processor index", k)
	}
}

func TestWECUnassignedContributesNothing(t *testing.T) {
	qg, ng := randomInstance(t, 6, 3, 5)
	a := make(Assignment, len(qg.Vertices))
	for i := range a {
		a[i] = Unassigned
	}
	if w := WEC(qg, ng, a); w != 0 {
		t.Errorf("WEC of unassigned graph = %v", w)
	}
}

func TestMoveOK(t *testing.T) {
	loads := []float64{5, 1}
	caps := []float64{4, 4}
	// Target 1 has room: OK.
	if !moveOK(loads, caps, 2, 0, 1) {
		t.Error("move into free capacity rejected")
	}
	// Target 1 would overflow, but source 0 overflows by more: allowed
	// when it improves total violation.
	if !moveOK([]float64{8, 3.5}, caps, 1, 0, 1) {
		t.Error("violation-improving move rejected")
	}
	// Move that just shifts violation without improving: rejected.
	if moveOK([]float64{5, 4}, caps, 2, 0, 1) {
		t.Error("violation-shifting move accepted")
	}
}

// TestQuickMapperInvariant: for random instances, Map returns a complete
// assignment that pins n-vertices and never places queries on anchors.
func TestQuickMapperInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		qg, ng := randomInstance(t, seed%100, 3+int(seed%3), 8+int(seed%20))
		m := NewMapper(qg, ng, Options{})
		a, err := m.Map()
		if err != nil {
			return false
		}
		for i, v := range qg.Vertices {
			if a[i] == Unassigned {
				return false
			}
			if v.IsN() && a[i] != v.Clu {
				return false
			}
			if !v.IsN() && ng.Vertices[a[i]].Capability == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

package adapt

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/mapping"
	"repro/internal/netgraph"
	"repro/internal/querygraph"
	"repro/internal/topology"
)

// instance builds a 3-processor problem with nQ queries.
func instance(t *testing.T, nQ int, seed uint64) (*querygraph.Graph, *netgraph.Graph) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, 41))
	rates := []float64{4, 4, 4, 4}
	sources := []topology.NodeID{50, 50, 51, 51}
	qg, err := querygraph.New(rates, sources)
	if err != nil {
		t.Fatal(err)
	}
	lat := [][]float64{
		{0, 4, 9, 2, 9},
		{4, 0, 6, 5, 5},
		{9, 6, 0, 9, 2},
		{2, 5, 9, 0, 9},
		{9, 5, 2, 9, 0},
	}
	ng, err := netgraph.NewWithLatencies([]netgraph.Vertex{
		{Node: 0, Capability: 1, Members: []topology.NodeID{0}},
		{Node: 1, Capability: 1, Members: []topology.NodeID{1}},
		{Node: 2, Capability: 1, Members: []topology.NodeID{2}},
		{Node: 50},
		{Node: 51},
	}, lat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nQ; i++ {
		qg.AddQVertex(querygraph.QueryInfo{
			Name:       "q",
			Proxy:      topology.NodeID(r.IntN(3)),
			Load:       0.1,
			Interest:   bitvec.FromIndices(4, []int{r.IntN(4)}),
			ResultRate: 0.5,
			StateSize:  1 + r.Float64()*9,
		})
	}
	qg.AddNVertex(50, 3, false)
	qg.AddNVertex(51, 4, false)
	qg.AddNVertex(0, 0, true)
	qg.AddNVertex(1, 1, true)
	qg.AddNVertex(2, 2, true)
	qg.ComputeEdges()
	return qg, ng
}

// skewed places every query on processor 0.
func skewed(qg *querygraph.Graph) mapping.Assignment {
	a := make(mapping.Assignment, len(qg.Vertices))
	for i, v := range qg.Vertices {
		if v.IsN() {
			a[i] = v.Clu
		} else {
			a[i] = 0
		}
	}
	return a
}

func TestRebalanceReducesOverload(t *testing.T) {
	qg, ng := instance(t, 30, 1)
	a := skewed(qg)
	res, err := Rebalance(qg, ng, a, Options{})
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	loads := mapping.Loads(qg, ng, res)
	total := loads[0] + loads[1] + loads[2]
	for k := 0; k < 3; k++ {
		if loads[k] > total/3*1.4 {
			t.Errorf("processor %d still overloaded: %v of %v", k, loads[k], total)
		}
	}
	if slices.Equal(res, a) {
		t.Error("no migrations from a fully skewed start")
	}
}

func TestRebalanceBalancedInputFewMigrations(t *testing.T) {
	qg, ng := instance(t, 30, 2)
	// Start from the mapper's own result: nothing to re-balance, and
	// refinement may only apply WEC-decreasing moves.
	m := mapping.NewMapper(qg, ng, mapping.Options{})
	a, err := m.Map()
	if err != nil {
		t.Fatal(err)
	}
	before := mapping.WEC(qg, ng, a)
	res, err := Rebalance(qg, ng, a, Options{})
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if after := mapping.WEC(qg, ng, res); after > before+1e-9 {
		t.Errorf("rebalance worsened WEC: %v -> %v", before, after)
	}
}

func TestRebalancePinsNVertices(t *testing.T) {
	qg, ng := instance(t, 12, 3)
	a := skewed(qg)
	res, err := Rebalance(qg, ng, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range qg.Vertices {
		if v.IsN() && res[i] != v.Clu {
			t.Errorf("n-vertex %d moved to %d", i, res[i])
		}
		if !v.IsN() && ng.Vertices[res[i]].Capability == 0 {
			t.Errorf("query vertex %d placed on anchor %d", i, res[i])
		}
	}
}

func TestRebalanceValidation(t *testing.T) {
	qg, ng := instance(t, 5, 4)
	if _, err := Rebalance(qg, ng, make(mapping.Assignment, 1), Options{}); err == nil {
		t.Error("short assignment accepted")
	}
}

func TestRebalanceInputUnchanged(t *testing.T) {
	qg, ng := instance(t, 20, 5)
	a := skewed(qg)
	orig := a.Clone()
	if _, err := Rebalance(qg, ng, a, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != orig[i] {
			t.Fatal("Rebalance mutated its input assignment")
		}
	}
}

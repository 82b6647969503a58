package netgraph

import (
	"testing"

	"repro/internal/topology"
)

func lineOracle(t *testing.T) *topology.Oracle {
	t.Helper()
	g := topology.NewGraph(4)
	for i := 0; i < 3; i++ {
		if err := g.AddEdge(topology.NodeID(i), topology.NodeID(i+1), 2); err != nil {
			t.Fatal(err)
		}
	}
	return topology.NewOracle(g)
}

func TestNewComputesLatencies(t *testing.T) {
	o := lineOracle(t)
	g, err := New([]Vertex{
		{Node: 0, Capability: 1, Members: []topology.NodeID{0}},
		{Node: 3, Capability: 2, Members: []topology.NodeID{3}},
	}, o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := g.Row(0)[1]; got != 6 {
		t.Errorf("Row(0)[1] = %v, want 6", got)
	}
	if got := g.Row(1)[1]; got != 0 {
		t.Errorf("Row(1)[1] = %v", got)
	}
	if got := g.TotalCapability(); got != 3 {
		t.Errorf("TotalCapability = %v", got)
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil, lineOracle(t)); err == nil {
		t.Error("empty vertex set accepted")
	}
	if _, err := NewWithLatencies([]Vertex{{Node: 0}}, [][]float64{{0, 1}}); err == nil {
		t.Error("mismatched latency matrix accepted")
	}
}

func TestIndexOfNode(t *testing.T) {
	o := lineOracle(t)
	g, err := New([]Vertex{
		{Node: 0, Capability: 1, Members: []topology.NodeID{0, 1}},
		{Node: 3, Capability: 1, Members: []topology.NodeID{3}},
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.IndexOfNode(0); got != 0 {
		t.Errorf("IndexOfNode(0) = %d", got)
	}
	if got := g.IndexOfNode(1); got != 0 {
		t.Errorf("IndexOfNode(1) = %d (member lookup)", got)
	}
	if got := g.IndexOfNode(2); got != -1 {
		t.Errorf("IndexOfNode(2) = %d, want -1", got)
	}
}

func TestCapacities(t *testing.T) {
	g, err := NewWithLatencies([]Vertex{
		{Node: 0, Capability: 1},
		{Node: 1, Capability: 3},
	}, [][]float64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	caps := g.Capacities(8, 0.1)
	// cap_i = 1.1 * c_i * 8 / 4
	if caps[0] != 2.2 {
		t.Errorf("caps[0] = %v, want 2.2", caps[0])
	}
	if caps[1] != 6.6000000000000005 && caps[1] != 6.6 {
		t.Errorf("caps[1] = %v, want 6.6", caps[1])
	}
	zero, err := NewWithLatencies([]Vertex{{Node: 0}}, [][]float64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := zero.Capacities(5, 0.1); got[0] != 0 {
		t.Errorf("zero-capability caps = %v", got)
	}
}

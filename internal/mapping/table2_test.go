package mapping

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/netgraph"
	"repro/internal/querygraph"
	"repro/internal/topology"
)

// paperExample reconstructs the worked example of §3.1.2 (Fig 5, Table 2):
// two sources s1, s2 with no computational capability, two processors n1,
// n2 with equal capability, and four queries of load 0.1 each:
//
//	Q1: 10 B/s from s1, 1 B/s result to n1
//	Q2: 10 B/s from s2, 1 B/s result to n1
//	Q3:  5 B/s from s1 (contained in Q1's interest), 1 B/s result to n2
//	Q4:  5 B/s from s2 (disjoint from Q2's interest), 1 B/s result to n2
//
// so exactly one overlap edge exists (Q1–Q3, weight 5), as in Fig 5(b).
// Latencies: both processors sit next to "their" source (d=1) and far from
// the other (d=5); the two processors are 5 apart.
//
// Network-graph vertex order: 0=n1, 1=n2, 2=s1 (anchor), 3=s2 (anchor).
func paperExample(t *testing.T) (*querygraph.Graph, *netgraph.Graph) {
	t.Helper()
	const (
		n1 = topology.NodeID(0)
		n2 = topology.NodeID(1)
		s1 = topology.NodeID(2)
		s2 = topology.NodeID(3)
	)
	// Substreams: 0,1 from s1 (5 B/s each); 2,3,4 from s2 (5,5,5).
	rates := []float64{5, 5, 5, 5, 5}
	sources := []topology.NodeID{s1, s1, s2, s2, s2}

	qg, err := querygraph.New(rates, sources)
	if err != nil {
		t.Fatal(err)
	}
	addQ := func(name string, proxy topology.NodeID, subs []int) {
		qg.AddQVertex(querygraph.QueryInfo{
			Name:       name,
			Proxy:      proxy,
			Load:       0.1,
			Interest:   bitvec.FromIndices(len(rates), subs),
			ResultRate: 1,
		})
	}
	addQ("Q1", n1, []int{0, 1})
	addQ("Q2", n1, []int{2, 3})
	addQ("Q3", n2, []int{0})
	addQ("Q4", n2, []int{4})
	// N-vertices: proxies pinned to their processors, sources anchored.
	qg.AddNVertex(n1, 0, true)
	qg.AddNVertex(n2, 1, true)
	qg.AddNVertex(s1, 2, false)
	qg.AddNVertex(s2, 3, false)
	qg.ComputeEdges()

	lat := [][]float64{
		// n1 n2 s1 s2
		{0, 5, 1, 5}, // n1
		{5, 0, 5, 1}, // n2
		{1, 5, 0, 6}, // s1
		{5, 1, 6, 0}, // s2
	}
	ng, err := netgraph.NewWithLatencies([]netgraph.Vertex{
		{Node: n1, Capability: 1, Members: []topology.NodeID{n1}},
		{Node: n2, Capability: 1, Members: []topology.NodeID{n2}},
		{Node: s1},
		{Node: s2},
	}, lat)
	if err != nil {
		t.Fatal(err)
	}
	return qg, ng
}

// schemeAssignment maps the four queries per a Table 2 scheme, with the
// n-vertices pinned.
func schemeAssignment(qg *querygraph.Graph, targets map[string]int) Assignment {
	a := make(Assignment, len(qg.Vertices))
	for i, v := range qg.Vertices {
		if v.IsN() {
			a[i] = v.Clu
			continue
		}
		a[i] = targets[v.Queries[0].Name]
	}
	return a
}

// TestPaperTable2 reproduces the Table 2 comparison: the sharing-aware
// scheme 3 has the smallest weighted edge cut, and the full graph-mapping
// algorithm finds a mapping at least that good.
func TestPaperTable2(t *testing.T) {
	qg, ng := paperExample(t)

	scheme1 := schemeAssignment(qg, map[string]int{"Q1": 0, "Q2": 0, "Q3": 1, "Q4": 1})
	scheme2 := schemeAssignment(qg, map[string]int{"Q1": 0, "Q4": 0, "Q2": 1, "Q3": 1})
	scheme3 := schemeAssignment(qg, map[string]int{"Q1": 0, "Q3": 0, "Q2": 1, "Q4": 1})

	wec1 := WEC(qg, ng, scheme1)
	wec2 := WEC(qg, ng, scheme2)
	wec3 := WEC(qg, ng, scheme3)
	t.Logf("WEC scheme1=%v scheme2=%v scheme3=%v", wec1, wec2, wec3)

	// Hand-computed cuts for the example's rates and latencies.
	if wec1 != 115 {
		t.Errorf("scheme 1 WEC = %v, want 115", wec1)
	}
	if wec2 != 105 {
		t.Errorf("scheme 2 WEC = %v, want 105", wec2)
	}
	if wec3 != 40 {
		t.Errorf("scheme 3 WEC = %v, want 40", wec3)
	}
	if !(wec3 < wec2 && wec2 < wec1) {
		t.Errorf("scheme ordering broken: %v %v %v", wec1, wec2, wec3)
	}

	// All schemes respect the load constraint (0.2 <= 1.1*0.4/2).
	m := NewMapper(qg, ng, Options{})
	for i, a := range []Assignment{scheme1, scheme2, scheme3} {
		if over := overCapacity(m, a); len(over) > 0 {
			t.Errorf("scheme %d violates the load constraint at targets %v", i+1, over)
		}
	}

	// Algorithm 2 must find scheme 3 (or better).
	got, err := m.Map()
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if w := WEC(qg, ng, got); w > wec3 {
		t.Errorf("mapper WEC = %v, want <= %v (scheme 3)", w, wec3)
	}
	if over := overCapacity(m, got); len(over) > 0 {
		t.Errorf("mapper violates the load constraint at targets %v", over)
	}
}

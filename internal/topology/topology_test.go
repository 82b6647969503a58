package topology

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.TransitDomains = 2
	cfg.TransitNodes = 2
	cfg.StubDomainsPerNode = 2
	cfg.StubNodes = 4
	return cfg
}

func TestGenerateCounts(t *testing.T) {
	cfg := smallConfig()
	g, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got, want := g.Len(), cfg.TotalNodes(); got != want {
		t.Fatalf("node count = %d, want %d", got, want)
	}
	transit, stub := 0, 0
	for _, n := range g.Nodes {
		switch n.Kind {
		case Transit:
			transit++
		case Stub:
			stub++
		}
	}
	if transit != cfg.TransitDomains*cfg.TransitNodes {
		t.Errorf("transit count = %d", transit)
	}
	if stub != g.Len()-transit {
		t.Errorf("stub count = %d", stub)
	}
}

func TestGenerateConnected(t *testing.T) {
	g, err := Generate(smallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dist := g.Dijkstra(0)
	for i, d := range dist {
		if math.IsInf(d, 1) {
			t.Fatalf("node %d unreachable from 0", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.adj, b.adj) {
		t.Fatal("adjacency differs between identical configs")
	}
	da, db := a.Dijkstra(0), b.Dijkstra(0)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("distances differ at node %d: %v vs %v", i, da[i], db[i])
		}
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(0, 1, -2); err == nil {
		t.Error("negative latency accepted")
	}
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if len(g.adj[0]) != 1 || len(g.adj[1]) != 1 || len(g.adj[2]) != 0 {
		t.Errorf("adjacency = %v, want the one edge 0-1", g.adj)
	}
}

func TestDijkstraLine(t *testing.T) {
	// 0 -1- 1 -2- 2 -4- 3
	g := NewGraph(4)
	for _, e := range []struct {
		a, b NodeID
		w    float64
	}{{0, 1, 1}, {1, 2, 2}, {2, 3, 4}} {
		if err := g.AddEdge(e.a, e.b, e.w); err != nil {
			t.Fatal(err)
		}
	}
	dist := g.Dijkstra(0)
	want := []float64{0, 1, 3, 7}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], want[i])
		}
	}
	dist2, parent := g.DijkstraTree(0)
	for i := range want {
		if dist2[i] != want[i] {
			t.Errorf("tree dist[%d] = %v", i, dist2[i])
		}
	}
	if parent[0] != -1 || parent[1] != 0 || parent[2] != 1 || parent[3] != 2 {
		t.Errorf("parents = %v", parent)
	}
}

func TestDijkstraShortcut(t *testing.T) {
	// Triangle with a shortcut: 0-2 direct (10) vs via 1 (3).
	g := NewGraph(3)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(1, 2, 2)
	_ = g.AddEdge(0, 2, 10)
	dist := g.Dijkstra(0)
	if dist[2] != 3 {
		t.Errorf("dist[2] = %v, want 3 (via node 1)", dist[2])
	}
}

func TestOracleCachesAndMedian(t *testing.T) {
	g := NewGraph(4)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(1, 2, 1)
	_ = g.AddEdge(2, 3, 1)
	o := NewOracle(g)
	if got := o.Latency(0, 3); got != 3 {
		t.Errorf("Latency(0,3) = %v", got)
	}
	if got := o.Latency(3, 0); got != 3 {
		t.Errorf("Latency(3,0) = %v", got)
	}
	if got := o.Latency(2, 2); got != 0 {
		t.Errorf("Latency(2,2) = %v", got)
	}
	// Median of a path graph is an interior node.
	med := o.Median([]NodeID{0, 1, 2, 3})
	if med != 1 && med != 2 {
		t.Errorf("Median = %v, want 1 or 2", med)
	}
	if got := o.Median(nil); got != -1 {
		t.Errorf("Median(nil) = %v, want -1", got)
	}
}

func TestSampleNodes(t *testing.T) {
	g, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, err := SampleNodes(g, Stub, 5, 1, nil)
	if err != nil {
		t.Fatalf("SampleNodes: %v", err)
	}
	exclude := make(map[NodeID]bool)
	for _, n := range first {
		exclude[n] = true
	}
	second, err := SampleNodes(g, Stub, 5, 2, exclude)
	if err != nil {
		t.Fatalf("SampleNodes with exclude: %v", err)
	}
	for _, n := range second {
		if exclude[n] {
			t.Errorf("excluded node %d sampled again", n)
		}
		if g.Nodes[n].Kind != Stub {
			t.Errorf("node %d is not a stub", n)
		}
	}
	if _, err := SampleNodes(g, Transit, 10_000, 1, nil); err == nil {
		t.Error("oversized sample accepted")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		{TransitDomains: 1, TransitNodes: 0},
		func() Config { c := smallConfig(); c.IntraStubLatency = [2]float64{5, 1}; return c }(),
		func() Config { c := smallConfig(); c.InterTransitLatency = [2]float64{0, 1}; return c }(),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated unexpectedly", i)
		}
	}
}

// TestQuickTriangleInequality: shortest-path distances must satisfy the
// triangle inequality on random connected graphs.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		n := 8 + int(seed%8)
		g := NewGraph(n)
		// Ring for connectivity plus random chords.
		for i := 0; i < n; i++ {
			_ = g.AddEdge(NodeID(i), NodeID((i+1)%n), 1+r.Float64()*10)
		}
		for i := 0; i < n; i++ {
			a, b := NodeID(r.IntN(n)), NodeID(r.IntN(n))
			if a != b {
				_ = g.AddEdge(a, b, 1+r.Float64()*10)
			}
		}
		o := NewOracle(g)
		for trial := 0; trial < 20; trial++ {
			a, b, c := NodeID(r.IntN(n)), NodeID(r.IntN(n)), NodeID(r.IntN(n))
			if o.Latency(a, c) > o.Latency(a, b)+o.Latency(b, c)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

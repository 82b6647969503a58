package hierarchy

import (
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/querygraph"
	"repro/internal/topology"
)

// testSetup builds a 24-node line-ish topology with 12 processors and 2
// sources, and a small workload.
func testSetup(t *testing.T) (*topology.Oracle, []topology.NodeID, []querygraph.QueryInfo, []float64, []topology.NodeID) {
	t.Helper()
	cfg := topology.Config{
		TransitDomains:      2,
		TransitNodes:        2,
		StubDomainsPerNode:  2,
		StubNodes:           4,
		InterTransitLatency: [2]float64{50, 80},
		IntraTransitLatency: [2]float64{10, 20},
		TransitStubLatency:  [2]float64{2, 6},
		IntraStubLatency:    [2]float64{1, 2},
		Seed:                9,
	}
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := topology.SampleNodes(g, topology.Stub, 12, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := map[topology.NodeID]bool{}
	for _, p := range procs {
		ex[p] = true
	}
	srcs, err := topology.SampleNodes(g, topology.Stub, 2, 2, ex)
	if err != nil {
		t.Fatal(err)
	}

	const nsub = 40
	rates := make([]float64, nsub)
	sources := make([]topology.NodeID, nsub)
	for i := range rates {
		rates[i] = 2
		sources[i] = srcs[i%2]
	}
	var queries []querygraph.QueryInfo
	for i := 0; i < 60; i++ {
		subs := []int{i % nsub, (i + 1) % nsub, (i + 2) % nsub}
		queries = append(queries, querygraph.QueryInfo{
			Name:       "q" + string(rune('A'+i%26)) + string(rune('a'+i/26)),
			Proxy:      procs[i%len(procs)],
			Load:       0.1,
			Interest:   bitvec.FromIndices(nsub, subs),
			ResultRate: 0.5,
			StateSize:  1,
		})
	}
	return topology.NewOracle(g), procs, queries, rates, sources
}

func TestBuildTreeStructure(t *testing.T) {
	oracle, procs, _, _, _ := testSetup(t)
	tree, err := Build(oracle, procs, nil, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Every processor is covered by exactly one leaf.
	covered := make(map[topology.NodeID]int)
	for _, leaf := range tree.Leaves {
		if len(leaf.Procs) < 2 {
			t.Errorf("leaf %s has %d processors (want >= 2 with k=3)", leaf.Name, len(leaf.Procs))
		}
		if len(leaf.Procs) > 3*3-1 {
			t.Errorf("leaf %s exceeds 3k-1 processors: %d", leaf.Name, len(leaf.Procs))
		}
		for _, p := range leaf.Procs {
			covered[p]++
		}
		// The leaf's coordinator node must be one of its members.
		if !leaf.memberSet[leaf.Node] {
			t.Errorf("leaf %s median %d outside its cluster", leaf.Name, leaf.Node)
		}
	}
	for _, p := range procs {
		if covered[p] != 1 {
			t.Errorf("processor %d covered %d times", p, covered[p])
		}
	}
	// Root covers everything; capability sums match.
	if len(tree.Root.Members) != len(procs) {
		t.Errorf("root covers %d processors", len(tree.Root.Members))
	}
	if tree.Root.Capability != float64(len(procs)) {
		t.Errorf("root capability = %v", tree.Root.Capability)
	}
	// Levels are consistent parent-child.
	for _, c := range tree.All {
		for _, ch := range c.Children {
			if ch.Parent != c || ch.Level != c.Level-1 {
				t.Errorf("broken parent/level link at %s -> %s", c.Name, ch.Name)
			}
		}
	}
}

func TestDistributePlacesEveryQuery(t *testing.T) {
	oracle, procs, queries, rates, sources := testSetup(t)
	tree, err := Build(oracle, procs, nil, Config{K: 3, VMax: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tree.Distribute(queries, rates, sources)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	place := tree.Placement()
	if len(place) != len(queries) {
		t.Fatalf("placed %d of %d", len(place), len(queries))
	}
	procSet := make(map[topology.NodeID]bool, len(procs))
	for _, p := range procs {
		procSet[p] = true
	}
	for q, p := range place {
		if !procSet[p] {
			t.Errorf("query %s on non-processor %d", q, p)
		}
	}
	if rep.TotalTime < rep.ResponseTime {
		t.Errorf("total %v < response %v", rep.TotalTime, rep.ResponseTime)
	}
	// Load is spread: no processor holds more than a third of queries.
	counts := make(map[topology.NodeID]int)
	for _, p := range place {
		counts[p]++
	}
	for p, n := range counts {
		if n > len(queries)/3 {
			t.Errorf("processor %d hoards %d queries", p, n)
		}
	}
}

func TestInsertAfterDistribute(t *testing.T) {
	oracle, procs, queries, rates, sources := testSetup(t)
	tree, err := Build(oracle, procs, nil, Config{K: 3, VMax: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Distribute(queries, rates, sources); err != nil {
		t.Fatal(err)
	}
	q := querygraph.QueryInfo{
		Name:       "online",
		Proxy:      procs[0],
		Load:       0.1,
		Interest:   bitvec.FromIndices(40, []int{0, 1}),
		ResultRate: 0.5,
	}
	proc, err := tree.Insert(q)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if got := tree.Placement()["online"]; got != proc {
		t.Errorf("placement map says %d, Insert returned %d", got, proc)
	}
	if _, err := tree.RouteAtRoot(q); err != nil {
		t.Errorf("RouteAtRoot: %v", err)
	}
}

func TestInsertBeforeDistributeFails(t *testing.T) {
	oracle, procs, _, _, _ := testSetup(t)
	tree, err := Build(oracle, procs, nil, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Insert(querygraph.QueryInfo{Name: "x"}); err == nil {
		t.Error("Insert before Distribute succeeded")
	}
}

func TestDistributeRejectsBadProxy(t *testing.T) {
	oracle, procs, queries, rates, sources := testSetup(t)
	tree, err := Build(oracle, procs, nil, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries[0].Proxy = 99999
	if _, err := tree.Distribute(queries, rates, sources); err == nil {
		t.Error("non-processor proxy accepted")
	}
}

func TestAdaptWithoutChangesIsQuiet(t *testing.T) {
	oracle, procs, queries, rates, sources := testSetup(t)
	tree, err := Build(oracle, procs, nil, Config{K: 3, VMax: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Distribute(queries, rates, sources); err != nil {
		t.Fatal(err)
	}
	// Let adaptation settle, then verify steady state is calm.
	var last int
	for i := 0; i < 4; i++ {
		rep, err := tree.Adapt(nil)
		if err != nil {
			t.Fatalf("Adapt: %v", err)
		}
		last = rep.Migrations
	}
	if last > len(queries)/5 {
		t.Errorf("steady-state round still migrates %d of %d queries", last, len(queries))
	}
}

// TestAdaptOnExactlyBalancedCluster: three processors under one leaf
// coordinator, one query of load 0.1 pinned to each. The diffusion targets
// are (0.1+0.1+0.1)/3, which is not 0.1 in float64, so the right-hand side
// of the diffusion system is pure rounding residue; Adapt must read that as
// balanced — no error, nothing moved — instead of failing to converge on it.
func TestAdaptOnExactlyBalancedCluster(t *testing.T) {
	oracle, procs, _, rates, sources := testSetup(t)
	procs = procs[:3]
	tree, err := Build(oracle, procs, nil, Config{K: 3, VMax: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves) != 1 || len(tree.Leaves[0].Members) != 3 {
		t.Fatalf("want one leaf cluster of 3, got %d leaves", len(tree.Leaves))
	}
	var queries []querygraph.QueryInfo
	home := make(map[string]topology.NodeID)
	for i, p := range procs {
		q := querygraph.QueryInfo{
			Name:       fmt.Sprintf("q%d", i),
			Proxy:      p,
			Load:       0.1,
			Interest:   bitvec.FromIndices(len(rates), []int{10 * i, 10*i + 1}),
			ResultRate: 0.5,
			StateSize:  1,
		}
		queries = append(queries, q)
		home[q.Name] = p
	}
	err = tree.DistributeWith(queries, rates, sources,
		func(q querygraph.QueryInfo) topology.NodeID { return home[q.Name] })
	if err != nil {
		t.Fatalf("DistributeWith: %v", err)
	}
	rep, err := tree.Adapt(nil)
	if err != nil {
		t.Fatalf("Adapt on a balanced cluster: %v", err)
	}
	if rep.Migrations != 0 {
		t.Errorf("Adapt on a balanced cluster migrated %d queries", rep.Migrations)
	}
}

func TestProcessorLoads(t *testing.T) {
	oracle, procs, queries, rates, sources := testSetup(t)
	tree, err := Build(oracle, procs, nil, Config{K: 3, VMax: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Distribute(queries, rates, sources); err != nil {
		t.Fatal(err)
	}
	loads := tree.ProcessorLoads()
	var total float64
	for _, l := range loads {
		//lint:maporder the sum is asserted within a 1e-9 tolerance, far above any summation-order drift
		total += l
	}
	want := 0.1 * float64(len(queries))
	if diff := total - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("total load = %v, want %v", total, want)
	}
}

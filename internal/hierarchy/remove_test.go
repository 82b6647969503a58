package hierarchy

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/mapping"
	"repro/internal/querygraph"
)

// This file tests hierarchy query removal — the teardown counterpart of
// Insert: per-level vertex removal with exact load repair, drain-to-zero
// after the last removal, and the no-residue property (a redistribution on
// a churned tree equals one on a freshly built tree).

// checkLoadsExact asserts that every coordinator's cached per-target loads
// equal a recomputation from its surviving vertex weights, and that its
// query-vertex content matches the surviving placement of its subtree.
func checkLoadsExact(t *testing.T, tree *Tree, step string) {
	t.Helper()
	surviving := make(map[string]bool, len(tree.queries))
	for name := range tree.queries {
		surviving[name] = true
	}
	for _, c := range tree.All {
		if c.graph == nil {
			continue
		}
		want := mapping.Loads(c.graph, c.ng, c.assign)
		if !reflect.DeepEqual(c.loads, want) {
			t.Fatalf("%s: %s cached loads diverge from vertex weights\ngot:  %v\nwant: %v",
				step, c.Name, c.loads, want)
		}
		// Every query named in the coordinator's graph must still exist,
		// and every surviving query placed in the subtree must be named.
		named := make(map[string]bool)
		for _, v := range c.graph.Vertices {
			if v == nil {
				continue
			}
			for _, q := range v.Queries {
				if !surviving[q.Name] {
					t.Fatalf("%s: %s still holds removed query %s", step, c.Name, q.Name)
				}
				if named[q.Name] {
					t.Fatalf("%s: %s holds query %s twice", step, c.Name, q.Name)
				}
				named[q.Name] = true
			}
		}
		for name := range surviving {
			if c.memberSet[tree.placement[name]] && !named[name] {
				t.Fatalf("%s: %s lost surviving query %s (placed at %d)",
					step, c.Name, name, tree.placement[name])
			}
		}
	}
}

// TestRemoveKeepsStateExact: remove a mix of batch-distributed queries
// (living inside merged coarse vertices) and online-inserted ones (atomic
// vertices) and verify, after every removal, that loads and vertex content
// across all levels are exactly the surviving workload's.
func TestRemoveKeepsStateExact(t *testing.T) {
	oracle, procs, queries, rates, sources := testSetup(t)
	tree, err := Build(oracle, procs, nil, Config{K: 3, VMax: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Distribute(queries, rates, sources); err != nil {
		t.Fatal(err)
	}
	// A few online insertions on top of the batch.
	var online []querygraph.QueryInfo
	for i := 0; i < 8; i++ {
		q := querygraph.QueryInfo{
			Name:       fmt.Sprintf("online%d", i),
			Proxy:      procs[i%len(procs)],
			Load:       0.2,
			Interest:   bitvec.FromIndices(40, []int{i % 40, (i * 7) % 40}),
			ResultRate: 0.5,
			StateSize:  1,
		}
		online = append(online, q)
		if _, err := tree.Insert(q); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	checkLoadsExact(t, tree, "after inserts")

	// Interleave removals of batch and online queries.
	victims := []string{
		queries[0].Name, online[0].Name, queries[7].Name, queries[13].Name,
		online[3].Name, queries[25].Name, online[7].Name, queries[41].Name,
	}
	for i, name := range victims {
		proc, ok := tree.Remove(name)
		if !ok {
			t.Fatalf("Remove(%s) unknown", name)
		}
		if proc < 0 {
			t.Fatalf("Remove(%s) returned processor %d", name, proc)
		}
		if _, still := tree.Placement()[name]; still {
			t.Fatalf("%s still placed after removal", name)
		}
		checkLoadsExact(t, tree, fmt.Sprintf("after removal %d (%s)", i, name))
	}
	// Double removal is a no-op.
	if _, ok := tree.Remove(victims[0]); ok {
		t.Fatal("second Remove of the same query reported known")
	}

	// Insertion after removals still routes and stays exact.
	late := querygraph.QueryInfo{
		Name:       "late",
		Proxy:      procs[1],
		Load:       0.3,
		Interest:   bitvec.FromIndices(40, []int{3, 5}),
		ResultRate: 0.5,
	}
	if _, err := tree.Insert(late); err != nil {
		t.Fatalf("Insert after removals: %v", err)
	}
	checkLoadsExact(t, tree, "after late insert")

	// Drain: removing everything leaves zero queries, zero query
	// vertices and EXACTLY zero load at every coordinator.
	for name := range tree.queries {
		if _, ok := tree.Remove(name); !ok {
			t.Fatalf("Remove(%s) unknown during drain", name)
		}
	}
	q, v, load := tree.Residual()
	if q != 0 || v != 0 || load != 0 {
		t.Fatalf("residual after full drain: queries=%d vertices=%d load=%v, want 0/0/0", q, v, load)
	}
}

// TestRemoveThenRedistributeMatchesFresh: a tree that lived through
// distribute + insert + remove churn must, on the next full redistribution
// of the surviving workload, produce placements identical to a freshly
// built tree distributing the same workload — incremental teardown leaves
// no residue that biases the optimizer.
func TestRemoveThenRedistributeMatchesFresh(t *testing.T) {
	oracle, procs, queries, rates, sources := testSetup(t)
	cfg := Config{K: 3, VMax: 20, Seed: 1}
	churned, err := Build(oracle, procs, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := churned.Distribute(queries, rates, sources); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		q := querygraph.QueryInfo{
			Name:       fmt.Sprintf("online%d", i),
			Proxy:      procs[(i*3)%len(procs)],
			Load:       0.15,
			Interest:   bitvec.FromIndices(40, []int{(i * 5) % 40}),
			ResultRate: 0.4,
		}
		if _, err := churned.Insert(q); err != nil {
			t.Fatal(err)
		}
	}
	// Remove every third batch query and half the online ones.
	survivors := make([]querygraph.QueryInfo, 0, len(queries))
	for i, q := range queries {
		if i%3 == 0 {
			if _, ok := churned.Remove(q.Name); !ok {
				t.Fatalf("Remove(%s) unknown", q.Name)
			}
			continue
		}
		survivors = append(survivors, q)
	}
	for i := 0; i < 6; i += 2 {
		if _, ok := churned.Remove(fmt.Sprintf("online%d", i)); !ok {
			t.Fatal("online removal unknown")
		}
	}
	for i := 1; i < 6; i += 2 {
		q := querygraph.QueryInfo{
			Name:       fmt.Sprintf("online%d", i),
			Proxy:      procs[(i*3)%len(procs)],
			Load:       0.15,
			Interest:   bitvec.FromIndices(40, []int{(i * 5) % 40}),
			ResultRate: 0.4,
		}
		survivors = append(survivors, q)
	}

	if _, err := churned.Distribute(survivors, rates, sources); err != nil {
		t.Fatalf("redistribute on churned tree: %v", err)
	}
	fresh, err := Build(oracle, procs, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Distribute(survivors, rates, sources); err != nil {
		t.Fatal(err)
	}
	if got, want := churned.Placement(), fresh.Placement(); !reflect.DeepEqual(got, want) {
		t.Fatalf("churned-tree redistribution diverges from fresh tree\nchurned: %v\nfresh:   %v", got, want)
	}
}

// TestRemoveSurvivesAdapt: adaptation rounds rebuild coordinator state from
// the surviving query set; removals before and after rounds keep the load
// picture consistent and never resurrect removed queries.
func TestRemoveSurvivesAdapt(t *testing.T) {
	oracle, procs, queries, rates, sources := testSetup(t)
	tree, err := Build(oracle, procs, nil, Config{K: 3, VMax: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Distribute(queries, rates, sources); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := tree.Remove(queries[i].Name); !ok {
			t.Fatalf("Remove(%s) unknown", queries[i].Name)
		}
	}
	if _, err := tree.Adapt(nil); err != nil {
		t.Fatalf("Adapt after removals: %v", err)
	}
	place := tree.Placement()
	for i := 0; i < 10; i++ {
		if _, back := place[queries[i].Name]; back {
			t.Fatalf("adaptation resurrected removed query %s", queries[i].Name)
		}
	}
	if len(place) != len(queries)-10 {
		t.Fatalf("placement holds %d queries after adapt, want %d", len(place), len(queries)-10)
	}
	checkLoadsExact(t, tree, "after adapt")
	// ProcessorLoads reflects exactly the survivors.
	var total float64
	for _, l := range tree.ProcessorLoads() {
		//lint:maporder the sum is asserted within a 1e-9 tolerance, far above any summation-order drift
		total += l
	}
	want := 0.1 * float64(len(queries)-10)
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("total processor load %v, want %v", total, want)
	}
}

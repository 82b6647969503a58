package querygraph

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/topology"
)

// This file property-tests the maintained inverted index: after arbitrary
// interleavings of additions, removals and shrinks, the index every mutator
// kept current in place must equal, posting for posting, an index built from
// scratch over the surviving vertices, and re-estimated edges must equal a
// full ComputeEdges pass.

func randRemQuery(r *rand.Rand, id int, nSub int, procs []topology.NodeID) QueryInfo {
	iv := bitvec.New(nSub)
	for i := 0; i < 1+r.IntN(4); i++ {
		iv.Set(r.IntN(nSub))
	}
	return QueryInfo{
		Name:       fmt.Sprintf("q%d", id),
		Proxy:      procs[r.IntN(len(procs))],
		Load:       1 + r.Float64(),
		Interest:   iv,
		ResultRate: 1 + 10*r.Float64(),
		StateSize:  r.Float64(),
	}
}

// overlapSequence captures ForEachOverlap's output for a probe interest, in
// visit order — the index-driven view routeAt consumes, whose order is the
// float summation order of routeAt's per-position buckets. remap translates
// vertex IDs (nil keeps them).
func overlapSequence(g *Graph, iv *bitvec.Vector, remap []int) []Adj {
	var out []Adj
	g.ForEachOverlap(iv, func(v int, w float64) {
		if g.Vertices[v] == nil {
			panic(fmt.Sprintf("index surfaced removed vertex %d", v))
		}
		if remap != nil {
			v = remap[v]
		}
		out = append(out, Adj{To: v, W: w})
	})
	return out
}

// remapIDs translates a posting through idOf (nil keeps the IDs). An empty
// posting comes back nil, so reflect.DeepEqual does not tell an emptied run
// from a never-filled one.
func remapIDs(ids []int32, idOf []int) []int32 {
	var out []int32
	for _, id := range ids {
		if idOf != nil {
			id = int32(idOf[id])
		}
		out = append(out, id)
	}
	return out
}

// indexDiff compares the five postings of a maintained index, IDs remapped
// through idOf, with those of an index built from scratch, entry for entry.
// It returns a description of the first difference, or "".
func indexDiff(got, want *invIndex, idOf []int) string {
	runs := func(name string, a, b [][]int32) string {
		if len(a) != len(b) {
			return fmt.Sprintf("%s: %d runs, want %d", name, len(a), len(b))
		}
		for i := range a {
			if g, w := remapIDs(a[i], idOf), remapIDs(b[i], nil); !reflect.DeepEqual(g, w) {
				return fmt.Sprintf("%s[%d] = %v, want %v", name, i, g, w)
			}
		}
		return ""
	}
	keyed := func(name string, a, b map[topology.NodeID][]int32) string {
		if len(a) != len(b) {
			return fmt.Sprintf("%s: %d keys, want %d", name, len(a), len(b))
		}
		for node, ids := range a {
			if g, w := remapIDs(ids, idOf), remapIDs(b[node], nil); !reflect.DeepEqual(g, w) {
				return fmt.Sprintf("%s[%d] = %v, want %v", name, node, g, w)
			}
		}
		return ""
	}
	for _, d := range []string{
		runs("interested", got.interested, want.interested),
		runs("bySrc", got.bySrc, want.bySrc),
		runs("vertsOfSrc", got.vertsOfSrc, want.vertsOfSrc),
		keyed("vertsOfNode", got.vertsOfNode, want.vertsOfNode),
		keyed("resultTo", got.resultTo, want.resultTo),
	} {
		if d != "" {
			return d
		}
	}
	return ""
}

// edgeSnapshot renders the live adjacency as a canonical map.
func edgeSnapshot(g *Graph) map[[2]int]float64 {
	out := make(map[[2]int]float64)
	for i, run := range g.AdjacencyLists() {
		if i >= len(g.Vertices) || g.Vertices[i] == nil {
			continue
		}
		for _, e := range run {
			a, b := i, e.To
			if a > b {
				a, b = b, a
			}
			out[[2]int{a, b}] = e.W
		}
	}
	return out
}

// rebuiltTwin constructs a fresh graph holding exactly the surviving
// vertices of g (clones, same content) and returns it plus the ID mapping.
func rebuiltTwin(g *Graph) (*Graph, []int) {
	twin := NewOnSpace(g.Space)
	idOf := make([]int, len(g.Vertices))
	for i := range idOf {
		idOf[i] = -1
	}
	for i, v := range g.Vertices {
		if v == nil {
			continue
		}
		cv := v.Clone()
		cv.Interest = v.Interest // content-identical is what matters
		idOf[i] = twin.AddVertex(cv).ID
	}
	twin.ComputeEdges()
	return twin, idOf
}

// TestRemoveVertexRepairsIndex: random add/remove/merge-into-freed-slot/
// shrink churn; after every mutation the maintained index equals the index of
// a from-scratch twin graph over the surviving vertices posting for posting,
// its overlap view visits the same vertices in the same order with the same
// weights, the re-estimated edges are bit-identical to the twin's, and no
// mutator replaced the index it was handed.
func TestRemoveVertexRepairsIndex(t *testing.T) {
	// Proxies 4 and 5 have no n-vertex at first: it is added mid-churn,
	// into an index that already holds result-edge keys toward it.
	procs := []topology.NodeID{0, 1, 2, 3, 4, 5}
	lateNodes := []topology.NodeID{4, 5}
	for seed := uint64(0); seed < 25; seed++ {
		r := rand.New(rand.NewPCG(seed, 4242))
		nSub := 8 + r.IntN(24)
		subRates := make([]float64, nSub)
		sourceOfSub := make([]topology.NodeID, nSub)
		for i := range subRates {
			subRates[i] = 1 + 5*r.Float64()
			sourceOfSub[i] = topology.NodeID(10 + r.IntN(3))
		}
		g, err := New(subRates, sourceOfSub)
		if err != nil {
			t.Fatal(err)
		}
		// Anchor n-vertices (sources and proxies), as coordinator graphs
		// have.
		for _, n := range []topology.NodeID{10, 11, 12, 0, 1, 2, 3} {
			g.AddNVertex(n, int(n)%3)
		}
		// A graph filled before its first index use carries no index; the
		// first ConnectVertex builds one lazily, and from then on every
		// mutator posts into that one in place, like Insert.
		var built *invIndex
		for i := 0; i < 12+r.IntN(12); i++ {
			v := g.AddQVertex(randRemQuery(r, i, nSub, procs))
			if i == 0 && g.idx != nil {
				t.Fatalf("seed %d: index built before its first use", seed)
			}
			g.ConnectVertex(v)
			if i == 0 {
				built = g.idx
			}
		}
		if built == nil {
			t.Fatalf("seed %d: first ConnectVertex built no index", seed)
		}
		late := lateNodes
		live := make(map[int]bool)
		for i, v := range g.Vertices {
			if v != nil && len(v.Queries) > 0 {
				live[i] = true
			}
		}

		check := func(step string) {
			t.Helper()
			if g.idx != built {
				t.Fatalf("seed %d %s: the index was rebuilt, not maintained", seed, step)
			}
			twin, idOf := rebuiltTwin(g)
			if d := indexDiff(g.idx, twin.idx, idOf); d != "" {
				t.Fatalf("seed %d %s: maintained index diverges from a fresh build: %s", seed, step, d)
			}
			// Edges of the churned graph == full recompute on the twin.
			got := edgeSnapshot(g)
			want := edgeSnapshot(twin)
			remapped := make(map[[2]int]float64, len(got))
			for k, w := range got {
				a, b := idOf[k[0]], idOf[k[1]]
				if a < 0 || b < 0 {
					t.Fatalf("seed %d %s: edge %v touches removed vertex", seed, step, k)
				}
				if a > b {
					a, b = b, a
				}
				remapped[[2]int{a, b}] = w
			}
			if !reflect.DeepEqual(remapped, want) {
				t.Fatalf("seed %d %s: edges diverge from rebuilt twin\ngot:  %v\nwant: %v", seed, step, remapped, want)
			}
			// Overlap view for random probes.
			for p := 0; p < 5; p++ {
				iv := bitvec.New(nSub)
				for i := 0; i < 1+r.IntN(4); i++ {
					iv.Set(r.IntN(nSub))
				}
				gotOv := overlapSequence(g, iv, idOf)
				wantOv := overlapSequence(twin, iv, nil)
				if !reflect.DeepEqual(gotOv, wantOv) {
					t.Fatalf("seed %d %s: overlap sequence diverges\ngot:  %v\nwant: %v", seed, step, gotOv, wantOv)
				}
			}
		}

		for round := 0; round < 10; round++ {
			// Sorted so the seeded r.IntN index picks the same vertex
			// every run — map order would break reproducibility.
			ids := make([]int, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			switch {
			case len(ids) > 0 && r.IntN(2) == 0:
				// Remove a random query vertex.
				id := ids[r.IntN(len(ids))]
				if g.RemoveVertex(id) == nil {
					t.Fatalf("seed %d: RemoveVertex(%d) found empty slot", seed, id)
				}
				delete(live, id)
				check(fmt.Sprintf("round %d remove %d", round, id))
			case len(ids) > 0 && r.IntN(2) == 0:
				// Shrink: drop the vertex's last query, keep the rest —
				// here vertices are atomic, so synthesize a 2-query
				// merged vertex first, then shrink it back down.
				id := ids[r.IntN(len(ids))]
				old := g.Vertices[id]
				extra := randRemQuery(r, 1000+round, nSub, procs)
				merged := &Vertex{
					Weight:      old.Weight + extra.Load,
					Clu:         ClusterUnknown,
					Queries:     append(append([]QueryInfo(nil), old.Queries...), extra),
					Interest:    old.Interest.Clone(),
					ResultRates: map[topology.NodeID]float64{},
					StateSize:   old.StateSize + extra.StateSize,
				}
				_ = merged.Interest.Or(extra.Interest)
				for n, rr := range old.ResultRates {
					//lint:maporder unique keys: each entry of the fresh map is written exactly once
					merged.ResultRates[n] += rr
				}
				merged.ResultRates[extra.Proxy] += extra.ResultRate
				// Content only ever grows by a new vertex: remove the
				// old one and install the merged vertex — AddVertex
				// puts it in the slot just freed, mid-run in every
				// posting — then shrink it back to old's content.
				g.RemoveVertex(id)
				delete(live, id)
				nv := g.AddVertex(merged)
				g.ConnectVertex(nv)
				check(fmt.Sprintf("round %d merge-into %d", round, nv.ID))
				shrunk := &Vertex{
					Weight:      old.Weight,
					Clu:         ClusterUnknown,
					Queries:     append([]QueryInfo(nil), old.Queries...),
					Interest:    old.Interest.Clone(),
					ResultRates: map[topology.NodeID]float64{},
					StateSize:   old.StateSize,
				}
				for n, rr := range old.ResultRates {
					//lint:maporder unique keys: each entry of the fresh map is written exactly once
					shrunk.ResultRates[n] += rr
				}
				g.ShrinkVertex(nv.ID, shrunk)
				live[nv.ID] = true
				check(fmt.Sprintf("round %d shrink %d", round, nv.ID))
			case len(late) > 0 && r.IntN(3) == 0:
				v := g.AddNVertex(late[0], int(late[0])%3)
				late = late[1:]
				g.ConnectVertex(v)
				check(fmt.Sprintf("round %d add n-vertex %d", round, v.ID))
			default:
				v := g.AddQVertex(randRemQuery(r, 100+round, nSub, procs))
				g.ConnectVertex(v)
				live[v.ID] = true
				check(fmt.Sprintf("round %d add %d", round, v.ID))
			}
		}

		// Drain: removing every query vertex leaves an index that still
		// answers (empty) overlap queries and edge scans correctly.
		for id := range live {
			g.RemoveVertex(id)
		}
		probe := bitvec.New(nSub)
		for i := 0; i < nSub; i++ {
			probe.Set(i)
		}
		for _, e := range overlapSequence(g, probe, nil) {
			if len(g.Vertices[e.To].Queries) > 0 {
				t.Fatalf("seed %d: drained graph still surfaces query vertex %d (w=%v)", seed, e.To, e.W)
			}
		}
		if g.idx != built {
			t.Fatalf("seed %d: draining the graph rebuilt the index", seed)
		}
	}
}

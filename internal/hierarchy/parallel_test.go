package hierarchy

import (
	"testing"

	"repro/internal/querygraph"
	"repro/internal/topology"
)

// TestDistributeParallelDeterminism: the parallel upward pass and downward
// descent must yield the exact placement of a fully sequential run, for
// every distribution entry point, several tree seeds and worker counts.
func TestDistributeParallelDeterminism(t *testing.T) {
	oracle, procs, queries, rates, sources := testSetup(t)
	home := make(map[string]topology.NodeID, len(queries))
	for i, q := range queries {
		home[q.Name] = procs[(i*7)%len(procs)]
	}
	for _, entry := range []struct {
		name       string
		distribute func(tree *Tree) error
	}{
		{"Distribute", func(tree *Tree) error {
			_, err := tree.Distribute(queries, rates, sources)
			return err
		}},
		{"DistributeRandom", func(tree *Tree) error {
			return tree.DistributeRandom(queries, rates, sources, 99)
		}},
		{"DistributeWith", func(tree *Tree) error {
			return tree.DistributeWith(queries, rates, sources,
				func(q querygraph.QueryInfo) topology.NodeID { return home[q.Name] })
		}},
	} {
		for _, seed := range []uint64{1, 7, 23} {
			var want map[string]topology.NodeID
			for _, workers := range []int{1, 2, 8} {
				tree, err := Build(oracle, procs, nil, Config{K: 3, VMax: 20, Seed: seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if err := entry.distribute(tree); err != nil {
					t.Fatalf("%s seed %d workers %d: %v", entry.name, seed, workers, err)
				}
				got := tree.Placement()
				if workers == 1 {
					want = got
					if len(want) != len(queries) {
						t.Fatalf("%s seed %d: placed %d of %d", entry.name, seed, len(want), len(queries))
					}
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%s seed %d workers %d: placed %d, sequential placed %d",
						entry.name, seed, workers, len(got), len(want))
				}
				for q, p := range want {
					if got[q] != p {
						t.Errorf("%s seed %d workers %d: query %s on %d, sequential on %d",
							entry.name, seed, workers, q, got[q], p)
					}
				}
			}
		}
	}
}

// TestAdaptParallelUpwardDeterminism: Adapt runs both the upward pass and
// the downward current-placement descent over bounded workers; adaptation
// rounds must land the placements of the sequential descent (Workers: 1)
// for any worker count — including when a load estimator shifts query
// weights between rounds (refreshWeights runs inside the descent on every
// non-root coordinator).
func TestAdaptParallelUpwardDeterminism(t *testing.T) {
	oracle, procs, queries, rates, sources := testSetup(t)
	shifting := func(round int) func(string) float64 {
		return func(name string) float64 {
			return 0.1 + float64((len(name)*7+round*13)%5)*0.05
		}
	}
	for _, tc := range []struct {
		name   string
		seed   uint64
		rounds int
		loadOf func(round int) func(string) float64
	}{
		{"static-loads", 5, 2, func(int) func(string) float64 { return nil }},
		{"shifting-loads", 11, 3, shifting},
	} {
		run := func(workers int) map[string]topology.NodeID {
			tree, err := Build(oracle, procs, nil, Config{K: 3, VMax: 20, Seed: tc.seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tree.Distribute(queries, rates, sources); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.rounds; i++ {
				if _, err := tree.Adapt(tc.loadOf(i)); err != nil {
					t.Fatal(err)
				}
			}
			return tree.Placement()
		}
		want := run(1)
		got := run(8)
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s: placed %d parallel vs %d sequential", tc.name, len(got), len(want))
		}
		for q, p := range want {
			if got[q] != p {
				t.Errorf("%s: query %s on %d parallel, %d sequential", tc.name, q, got[q], p)
			}
		}
	}
}

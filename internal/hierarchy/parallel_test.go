package hierarchy

import (
	"testing"

	"repro/internal/querygraph"
	"repro/internal/topology"
)

// proxySkewed returns the queries with every proxy moved onto the processors
// of one leaf of the seed's tree — the last, so its submission, and on the
// way down its share, are the largest of its level while it sits last in
// index order: the input on which the passes' largest-first order differs
// from index order.
func proxySkewed(t *testing.T, oracle *topology.Oracle, procs []topology.NodeID,
	queries []querygraph.QueryInfo, seed uint64) []querygraph.QueryInfo {
	t.Helper()
	tree, err := Build(oracle, procs, nil, Config{K: 3, VMax: 20, Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.Leaves[len(tree.Leaves)-1]
	out := make([]querygraph.QueryInfo, len(queries))
	for i, q := range queries {
		q.Proxy = leaf.Procs[i%len(leaf.Procs)]
		out[i] = q
	}
	return out
}

// TestDistributeParallelDeterminism: the parallel upward pass and downward
// descent must yield the exact placement of a fully sequential run, for
// every distribution entry point, several tree seeds and worker counts, on
// the test workload and on its proxy-skewed variant.
func TestDistributeParallelDeterminism(t *testing.T) {
	oracle, procs, queries, rates, sources := testSetup(t)
	home := make(map[string]topology.NodeID, len(queries))
	for i, q := range queries {
		home[q.Name] = procs[(i*7)%len(procs)]
	}
	for _, entry := range []struct {
		name       string
		distribute func(tree *Tree, qs []querygraph.QueryInfo) error
	}{
		{"Distribute", func(tree *Tree, qs []querygraph.QueryInfo) error {
			_, err := tree.Distribute(qs, rates, sources)
			return err
		}},
		{"DistributeRandom", func(tree *Tree, qs []querygraph.QueryInfo) error {
			return tree.DistributeRandom(qs, rates, sources, 99)
		}},
		{"DistributeWith", func(tree *Tree, qs []querygraph.QueryInfo) error {
			return tree.DistributeWith(qs, rates, sources,
				func(q querygraph.QueryInfo) topology.NodeID { return home[q.Name] })
		}},
	} {
		for _, seed := range []uint64{1, 7, 23} {
			for _, in := range []struct {
				name string
				qs   []querygraph.QueryInfo
			}{
				{"uniform", queries},
				{"proxy-skew", proxySkewed(t, oracle, procs, queries, seed)},
			} {
				var want map[string]topology.NodeID
				for _, workers := range []int{1, 2, 8} {
					tree, err := Build(oracle, procs, nil, Config{K: 3, VMax: 20, Seed: seed, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if err := entry.distribute(tree, in.qs); err != nil {
						t.Fatalf("%s %s seed %d workers %d: %v", entry.name, in.name, seed, workers, err)
					}
					got := tree.Placement()
					if workers == 1 {
						want = got
						if len(want) != len(queries) {
							t.Fatalf("%s %s seed %d: placed %d of %d", entry.name, in.name, seed, len(want), len(queries))
						}
						continue
					}
					if len(got) != len(want) {
						t.Fatalf("%s %s seed %d workers %d: placed %d, sequential placed %d",
							entry.name, in.name, seed, workers, len(got), len(want))
					}
					for q, p := range want {
						if got[q] != p {
							t.Errorf("%s %s seed %d workers %d: query %s on %d, sequential on %d",
								entry.name, in.name, seed, workers, q, got[q], p)
						}
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
// non-root coordinator), and when every proxy sits on one leaf.
func TestAdaptParallelUpwardDeterminism(t *testing.T) {
	oracle, procs, queries, rates, sources := testSetup(t)
	shifting := func(round int) func(string) float64 {
		return func(name string) float64 {
			return 0.1 + float64((len(name)*7+round*13)%5)*0.05
		}
	}
	for _, tc := range []struct {
		name    string
		seed    uint64
		rounds  int
		loadOf  func(round int) func(string) float64
		queries []querygraph.QueryInfo
	}{
		{"static-loads", 5, 2, func(int) func(string) float64 { return nil }, queries},
		{"shifting-loads", 11, 3, shifting, queries},
		{"proxy-skew", 11, 3, shifting, proxySkewed(t, oracle, procs, queries, 11)},
	} {
		run := func(workers int) map[string]topology.NodeID {
			tree, err := Build(oracle, procs, nil, Config{K: 3, VMax: 20, Seed: tc.seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tree.Distribute(tc.queries, rates, sources); err != nil {
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
		for _, workers := range []int{2, 8} {
			got := run(workers)
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("%s workers %d: placed %d parallel vs %d sequential", tc.name, workers, len(got), len(want))
			}
			for q, p := range want {
				if got[q] != p {
					t.Errorf("%s workers %d: query %s on %d parallel, %d sequential", tc.name, workers, q, got[q], p)
				}
			}
		}
	}
}

package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/querygraph"
	"repro/internal/topology"
	"repro/internal/workload"
)

// pinnedChurnDigests are the digests of pinnedChurnDigest for workload seeds
// 1–3, recorded at the commit before querygraph's inverted index became a
// maintained structure (PR 16's tree). They pin behaviour, not equivalence:
// a change to how the coordinator graphs are indexed must leave every
// routing decision, migration count and load sum bit-identical.
var pinnedChurnDigests = [3]string{
	"471e8b4d9b841f7f9355537ea34e5a222330c3d60110536ac7d8cd10a6bd3985",
	"579d9aa3740bce9789a1ed7139de33f398920bf266cc5db3b16e893ee272ee9d",
	"b75b7aa569bd39f203e23e61f0558b3c1ef5020cfeebd953930f2a044814fe06",
}

// pinnedEntryDigests are the digests of pinnedChurnDigest for the starts
// and adaptation plans of pinnedEntryCases, recorded at the commit before
// Distribute, DistributeRandom, DistributeWith and Adapt shared one descent.
// Together with pinnedChurnDigests they reach every entry point of the
// coordinator tree bit for bit.
var pinnedEntryDigests = [3]string{
	"4f7c4883b7141e34fdda038f244d5710155ca6c9f3ea99e2018d83b416732f3f",
	"46361184611b5fdefbb171f959d32323867916078b5ba386b29a00bd0228a9e2",
	"c37c8b943f65e81684c69b1e115165b8db944c7054c1271041db9c4fd4765598",
}

// distributeStart is the starting distribution of pinnedChurnDigests.
func distributeStart(tree *hierarchy.Tree, _ *World, wl *workload.Workload) error {
	_, err := tree.Distribute(wl.Queries, wl.SubRates, wl.SourceOfSub)
	return err
}

// adaptAfterRound2 is the adaptation plan of pinnedChurnDigests: one Adapt
// with the recorded loads, after round 2.
func adaptAfterRound2(round int) (bool, func(string) float64) { return round == 2, nil }

// pinnedEntryCases pair a starting distribution with an adaptation plan.
var pinnedEntryCases = [3]struct {
	name  string
	start func(tree *hierarchy.Tree, w *World, wl *workload.Workload) error
	adapt func(round int) (bool, func(string) float64)
}{
	{
		name: "DistributeRandom, Adapt every round",
		start: func(tree *hierarchy.Tree, _ *World, wl *workload.Workload) error {
			return tree.DistributeRandom(wl.Queries, wl.SubRates, wl.SourceOfSub, 99)
		},
		adapt: func(int) (bool, func(string) float64) { return true, nil },
	},
	{
		name: "DistributeWith a random placement, Adapt every round",
		start: func(tree *hierarchy.Tree, w *World, wl *workload.Workload) error {
			random := w.RandomPlacement(wl, 5)
			return tree.DistributeWith(wl.Queries, wl.SubRates, wl.SourceOfSub,
				func(q querygraph.QueryInfo) topology.NodeID { return random[q.Name] })
		},
		adapt: func(int) (bool, func(string) float64) { return true, nil },
	},
	{
		name:  "Distribute, Adapt every round with a shifting estimator",
		start: distributeStart,
		adapt: func(round int) (bool, func(string) float64) {
			return true, func(name string) float64 {
				return 0.1 + float64((len(name)*7+round*13)%5)*0.05
			}
		},
	},
}

// pinnedChurnDigest runs the online life of a ScaleCI tree — start's
// distribution of 2 000 queries, then 4 rounds of 200 Insert followed by
// Remove of every other live inserted query (so later rounds insert into
// freed slots), each round ending with an Adapt where adapt asks for one,
// with the estimator it returns — and hashes, after every round, the sorted
// name=proc placement, the Adapt migration count, and the bits of
// ProcessorLoads in processor order.
func pinnedChurnDigest(t *testing.T, seed uint64,
	start func(tree *hierarchy.Tree, w *World, wl *workload.Workload) error,
	adapt func(round int) (bool, func(string) float64)) string {
	t.Helper()
	cfg := ConfigFor(ScaleCI)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	wc := cfg.Workload
	wc.Seed = seed
	wl, err := workload.Generate(wc, w.Sources, w.Processors, 2000)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	tree, err := hierarchy.Build(w.Oracle, w.Processors, nil, hierarchy.Config{K: 3, VMax: 40, Seed: 7})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := start(tree, w, wl); err != nil {
		t.Fatalf("start: %v", err)
	}

	h := sha256.New()
	snapshot := func() {
		placement := tree.Placement()
		names := make([]string, 0, len(placement))
		for name := range placement {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "%s=%d\n", name, placement[name])
		}
		loads := tree.ProcessorLoads()
		for _, p := range w.Processors {
			fmt.Fprintf(h, "%d:%016x\n", p, math.Float64bits(loads[p]))
		}
	}
	snapshot()
	var live []string
	for round := 1; round <= 4; round++ {
		for i := 0; i < 200; i++ {
			q := wl.NewQuery(w.Processors)
			if _, err := tree.Insert(q); err != nil {
				t.Fatalf("round %d: Insert(%s): %v", round, q.Name, err)
			}
			live = append(live, q.Name)
		}
		kept := live[:0]
		for i, name := range live {
			if i%2 == 1 {
				kept = append(kept, name)
				continue
			}
			if _, ok := tree.Remove(name); !ok {
				t.Fatalf("round %d: Remove(%s) unknown", round, name)
			}
		}
		live = kept
		if ok, loadOf := adapt(round); ok {
			rep, err := tree.Adapt(loadOf)
			if err != nil {
				t.Fatalf("Adapt: %v", err)
			}
			fmt.Fprintf(h, "migrations=%d\n", rep.Migrations)
		}
		snapshot()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinnedInsertRemoveAdaptDigest holds the insert/remove/adapt sequence
// to the digests recorded at the parent commit: seeds 1–3 from Distribute
// with one Adapt, and workload seed 1 from each of pinnedEntryCases.
func TestPinnedInsertRemoveAdaptDigest(t *testing.T) {
	for i, want := range pinnedChurnDigests {
		seed := uint64(i + 1)
		if got := pinnedChurnDigest(t, seed, distributeStart, adaptAfterRound2); got != want {
			t.Errorf("seed %d: digest %s, recorded %s", seed, got, want)
		}
	}
	for i, tc := range pinnedEntryCases {
		if got := pinnedChurnDigest(t, 1, tc.start, tc.adapt); got != pinnedEntryDigests[i] {
			t.Errorf("%s: digest %s, recorded %s", tc.name, got, pinnedEntryDigests[i])
		}
	}
}

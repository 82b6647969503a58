package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/hierarchy"
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

// pinnedChurnDigest runs the online life of a ScaleCI tree — Distribute of
// 2 000 queries, then 4 rounds of 200 Insert followed by Remove of every
// other live inserted query (so later rounds insert into freed slots), with
// one Adapt after round 2 — and hashes, after every round, the sorted
// name=proc placement, the Adapt migration count, and the bits of
// ProcessorLoads in processor order.
func pinnedChurnDigest(t *testing.T, seed uint64) string {
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
	if _, err := tree.Distribute(wl.Queries, wl.SubRates, wl.SourceOfSub); err != nil {
		t.Fatalf("Distribute: %v", err)
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
		if round == 2 {
			rep, err := tree.Adapt(nil)
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
// to the digests recorded at the parent commit.
func TestPinnedInsertRemoveAdaptDigest(t *testing.T) {
	for i, want := range pinnedChurnDigests {
		seed := uint64(i + 1)
		if got := pinnedChurnDigest(t, seed); got != want {
			t.Errorf("seed %d: digest %s, recorded %s", seed, got, want)
		}
	}
}

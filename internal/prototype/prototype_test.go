package prototype

import (
	"testing"

	"repro/internal/trace"
)

func testPrototypeWorld(t *testing.T) *World {
	t.Helper()
	cfg := trace.DefaultConfig()
	w, err := NewWorld(30, cfg, 3)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

func TestGenerateQueriesParse(t *testing.T) {
	w := testPrototypeWorld(t)
	cqs, err := w.GenerateQueries(50, 9)
	if err != nil {
		t.Fatalf("GenerateQueries: %v", err)
	}
	if len(cqs) != 50 {
		t.Fatalf("got %d queries, want 50", len(cqs))
	}
	for _, cq := range cqs {
		if cq.Info.Interest.Count() == 0 {
			t.Errorf("query %s has empty interest", cq.Query.Name)
		}
		if len(cq.Query.JoinPredicates()) == 0 {
			t.Errorf("query %s has no join predicates", cq.Query.Name)
		}
		if cq.Sel < 0 || cq.Sel > 1 {
			t.Errorf("query %s has selectivity %v outside [0,1]", cq.Query.Name, cq.Sel)
		}
	}
}

func TestFig11Comparison(t *testing.T) {
	w := testPrototypeWorld(t)
	for _, n := range []int{50, 150} {
		cqs, err := w.GenerateQueries(n, 9)
		if err != nil {
			t.Fatalf("GenerateQueries(%d): %v", n, err)
		}
		res, err := w.Run(cqs, 2)
		if err != nil {
			t.Fatalf("Run(%d): %v", n, err)
		}
		t.Logf("n=%d cosmos cost=%.0f time=%v | opplace cost=%.0f time=%v",
			n, res.CosmosCost, res.CosmosTime, res.OpCost, res.OpTime)
		// Fig 11(a): COSMOS within a small factor of operator placement.
		if res.CosmosCost > res.OpCost*3 {
			t.Errorf("n=%d: cosmos cost %.0f more than 3x op placement %.0f", n, res.CosmosCost, res.OpCost)
		}
		// Fig 11(b): operator placement's running time exceeds
		// COSMOS's.
		if res.OpTime < res.CosmosTime {
			t.Errorf("n=%d: op placement time %v below cosmos %v", n, res.OpTime, res.CosmosTime)
		}
	}
}

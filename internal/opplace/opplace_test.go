package opplace

import (
	"testing"

	"repro/internal/query"
	"repro/internal/topology"
)

// fixedModel is a deterministic RateModel for tests.
type fixedModel struct {
	rates   map[string]float64
	sources map[string]topology.NodeID
}

func (m fixedModel) StreamRate(name string) float64 { return m.rates[name] }
func (m fixedModel) SourceOf(name string) (topology.NodeID, bool) {
	n, ok := m.sources[name]
	return n, ok
}
func (m fixedModel) Selectivity(string, []query.Predicate) float64 { return 0.5 }
func (m fixedModel) JoinFactor(*query.Query) float64               { return 0.1 }

func testModel() fixedModel {
	return fixedModel{
		rates:   map[string]float64{"R": 100, "S": 80},
		sources: map[string]topology.NodeID{"R": 0, "S": 1},
	}
}

func lineOracle(t *testing.T, n int) *topology.Oracle {
	t.Helper()
	g := topology.NewGraph(n)
	for i := 0; i < n-1; i++ {
		if err := g.AddEdge(topology.NodeID(i), topology.NodeID(i+1), 5); err != nil {
			t.Fatal(err)
		}
	}
	return topology.NewOracle(g)
}

func TestAddQueryBuildsSharedOperators(t *testing.T) {
	g := NewGraph()
	model := testModel()
	q1 := query.MustParse(`SELECT * FROM R [Now], S [Now] WHERE R.a = S.a AND R.x > 10`)
	q1.Name = "q1"
	q2 := query.MustParse(`SELECT * FROM R [Now], S [Now] WHERE R.a = S.a AND R.x > 10`)
	q2.Name = "q2"
	if err := g.AddQuery(q1, 5, model); err != nil {
		t.Fatal(err)
	}
	if err := g.AddQuery(q2, 6, model); err != nil {
		t.Fatal(err)
	}
	counts := kinds(g)
	// Identical structure: shared sources, shared selection, shared join;
	// only the sinks differ.
	if counts["source"] != 2 {
		t.Errorf("sources = %d, want 2", counts["source"])
	}
	if counts["select"] != 1 {
		t.Errorf("selections = %d, want 1 (shared)", counts["select"])
	}
	if counts["join"] != 1 {
		t.Errorf("joins = %d, want 1 (shared)", counts["join"])
	}
	if counts["sink"] != 2 {
		t.Errorf("sinks = %d, want 2", counts["sink"])
	}
}

func TestDifferentPredicatesNotShared(t *testing.T) {
	g := NewGraph()
	model := testModel()
	q1 := query.MustParse(`SELECT * FROM R [Now] WHERE x > 10`)
	q1.Name = "a"
	q2 := query.MustParse(`SELECT * FROM R [Now] WHERE x > 20`)
	q2.Name = "b"
	_ = g.AddQuery(q1, 5, model)
	_ = g.AddQuery(q2, 6, model)
	if got := kinds(g)["select"]; got != 2 {
		t.Errorf("selections = %d, want 2 (different thresholds)", got)
	}
}

func TestSelectionRateUsesSelectivity(t *testing.T) {
	g := NewGraph()
	model := testModel()
	q := query.MustParse(`SELECT * FROM R [Now] WHERE x > 10`)
	q.Name = "q"
	if err := g.AddQuery(q, 5, model); err != nil {
		t.Fatal(err)
	}
	for _, op := range g.Ops {
		if role(op) == "select" && op.OutRate != 50 { // 100 * 0.5
			t.Errorf("selection rate = %v, want 50", op.OutRate)
		}
	}
}

func TestPlacePinsAndImproves(t *testing.T) {
	oracle := lineOracle(t, 8)
	g := NewGraph()
	model := testModel()
	for i, text := range []string{
		`SELECT * FROM R [Now], S [Now] WHERE R.a = S.a AND R.x > 10`,
		`SELECT * FROM R [Now], S [Now] WHERE R.a = S.a AND S.y < 3`,
	} {
		q := query.MustParse(text)
		q.Name = string(rune('a' + i))
		if err := g.AddQuery(q, topology.NodeID(6+i), model); err != nil {
			t.Fatal(err)
		}
	}
	candidates := []topology.NodeID{2, 3, 4, 5}
	// Legal naive baseline: every movable operator on one processor.
	for _, op := range g.Ops {
		if !op.Pinned {
			op.Node = candidates[0]
		}
	}
	before := g.Cost(oracle)
	g.Place(oracle, candidates, 3)
	after := g.Cost(oracle)
	if after > before {
		t.Errorf("placement worsened cost: %v -> %v", before, after)
	}
	for _, op := range g.Ops {
		switch role(op) {
		case "source":
			if op.Node != 0 && op.Node != 1 {
				t.Errorf("source moved to %d", op.Node)
			}
		case "sink":
			if op.Node != 6 && op.Node != 7 {
				t.Errorf("sink moved to %d", op.Node)
			}
		default:
			found := false
			for _, c := range candidates {
				if op.Node == c {
					found = true
				}
			}
			if !found {
				t.Errorf("%s operator placed off-candidate at %d", role(op), op.Node)
			}
		}
	}
}

func TestUnknownStreamRejected(t *testing.T) {
	g := NewGraph()
	q := query.MustParse(`SELECT * FROM Mystery [Now]`)
	q.Name = "m"
	if err := g.AddQuery(q, 5, testModel()); err == nil {
		t.Error("unknown stream accepted")
	}
}

func TestTopoOrderSourcesFirst(t *testing.T) {
	g := NewGraph()
	model := testModel()
	q := query.MustParse(`SELECT * FROM R [Now], S [Now] WHERE R.a = S.a AND R.x > 1`)
	q.Name = "q"
	if err := g.AddQuery(q, 5, model); err != nil {
		t.Fatal(err)
	}
	seen := make(map[*Operator]bool)
	for _, op := range g.topoOrder() {
		for _, in := range op.Inputs {
			if !seen[in] {
				t.Errorf("%s operator ordered before its input", role(op))
			}
		}
		seen[op] = true
	}
	if len(seen) != len(g.Ops) {
		t.Errorf("topo order covers %d of %d", len(seen), len(g.Ops))
	}
}

// role reads an operator's part in the DAG from its wiring: a source has
// no inputs, a sink no consumers, and a join more than one input.
func role(op *Operator) string {
	switch {
	case len(op.Inputs) == 0:
		return "source"
	case len(op.Consumers) == 0:
		return "sink"
	case len(op.Inputs) > 1:
		return "join"
	}
	return "select"
}

// kinds counts the graph's operators by role: how much sharing it achieved.
func kinds(g *Graph) map[string]int {
	out := map[string]int{}
	for _, op := range g.Ops {
		out[role(op)]++
	}
	return out
}

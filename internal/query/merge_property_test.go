package query

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

// randomQuery draws a random single- or two-stream query over streams R,S
// with numeric predicates on attributes a,b and (for joins) an equi-join on
// k, so that merge compatibility is common but not universal.
func randomQuery(r *rand.Rand, name string) *Query {
	twoStreams := r.IntN(2) == 0
	var text string
	windows := []string{"[Now]", "[Range 10 Minutes]", "[Range 1 Hour]"}
	if twoStreams {
		text = fmt.Sprintf("SELECT R.a, S.b FROM R %s R, S %s S WHERE R.k = S.k",
			windows[r.IntN(len(windows))], windows[r.IntN(len(windows))])
	} else {
		text = fmt.Sprintf("SELECT * FROM R %s R", windows[r.IntN(len(windows))])
	}
	q := MustParse(text)
	q.Name = name
	// Add 0-2 numeric selections.
	attrs := []string{"a", "b"}
	ops := []Op{Gt, Ge, Lt, Le}
	for i := 0; i < r.IntN(3); i++ {
		lit := stream.FloatVal(float64(r.IntN(40) - 20))
		q.Where = append(q.Where, Predicate{
			Left:  Operand{Col: &ColRef{Alias: "R", Attr: attrs[r.IntN(len(attrs))]}},
			Op:    ops[r.IntN(len(ops))],
			Right: Operand{Lit: &lit},
		})
	}
	return q
}

// TestQuickMergeContainsInputs: whenever two queries share a group, the superset
// contains both inputs and the residuals only ever tighten (never relax)
// the superset.
func TestQuickMergeContainsInputs(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 61))
		q1 := randomQuery(r, "q1")
		q2 := randomQuery(r, "q2")
		mr, err := merge(q1, q2)
		if err != nil {
			return true // incompatible pair; nothing to verify
		}
		if !Contains(mr.Super, q1) || !Contains(mr.Super, q2) {
			t.Logf("superset %s does not contain %s / %s", mr.Super, q1, q2)
			return false
		}
		for _, res := range mr.Residuals {
			// Residual windows must be no wider than the superset's.
			for alias, w := range res.Windows {
				sw, ok := mr.Super.RefByAlias(alias)
				if !ok || !sw.Window.Covers(w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickContainmentTransitive: containment must be transitive on
// randomly nested queries built by progressive weakening.
func TestQuickContainmentTransitive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 67))
		// c (strongest) ⊑ b ⊑ a (weakest) by construction.
		base := float64(r.IntN(10))
		mk := func(bound float64, window string) *Query {
			return MustParse(fmt.Sprintf(
				"SELECT * FROM R %s R WHERE R.a > %g", window, bound))
		}
		a := mk(base, "[Range 1 Hour]")
		b := mk(base+float64(r.IntN(5)), "[Range 30 Minutes]")
		c := mk(base+5+float64(r.IntN(5)), "[Range 10 Minutes]")
		if !Contains(a, b) || !Contains(b, c) {
			return false
		}
		return Contains(a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickMergeCommutative: merge(q1,q2) and merge(q2,q1) produce
// equivalent supersets.
func TestQuickMergeCommutative(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 71))
		q1 := randomQuery(r, "q1")
		q2 := randomQuery(r, "q2")
		m12, err1 := merge(q1, q2)
		m21, err2 := merge(q2, q1)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return Contains(m12.Super, m21.Super) && Contains(m21.Super, m12.Super)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

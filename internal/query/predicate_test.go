package query

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

func tup(attrs map[string]float64) stream.Tuple {
	t := stream.Tuple{Attrs: make(map[string]stream.Value, len(attrs))}
	for k, v := range attrs {
		t.Attrs[k] = stream.FloatVal(v)
	}
	return t
}

func selPred(alias, attr string, op Op, v float64) Predicate {
	lit := stream.FloatVal(v)
	return Predicate{
		Left:  Operand{Col: &ColRef{Alias: alias, Attr: attr}},
		Op:    op,
		Right: Operand{Lit: &lit},
	}
}

func TestEvalSelection(t *testing.T) {
	p := selPred("S", "a", Gt, 10)
	if !EvalSelection(p, tup(map[string]float64{"a": 11})) {
		t.Error("11 > 10 failed")
	}
	if EvalSelection(p, tup(map[string]float64{"a": 10})) {
		t.Error("10 > 10 passed")
	}
	if EvalSelection(p, tup(map[string]float64{"b": 99})) {
		t.Error("missing attribute passed")
	}
	// Flipped literal-first form must behave identically.
	flipped := Predicate{Left: p.Right, Op: Lt, Right: p.Left}
	if !EvalSelection(flipped, tup(map[string]float64{"a": 11})) {
		t.Error("flipped form failed")
	}
}

// EvalJoin evaluates a join predicate against a pair of tuples bound to the
// predicate's two aliases. No production code calls it (the engine compiles
// join predicates into its plan); it stays here as the pairwise statement of
// the semantics.
func EvalJoin(p Predicate, left, right stream.Tuple, leftAlias string) bool {
	if !p.IsJoin() {
		return false
	}
	bind := func(c *ColRef) (stream.Value, bool) {
		if c.Alias == leftAlias {
			return left.Get(c.Attr)
		}
		return right.Get(c.Attr)
	}
	lv, ok := bind(p.Left.Col)
	if !ok {
		return false
	}
	rv, ok := bind(p.Right.Col)
	if !ok {
		return false
	}
	return p.Op.Eval(lv.Compare(rv))
}

func TestEvalJoin(t *testing.T) {
	p := Predicate{
		Left:  Operand{Col: &ColRef{Alias: "L", Attr: "x"}},
		Op:    Gt,
		Right: Operand{Col: &ColRef{Alias: "R", Attr: "x"}},
	}
	l := tup(map[string]float64{"x": 5})
	r := tup(map[string]float64{"x": 3})
	if !EvalJoin(p, l, r, "L") {
		t.Error("5 > 3 failed")
	}
	if EvalJoin(p, r, l, "L") {
		t.Error("3 > 5 passed")
	}
}

func TestIntervalConstrainAndImplies(t *testing.T) {
	iv := FullInterval().
		Constrain(Gt, stream.FloatVal(10)).
		Constrain(Le, stream.FloatVal(20))
	cases := []struct {
		op   Op
		v    float64
		want bool
	}{
		{Gt, 5, true},
		{Gt, 10, true},
		{Gt, 11, false},
		{Ge, 10, true},
		{Le, 20, true},
		{Le, 19, false},
		{Lt, 21, true},
		{Lt, 20, false},
		{Ne, 9, true},   // 9 outside (10,20]
		{Ne, 15, false}, // 15 inside
		{Eq, 15, false},
	}
	for _, c := range cases {
		if got := iv.Implies(c.op, stream.FloatVal(c.v)); got != c.want {
			t.Errorf("(10,20] implies x %v %v = %v, want %v", c.op, c.v, got, c.want)
		}
	}
}

func TestIntervalEmpty(t *testing.T) {
	iv := FullInterval().
		Constrain(Gt, stream.FloatVal(10)).
		Constrain(Lt, stream.FloatVal(5))
	if !iv.Empty() {
		t.Error("contradictory interval not empty")
	}
	point := FullInterval().Constrain(Eq, stream.FloatVal(7))
	if point.Empty() {
		t.Error("point interval reported empty")
	}
	notPoint := point.Constrain(Ne, stream.FloatVal(7))
	if !notPoint.Empty() {
		t.Error("x=7 AND x!=7 not empty")
	}
	strContra := FullInterval().
		Constrain(Eq, stream.StringVal("a")).
		Constrain(Eq, stream.StringVal("b"))
	if !strContra.Empty() {
		t.Error("a=b string contradiction not empty")
	}
}

func TestIntervalUnion(t *testing.T) {
	a := FullInterval().Constrain(Ge, stream.FloatVal(10)) // [10,∞)
	b := FullInterval().Constrain(Gt, stream.FloatVal(20)) // (20,∞)
	u := a.Union(b)
	if !u.Implies(Ge, stream.FloatVal(10)) {
		t.Errorf("union %v does not imply >= 10", u)
	}
	if u.Implies(Gt, stream.FloatVal(20)) {
		t.Errorf("union %v wrongly implies > 20", u)
	}
}

func TestIntervalPredicatesRoundTrip(t *testing.T) {
	col := ColRef{Alias: "S", Attr: "a"}
	iv := FullInterval().
		Constrain(Ge, stream.FloatVal(10)).
		Constrain(Lt, stream.FloatVal(20))
	preds := iv.Predicates(col)
	if len(preds) != 2 {
		t.Fatalf("predicates = %v", preds)
	}
	rebuilt := FullInterval()
	for _, p := range preds {
		p = p.Normalize()
		rebuilt = rebuilt.Constrain(p.Op, *p.Right.Lit)
	}
	if rebuilt.Lo != 10 || rebuilt.Hi != 20 || rebuilt.LoOpen || !rebuilt.HiOpen {
		t.Errorf("round trip = %v", rebuilt)
	}
	// Point interval renders as equality.
	pt := FullInterval().Constrain(Eq, stream.FloatVal(5))
	preds = pt.Predicates(col)
	if len(preds) != 1 || preds[0].Op != Eq {
		t.Errorf("point predicates = %v", preds)
	}
}

func TestSelectivity(t *testing.T) {
	iv := FullInterval().
		Constrain(Ge, stream.FloatVal(25)).
		Constrain(Lt, stream.FloatVal(75))
	if got := iv.Selectivity(0, 100); got != 0.5 {
		t.Errorf("Selectivity = %v, want 0.5", got)
	}
	empty := FullInterval().Constrain(Gt, stream.FloatVal(5)).Constrain(Lt, stream.FloatVal(1))
	if got := empty.Selectivity(0, 100); got != 0 {
		t.Errorf("empty Selectivity = %v", got)
	}
}

// TestQuickImpliesSoundness: if an interval implies a predicate, every
// sampled value satisfying the interval must satisfy the predicate.
func TestQuickImpliesSoundness(t *testing.T) {
	ops := []Op{Eq, Ne, Lt, Le, Gt, Ge}
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 11))
		iv := FullInterval()
		for i := 0; i < r.IntN(4); i++ {
			iv = iv.Constrain(ops[r.IntN(len(ops))], stream.FloatVal(float64(r.IntN(21)-10)))
		}
		op := ops[r.IntN(len(ops))]
		lit := stream.FloatVal(float64(r.IntN(21) - 10))
		if !iv.Implies(op, lit) {
			return true // nothing to check
		}
		// Sample integer points and verify.
		for x := -15.0; x <= 15; x++ {
			if !inInterval(iv, x) {
				continue
			}
			if !op.Eval(stream.FloatVal(x).Compare(lit)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func inInterval(iv Interval, x float64) bool {
	if iv.Empty() {
		return false
	}
	if x < iv.Lo || (x == iv.Lo && iv.LoOpen) {
		return false
	}
	if x > iv.Hi || (x == iv.Hi && iv.HiOpen) {
		return false
	}
	for _, ne := range iv.NotEq {
		if x == ne {
			return false
		}
	}
	return true
}

// TestQuickUnionAdmitsBoth: every point admitted by either input interval
// is admitted by the union.
func TestQuickUnionAdmitsBoth(t *testing.T) {
	ops := []Op{Lt, Le, Gt, Ge}
	mk := func(r *rand.Rand) Interval {
		iv := FullInterval()
		for i := 0; i < 1+r.IntN(3); i++ {
			iv = iv.Constrain(ops[r.IntN(len(ops))], stream.FloatVal(float64(r.IntN(21)-10)))
		}
		return iv
	}
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 13))
		a, b := mk(r), mk(r)
		u := a.Union(b)
		for x := -15.0; x <= 15; x++ {
			if (inInterval(a, x) || inInterval(b, x)) && !inInterval(u, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickContainsFloatMatchesConjunction: membership in the interval built
// by folding a random conjunction of numeric selection predicates must equal
// evaluating every predicate in turn — the contract the broker matching
// index compiles subscriptions under.
func TestQuickContainsFloatMatchesConjunction(t *testing.T) {
	ops := []Op{Eq, Ne, Lt, Le, Gt, Ge}
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 17))
		var preds []Predicate
		iv := FullInterval()
		for i := 0; i < 1+r.IntN(4); i++ {
			p := selPred("", "a", ops[r.IntN(len(ops))], float64(r.IntN(11)-5))
			preds = append(preds, p)
			iv = iv.Constrain(p.Op, *p.Right.Lit)
		}
		for x := -8.0; x <= 8; x += 0.5 {
			want := true
			for _, p := range preds {
				if !p.Op.Eval(stream.FloatVal(x).Compare(*p.Right.Lit)) {
					want = false
					break
				}
			}
			if iv.ContainsFloat(x) != want {
				t.Logf("seed %d: x=%v interval=%v want=%v", seed, x, iv, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestContainsFloatStringConstraints(t *testing.T) {
	iv := FullInterval().Constrain(Eq, stream.StringVal("x"))
	if iv.ContainsFloat(3) {
		t.Error("numeric value admitted by a string-equality constraint")
	}
	iv = FullInterval().Constrain(Ne, stream.StringVal("x"))
	if !iv.ContainsFloat(3) {
		t.Error("numeric value rejected by a string-disequality constraint")
	}
}

func TestSelectionIntervalsByAttr(t *testing.T) {
	preds := []Predicate{
		selPred("", "a", Gt, 1),
		selPred("", "a", Le, 5),
		selPred("", "b", Eq, 2),
		// Flipped literal-first form (2 > a) normalizes onto the same column.
		{Left: selPred("", "a", Gt, 2).Right, Op: Gt, Right: selPred("", "a", Gt, 2).Left},
	}
	ivs := SelectionIntervalsByAttr(preds)
	if len(ivs) != 2 {
		t.Fatalf("intervals for %d attrs, want 2", len(ivs))
	}
	a := ivs["a"]
	if a.ContainsFloat(1) || !a.ContainsFloat(1.5) || a.ContainsFloat(2) || a.ContainsFloat(6) {
		t.Errorf("interval for a = %v, want (1,2)", a)
	}
	if b := ivs["b"]; !b.ContainsFloat(2) || b.ContainsFloat(3) {
		t.Errorf("interval for b = %v, want [2,2]", b)
	}
}

func TestNumericSelection(t *testing.T) {
	if _, ok := NumericSelection(selPred("", "a", Gt, 1)); !ok {
		t.Error("numeric selection rejected")
	}
	// Literal-first form compiles via normalization, flipping the op.
	flip := Predicate{Left: selPred("", "a", Gt, 3).Right, Op: Lt, Right: selPred("", "a", Gt, 3).Left}
	n, ok := NumericSelection(flip)
	if !ok || n.Op != Gt || n.Left.Col == nil {
		t.Errorf("flipped selection normalized to %v ok=%v", n, ok)
	}
	slit := stream.StringVal("x")
	if _, ok := NumericSelection(Predicate{
		Left: Operand{Col: &ColRef{Attr: "a"}}, Op: Eq, Right: Operand{Lit: &slit},
	}); ok {
		t.Error("string-literal selection accepted as numeric")
	}
	join := Predicate{
		Left:  Operand{Col: &ColRef{Alias: "L", Attr: "x"}},
		Op:    Eq,
		Right: Operand{Col: &ColRef{Alias: "R", Attr: "x"}},
	}
	if _, ok := NumericSelection(join); ok {
		t.Error("join predicate accepted as numeric selection")
	}
	nan := stream.FloatVal(math.NaN())
	if _, ok := NumericSelection(Predicate{
		Left: Operand{Col: &ColRef{Attr: "a"}}, Op: Lt, Right: Operand{Lit: &nan},
	}); ok {
		t.Error("NaN-literal selection accepted (intervals cannot express cmp==0-against-NaN)")
	}
}

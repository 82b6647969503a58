package query

import (
	"fmt"
	"math"

	"repro/internal/stream"
)

// EvalSelection evaluates a selection predicate against a tuple belonging to
// the predicate's alias. It returns false when the attribute is absent.
func EvalSelection(p Predicate, t stream.Tuple) bool {
	p = p.Normalize()
	if !p.IsSelection() {
		return false
	}
	v, ok := t.Get(p.Left.Col.Attr)
	if !ok {
		return false
	}
	return p.Op.Eval(v.Compare(*p.Right.Lit))
}

// Interval is a numeric constraint set over one column: an interval with
// optionally open bounds, plus an optional disequality set. It is the
// normal form used to decide implication between conjunctions of selection
// predicates.
type Interval struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
	NotEq          []float64 // excluded points (from != predicates)
	EqString       *string   // exact string constraint, if any
	NeStrings      []string  // excluded strings
	contradictory  bool
}

// FullInterval returns the unconstrained interval.
func FullInterval() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// Empty reports whether the constraint set is unsatisfiable.
func (iv Interval) Empty() bool {
	if iv.contradictory {
		return true
	}
	if iv.Lo > iv.Hi {
		return true
	}
	if iv.Lo == iv.Hi {
		if iv.LoOpen || iv.HiOpen {
			return true
		}
		for _, x := range iv.NotEq {
			if x == iv.Lo {
				return true
			}
		}
	}
	return false
}

// Constrain tightens the interval with (op, literal).
func (iv Interval) Constrain(op Op, lit stream.Value) Interval {
	if lit.Type == stream.String {
		switch op {
		case Eq:
			if iv.EqString != nil && *iv.EqString != lit.S {
				iv.contradictory = true
			}
			s := lit.S
			iv.EqString = &s
			for _, ne := range iv.NeStrings {
				if ne == lit.S {
					iv.contradictory = true
				}
			}
		case Ne:
			if iv.EqString != nil && *iv.EqString == lit.S {
				iv.contradictory = true
			}
			iv.NeStrings = append(iv.NeStrings, lit.S)
		default:
			// Ordered string comparisons are rare; treat as opaque
			// (no tightening), which is sound for implication tests.
		}
		return iv
	}
	v := lit.F
	switch op {
	case Eq:
		// An equality at (or beyond) an open bound contradicts it:
		// {x > 5, x == 5} admits nothing. Record the contradiction
		// before pinning, or the pinned [v,v] would silently admit v.
		if v < iv.Lo || (v == iv.Lo && iv.LoOpen) || v > iv.Hi || (v == iv.Hi && iv.HiOpen) {
			iv.contradictory = true
		}
		if v > iv.Lo || (v == iv.Lo && iv.LoOpen) {
			iv.Lo, iv.LoOpen = v, false
		}
		if v < iv.Hi || (v == iv.Hi && iv.HiOpen) {
			iv.Hi, iv.HiOpen = v, false
		}
	case Ne:
		iv.NotEq = append(iv.NotEq, v)
	case Lt:
		if v < iv.Hi || (v == iv.Hi && !iv.HiOpen) {
			iv.Hi, iv.HiOpen = v, true
		}
	case Le:
		if v < iv.Hi {
			iv.Hi, iv.HiOpen = v, false
		}
	case Gt:
		if v > iv.Lo || (v == iv.Lo && !iv.LoOpen) {
			iv.Lo, iv.LoOpen = v, true
		}
	case Ge:
		if v > iv.Lo {
			iv.Lo, iv.LoOpen = v, false
		}
	}
	return iv
}

// Implies reports whether every point satisfying iv also satisfies
// (op, lit). An empty iv implies everything.
func (iv Interval) Implies(op Op, lit stream.Value) bool {
	if iv.Empty() {
		return true
	}
	if lit.Type == stream.String {
		switch op {
		case Eq:
			return iv.EqString != nil && *iv.EqString == lit.S
		case Ne:
			if iv.EqString != nil && *iv.EqString != lit.S {
				return true
			}
			for _, ne := range iv.NeStrings {
				if ne == lit.S {
					return true
				}
			}
			return false
		default:
			return false
		}
	}
	v := lit.F
	switch op {
	case Eq:
		return iv.Lo == v && iv.Hi == v && !iv.LoOpen && !iv.HiOpen
	case Ne:
		if v < iv.Lo || v > iv.Hi {
			return true
		}
		if v == iv.Lo && iv.LoOpen {
			return true
		}
		if v == iv.Hi && iv.HiOpen {
			return true
		}
		for _, x := range iv.NotEq {
			if x == v {
				return true
			}
		}
		return false
	case Lt:
		return iv.Hi < v || (iv.Hi == v && iv.HiOpen)
	case Le:
		return iv.Hi <= v
	case Gt:
		return iv.Lo > v || (iv.Lo == v && iv.LoOpen)
	case Ge:
		return iv.Lo >= v
	default:
		return false
	}
}

// ContainsFloat reports whether the numeric value x satisfies every
// constraint of the interval — the point-membership dual of Implies. It
// reproduces, for a Float/Int-typed attribute value, the conjunction of the
// selection predicates folded into the interval by Constrain: each numeric
// comparison op tightens exactly one bound (or the disequality set), so
// membership in the resulting set equals evaluating every predicate in turn.
// A string-equality constraint never admits a numeric value (Value.Compare
// orders all numerics before all strings), and excluded strings never reject
// one. The broker matching index uses this to evaluate a subscription's
// per-attribute filter conjunction with one call.
func (iv Interval) ContainsFloat(x float64) bool {
	if iv.contradictory || iv.EqString != nil {
		return false
	}
	if x < iv.Lo || (x == iv.Lo && iv.LoOpen) {
		return false
	}
	if x > iv.Hi || (x == iv.Hi && iv.HiOpen) {
		return false
	}
	for _, ne := range iv.NotEq {
		if ne == x {
			return false
		}
	}
	return true
}

// SelectionIntervalsByAttr folds a conjunction of selection predicates over
// flat (alias-free) tuples into one Interval per bare attribute name — the
// Pub/Sub counterpart of ColumnIntervals, whose keys carry aliases.
// Non-selection predicates are ignored.
func SelectionIntervalsByAttr(preds []Predicate) map[string]Interval {
	out := make(map[string]Interval)
	for _, p := range preds {
		p = p.Normalize()
		if !p.IsSelection() || p.Right.Lit == nil {
			continue
		}
		key := p.Left.Col.Attr
		iv, ok := out[key]
		if !ok {
			iv = FullInterval()
		}
		out[key] = iv.Constrain(p.Op, *p.Right.Lit)
	}
	return out
}

// NumericSelection reports whether p compares a column to a finite numeric
// literal — the predicate class whose conjunctions compile exactly into
// Interval constraints evaluable with ContainsFloat. It returns the
// normalized (column-on-the-left) form. A missing literal (a malformed
// column-versus-nothing predicate, which IsSelection still reports true
// for) is rejected so callers fall back to raw evaluation. String literals
// are excluded because mixed numeric/string comparisons follow
// Value.Compare's type ordering, and NaN literals because every comparison
// against NaN evaluates through Compare's cmp==0 branch, which no interval
// bound can express.
func NumericSelection(p Predicate) (Predicate, bool) {
	p = p.Normalize()
	if !p.IsSelection() || p.Right.Lit == nil || p.Right.Lit.Type == stream.String || math.IsNaN(p.Right.Lit.F) {
		return p, false
	}
	switch p.Op {
	case Eq, Ne, Lt, Le, Gt, Ge:
		return p, true
	}
	return p, false
}

// Union widens iv to cover both iv and o — the weakest numeric constraint
// implied by both conjuncts. Used when merging two queries: the merged query
// must admit the union of the two result sets.
func (iv Interval) Union(o Interval) Interval {
	out := FullInterval()
	switch {
	case iv.Lo > o.Lo:
		out.Lo, out.LoOpen = o.Lo, o.LoOpen
	case o.Lo > iv.Lo:
		out.Lo, out.LoOpen = iv.Lo, iv.LoOpen
	default:
		out.Lo, out.LoOpen = iv.Lo, iv.LoOpen && o.LoOpen
	}
	switch {
	case iv.Hi < o.Hi:
		out.Hi, out.HiOpen = o.Hi, o.HiOpen
	case o.Hi < iv.Hi:
		out.Hi, out.HiOpen = iv.Hi, iv.HiOpen
	default:
		out.Hi, out.HiOpen = iv.Hi, iv.HiOpen && o.HiOpen
	}
	if iv.EqString != nil && o.EqString != nil && *iv.EqString == *o.EqString {
		s := *iv.EqString
		out.EqString = &s
	}
	return out
}

// Predicates converts the interval back to a minimal predicate list over the
// given column. Unbounded sides produce no predicate.
func (iv Interval) Predicates(col ColRef) []Predicate {
	var out []Predicate
	mk := func(op Op, v stream.Value) Predicate {
		lit := v
		c := col
		return Predicate{Left: Operand{Col: &c}, Op: op, Right: Operand{Lit: &lit}}
	}
	if iv.EqString != nil {
		return []Predicate{mk(Eq, stream.StringVal(*iv.EqString))}
	}
	if iv.Lo == iv.Hi && !math.IsInf(iv.Lo, 0) && !iv.LoOpen && !iv.HiOpen {
		return []Predicate{mk(Eq, stream.FloatVal(iv.Lo))}
	}
	if !math.IsInf(iv.Lo, -1) {
		if iv.LoOpen {
			out = append(out, mk(Gt, stream.FloatVal(iv.Lo)))
		} else {
			out = append(out, mk(Ge, stream.FloatVal(iv.Lo)))
		}
	}
	if !math.IsInf(iv.Hi, 1) {
		if iv.HiOpen {
			out = append(out, mk(Lt, stream.FloatVal(iv.Hi)))
		} else {
			out = append(out, mk(Le, stream.FloatVal(iv.Hi)))
		}
	}
	return out
}

// ColumnIntervals builds the per-column normal form of a query's selection
// predicates, keyed by "alias.attr".
func ColumnIntervals(q *Query) map[string]Interval {
	out := make(map[string]Interval)
	for _, p := range q.Where {
		p = p.Normalize()
		if !p.IsSelection() {
			continue
		}
		key := p.Left.Col.String()
		iv, ok := out[key]
		if !ok {
			iv = FullInterval()
		}
		out[key] = iv.Constrain(p.Op, *p.Right.Lit)
	}
	return out
}

// ImpliesPredicate reports whether the conjunction captured by intervals
// (plus the join predicate set joins) implies predicate p. Join predicates
// are implied only by syntactic presence after normalization.
func ImpliesPredicate(intervals map[string]Interval, joins map[string]bool, p Predicate) bool {
	p = p.Normalize()
	if p.IsSelection() {
		iv, ok := intervals[p.Left.Col.String()]
		if !ok {
			iv = FullInterval()
		}
		return iv.Implies(p.Op, *p.Right.Lit)
	}
	return joins[p.String()]
}

// JoinSet returns the normalized join predicates of q as a string set.
func JoinSet(q *Query) map[string]bool {
	out := make(map[string]bool)
	for _, p := range q.JoinPredicates() {
		out[p.Normalize().String()] = true
	}
	return out
}

// Selectivity estimates the fraction of a value domain [lo,hi] admitted by
// the interval, used by the cost model to size filtered stream rates.
func (iv Interval) Selectivity(lo, hi float64) float64 {
	if iv.Empty() || hi <= lo {
		return 0
	}
	l := math.Max(iv.Lo, lo)
	h := math.Min(iv.Hi, hi)
	if h <= l {
		return 0
	}
	return (h - l) / (hi - lo)
}

func (iv Interval) String() string {
	lb, rb := "[", "]"
	if iv.LoOpen {
		lb = "("
	}
	if iv.HiOpen {
		rb = ")"
	}
	return fmt.Sprintf("%s%g,%g%s", lb, iv.Lo, iv.Hi, rb)
}

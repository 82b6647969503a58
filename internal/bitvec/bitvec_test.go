package bitvec

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Test(i) {
			t.Errorf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Test(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if got := v.Count(); got != 8 {
		t.Errorf("Count = %d after 8 Sets", got)
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	v := New(10)
	v.Set(-1)
	v.Set(10)
	v.Set(1 << 20)
	if v.Count() != 0 {
		t.Errorf("out-of-range Set changed the vector: %v", v)
	}
	if v.Test(-1) || v.Test(10) {
		t.Error("out-of-range Test returned true")
	}
}

func TestCountAndIndices(t *testing.T) {
	v := FromIndices(200, []int{3, 64, 65, 199})
	if got := v.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	want := []int{3, 64, 65, 199}
	got := v.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Indices[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// overlapCount is |a AND b|, through the production overlap scan with unit
// weights.
func overlapCount(a, b *Vector) int {
	ones := make([]float64, len(a.words)*wordBits)
	for i := range ones {
		ones[i] = 1
	}
	return int(a.OverlapWeightedSumRange(b, ones, 0, len(a.words)))
}

func TestOverlapAndContains(t *testing.T) {
	a := FromIndices(100, []int{1, 2, 3, 70})
	b := FromIndices(100, []int{2, 3, 99})
	if got := overlapCount(a, b); got != 2 {
		t.Errorf("overlap = %d, want 2", got)
	}
	if got := overlapCount(a, New(100)); got != 0 {
		t.Errorf("overlap with the empty vector = %d", got)
	}
	// The scan stops at the shorter operand.
	if got := a.OverlapWeightedSumRange(b, make([]float64, 128), 0, 99); got != 0 {
		t.Errorf("zero weights summed to %v", got)
	}
}

func TestOrAndNotLengthMismatch(t *testing.T) {
	a, b := New(10), New(20)
	if err := a.Or(b); err == nil {
		t.Error("Or accepted mismatched lengths")
	}
}

func TestWeightedSum(t *testing.T) {
	weights := make([]float64, 70)
	for i := range weights {
		weights[i] = float64(i)
	}
	v := FromIndices(70, []int{1, 64, 69})
	if got, want := v.WeightedSum(weights), 1.0+64+69; got != want {
		t.Errorf("WeightedSum = %v, want %v", got, want)
	}
	o := FromIndices(70, []int{64, 69, 2})
	if got, want := v.OverlapWeightedSumRange(o, weights, 0, 2), 64.0+69; got != want {
		t.Errorf("OverlapWeightedSumRange = %v, want %v", got, want)
	}
	if got, want := v.OverlapWeightedSumRange(o, weights, 1, 2), 64.0+69; got != want {
		t.Errorf("OverlapWeightedSumRange over the span = %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	v := FromIndices(10, []int{1, 5, 9})
	if got := v.String(); got != "{1,5,9}" {
		t.Errorf("String = %q, want {1,5,9}", got)
	}
}

// randomVec builds a reproducible random vector for property tests.
func randomVec(r *rand.Rand, n int) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if r.IntN(3) == 0 {
			v.Set(i)
		}
	}
	return v
}

func TestQuickOverlapSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		a, b := randomVec(r, 257), randomVec(r, 257)
		return overlapCount(a, b) == overlapCount(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 2))
		a, b := randomVec(r, 193), randomVec(r, 193)
		u := a.Clone()
		if err := u.Or(b); err != nil {
			return false
		}
		// The union contains both operands, and its count is given by
		// inclusion-exclusion.
		if overlapCount(u, a) != a.Count() || overlapCount(u, b) != b.Count() {
			return false
		}
		return u.Count() == a.Count()+b.Count()-overlapCount(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWeightedSumMatchesIndices(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		v := randomVec(r, 130)
		weights := make([]float64, 130)
		for i := range weights {
			weights[i] = r.Float64()
		}
		var want float64
		for _, i := range v.Indices() {
			want += weights[i]
		}
		got := v.WeightedSum(weights)
		diff := got - want
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCloneIndependent(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 4))
		a := randomVec(r, 99)
		c := a.Clone()
		if c.String() != a.String() {
			return false
		}
		c.Set(5)
		c.Set(7)
		// a unchanged at those positions unless it already had them.
		orig := randomVec(rand.New(rand.NewPCG(seed, 4)), 99)
		return a.String() == orig.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkOverlapWeightedSum(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	x, y := randomVec(r, 20000), randomVec(r, 20000)
	weights := make([]float64, 20000)
	for i := range weights {
		weights[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.OverlapWeightedSumRange(y, weights, 0, len(x.words))
	}
}

// Package bitvec provides fixed-capacity bit vectors used to represent the
// data interest of continuous queries over partitioned substreams.
//
// The paper (§3.2) partitions each stream into substreams and represents a
// query's data interest as a bit vector with one bit per substream, so that
// the overlap between two queries — needed constantly by the graph-mapping
// algorithms — reduces to cheap word-wise AND/popcount operations.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is an empty vector of
// length zero; use New to create one with capacity.
type Vector struct {
	words []uint64
	n     int
}

// New returns a vector capable of holding n bits, all initially zero.
func New(n int) *Vector {
	if n < 0 {
		n = 0
	}
	return &Vector{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// FromIndices returns a vector of length n with the given bit positions set.
// Indices outside [0, n) are ignored.
//
//lint:deadcode test fixture builder of the bitvec, adapt, hierarchy, mapping, querygraph and sim tests (TestCountAndIndices, TestBestTarget and TestRemoveKeepsStateExact among them)
func FromIndices(n int, indices []int) *Vector {
	v := New(n)
	for _, i := range indices {
		v.Set(i)
	}
	return v
}

// Set sets bit i. Out-of-range indices are ignored.
func (v *Vector) Set(i int) {
	if i < 0 || i >= v.n {
		return
	}
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (v *Vector) Test(i int) bool {
	if i < 0 || i >= v.n {
		return false
	}
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	c := &Vector{words: make([]uint64, len(v.words)), n: v.n}
	copy(c.words, v.words)
	return c
}

// Or sets v to the union v | o. Vectors must have equal length.
func (v *Vector) Or(o *Vector) error {
	if err := v.check(o); err != nil {
		return err
	}
	for i, w := range o.words {
		v.words[i] |= w
	}
	return nil
}

// Words exposes the raw word representation for read-only scans, letting
// hot paths (the query-graph inverted indexes) iterate set bits without
// iterator or closure overhead. The slice must not be modified; bit i lives
// at words[i/64] bit (i%64).
func (v *Vector) Words() []uint64 { return v.words }

// Indices returns the positions of all set bits in ascending order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// WeightedSum returns the sum of weights[i] over all set bits i. It computes
// the aggregate data rate of the substreams a query is interested in.
// Weights must cover every set bit.
func (v *Vector) WeightedSum(weights []float64) float64 {
	var s float64
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			s += weights[wi*wordBits+b]
			w &= w - 1
		}
	}
	return s
}

// OverlapWeightedSumRange returns the sum of weights[i] over bits set in
// both v and o — the shared data rate of two queries — scanning only the
// word range [lo, hi). When the caller knows both vectors' set bits lie
// within the range (e.g. tracked word spans), skipped words contribute
// nothing.
func (v *Vector) OverlapWeightedSumRange(o *Vector, weights []float64, lo, hi int) float64 {
	if n := min(len(v.words), len(o.words)); hi > n {
		hi = n
	}
	var s float64
	for wi := lo; wi < hi; wi++ {
		w := v.words[wi] & o.words[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			s += weights[wi*wordBits+b]
			w &= w - 1
		}
	}
	return s
}

// String renders the vector as a compact run of set-bit indices, e.g.
// "{1,5,9}" — intended for tests and debugging, not serialization.
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, idx := range v.Indices() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", idx)
	}
	b.WriteByte('}')
	return b.String()
}

func (v *Vector) check(o *Vector) error {
	if v.n != o.n {
		return fmt.Errorf("bitvec: length mismatch %d != %d", v.n, o.n)
	}
	return nil
}

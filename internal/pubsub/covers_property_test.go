package pubsub

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/query"
	"repro/internal/stream"
)

// randomSub draws a subscription over streams {R,S}, attrs {a,b}, with 0-2
// numeric filters.
func randomSub(r *rand.Rand, id string) *Subscription {
	s := &Subscription{ID: id}
	if r.IntN(2) == 0 {
		s.Streams = []string{"R"}
	} else {
		s.Streams = []string{"R", "S"}
	}
	if r.IntN(3) == 0 {
		s.Attrs = []string{"a"}
	}
	ops := []query.Op{query.Gt, query.Ge, query.Lt, query.Le}
	attrs := []string{"a", "b"}
	for i := 0; i < r.IntN(3); i++ {
		s.Filters = append(s.Filters,
			filter(attrs[r.IntN(len(attrs))], ops[r.IntN(len(ops))], float64(r.IntN(21)-10)))
	}
	return s
}

// randomTuple draws a message over the same domain.
func randomTuple(r *rand.Rand) stream.Tuple {
	name := "R"
	if r.IntN(2) == 0 {
		name = "S"
	}
	return stream.Tuple{
		Stream: name,
		Attrs: map[string]stream.Value{
			"a": stream.FloatVal(float64(r.IntN(25) - 12)),
			"b": stream.FloatVal(float64(r.IntN(25) - 12)),
		},
		Size: 32,
	}
}

// TestQuickCoversSoundness: the covering relation used to suppress
// subscription propagation must be SOUND — if refCovers(wide, narrow), then
// every message narrow matches, wide matches too. (Routing correctness
// depends on exactly this: a suppressed subscription relies on the covering
// one to pull its traffic.)
func TestQuickCoversSoundness(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 101))
		wide := randomSub(r, "w")
		narrow := randomSub(r, "n")
		if !refCovers(wide, narrow) {
			return true
		}
		for trial := 0; trial < 40; trial++ {
			msg := randomTuple(r)
			if narrow.Matches(msg) && !wide.Matches(msg) {
				t.Logf("wide %s claimed to cover %s but misses %v", wide, narrow, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// MergeSubscriptions builds the union profile of two subscriptions — the
// p3 = p1 ∪ p2 step of Fig 3: stream and attribute lists union; per-column
// filters weaken to the union interval; filters on columns constrained by
// only one input are dropped (the merged profile must admit both). Brokers
// suppress covered subscriptions instead of merging them, so nothing outside
// the tests calls it; it stays as the statement of the step.
func MergeSubscriptions(id string, a, b *Subscription) *Subscription {
	out := &Subscription{ID: id}
	seen := make(map[string]bool)
	for _, st := range append(append([]string(nil), a.Streams...), b.Streams...) {
		if !seen[st] {
			seen[st] = true
			out.Streams = append(out.Streams, st)
		}
	}
	if a.Attrs == nil || b.Attrs == nil {
		out.Attrs = nil
	} else {
		seenA := make(map[string]bool)
		for _, at := range append(append([]string(nil), a.Attrs...), b.Attrs...) {
			if !seenA[at] {
				seenA[at] = true
				out.Attrs = append(out.Attrs, at)
			}
		}
		sort.Strings(out.Attrs)
	}
	ia, ib := query.SelectionIntervalsByAttr(a.Filters), query.SelectionIntervalsByAttr(b.Filters)
	cols := make([]string, 0, len(ia))
	for c := range ia {
		if _, ok := ib[c]; ok {
			cols = append(cols, c)
		}
	}
	sort.Strings(cols)
	for _, c := range cols {
		u := ia[c].Union(ib[c])
		out.Filters = append(out.Filters, u.Predicates(query.ColRef{Attr: c})...)
	}
	return out
}

// TestQuickMergeCoversInputs: a merged subscription profile must admit
// every message either input admits (the p3 = p1 ∪ p2 step of Fig 3).
func TestQuickMergeCoversInputs(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 103))
		a := randomSub(r, "a")
		b := randomSub(r, "b")
		m := MergeSubscriptions("m", a, b)
		for trial := 0; trial < 40; trial++ {
			msg := randomTuple(r)
			if (a.Matches(msg) || b.Matches(msg)) && !m.Matches(msg) {
				t.Logf("merge %s drops message %v admitted by %s / %s",
					m, msg, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickCoversReflexiveTransitive: covering is reflexive and transitive
// on random chains built by syntactic weakening.
func TestQuickCoversReflexiveTransitive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 107))
		base := float64(r.IntN(10))
		mk := func(bound float64) *Subscription {
			return &Subscription{
				ID:      fmt.Sprint(bound),
				Streams: []string{"R"},
				Filters: []query.Predicate{filter("a", query.Gt, bound)},
			}
		}
		weak := mk(base)
		mid := mk(base + float64(r.IntN(5)))
		strong := mk(base + 5 + float64(r.IntN(5)))
		if !refCovers(weak, weak) {
			return false
		}
		if !refCovers(weak, mid) || !refCovers(mid, strong) {
			return false
		}
		return refCovers(weak, strong)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package pubsub

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/query"
	"repro/internal/stream"
)

// The match → project → forward path holds no map but the payload: projection
// lists and unions are sorted slices, a group's original predicates are
// re-derived from the subscription, and a one-attribute index lets the stab
// count its own survivors. These tests hold each of those to the reference
// that still reads the subscription as given.

// TestPartialUnionMatchesLinear: on a direction where only some of the
// projecting records match a tuple, the per-tuple union matchSnap builds is,
// attribute for attribute, the one the reference collects over the same
// records — as are every other hop and the local deliveries.
func TestPartialUnionMatchesLinear(t *testing.T) {
	withPruneMin(t, func(t *testing.T) {
		partial := 0
		for seed := uint64(0); seed < 100; seed++ {
			r := rand.New(rand.NewPCG(seed, 2801))
			oracle, ids := eqNetwork(t, r, 2)
			net, err := NewNetwork(oracle, ids)
			if err != nil {
				t.Fatal(err)
			}
			src, _ := net.Broker(0)
			dst, _ := net.Broker(1)
			for _, s := range eqStreams {
				src.Advertise(s)
			}
			for i := 0; i < 24; i++ {
				node := []*Broker{dst, dst, src}[i%3]
				if err := node.Subscribe(eqRandomSub(r, i), func(*Subscription, stream.Tuple) {}); err != nil {
					t.Fatal(err)
				}
			}
			ref := refMirror(src)
			for trial := 0; trial < 60; trial++ {
				tp := eqRandomTuple(r)
				got, gotHops := matchSnap(src.snap.Load(), &tp, -1, new(routeBufs), nil, nil)
				want, wantHops := ref.match(tp, -1)
				if !slices.EqualFunc(got, want, func(a delivery, b *refRecord) bool { return a.sub == b.sub }) {
					t.Fatalf("seed %d: %d local deliveries, reference %d, for %s", seed, len(got), len(want), renderTuple(tp))
				}
				eq := func(a hop, b refHop) bool {
					return a.to == b.to && (a.attrs == nil) == (b.attrs == nil) && slices.Equal(a.attrs, b.attrs)
				}
				if !slices.EqualFunc(gotHops, wantHops, eq) {
					t.Fatalf("seed %d: hops %v, reference %v, for %s", seed, gotHops, wantHops, renderTuple(tp))
				}
				for _, h := range gotHops {
					if h.attrs != nil && !slices.Equal(h.attrs, src.idx.dirs[h.to].posting(tp.Stream).union) {
						partial++
					}
				}
			}
		}
		if partial < 100 {
			t.Errorf("%d partially matched projecting directions: the per-tuple union is not exercised", partial)
		}
	})
}

// window is a subscription admitting lo <= a < hi, projecting nothing away.
func window(id int, lo, hi float64) *Subscription {
	return &Subscription{ID: fmt.Sprintf("w%d", id), Streams: []string{"R"},
		Filters: []query.Predicate{filter("a", query.Ge, lo), filter("a", query.Lt, hi)}}
}

// TestSingleAttributeStabIsItsOwnEstimate: a posting list indexed on one
// attribute skips attrIndex.estimate and decides on the stab's own survivor
// count. The decision is the estimate's, the candidates are the rebuilt
// index's, a selection of half the list or more falls back to the scan, and
// tombstones among the stabbed entries are counted out before deciding.
func TestSingleAttributeStabIsItsOwnEstimate(t *testing.T) {
	d := newDirIndex(map[string]bool{})
	var recs []*compiledSub
	add := func(lo, hi float64) {
		c := compileSub(window(len(recs), lo, hi), nil)
		c.regSeq = uint64(len(recs) + 1)
		recs = append(recs, c)
		d.add(c)
	}
	for i := 0; i < 48; i++ {
		add(0, 100) // admits the probe
	}
	for i := 0; i < 52; i++ {
		add(200+float64(i), 202+float64(i)) // does not
	}
	probe := stream.Tuple{Stream: "R", Attrs: map[string]stream.Value{"a": stream.FloatVal(5)}}
	check := func(what string, wantDead int, wantPruned bool, wantCands int) {
		t.Helper()
		ss := d.byStream["R"].streamSnap
		if ss.idx == nil || len(ss.idx.attrs) != 1 || len(ss.dead) != wantDead {
			t.Fatalf("%s: want an index of one attribute beside %d tombstones, got %+v beside %d", what, wantDead, ss.idx, len(ss.dead))
		}
		it := ss.matchIter(&probe, new(routeBufs))
		if byEstimate := 2*ss.idx.attrs[0].estimate(5) < ss.live(); it.pruned != byEstimate || it.pruned != wantPruned {
			t.Fatalf("%s: pruned=%v, the estimate says %v, want %v", what, it.pruned, byEstimate, wantPruned)
		}
		ref := rebuilt(survivors(d.byStream["R"]))
		got, want := walk(it), walk(ref.matchIter(&probe, new(routeBufs)))
		if !sameSeq(got, want) || len(got) != wantCands {
			t.Fatalf("%s: %d candidates, a rebuilt index selects %d, want %d", what, len(got), len(want), wantCands)
		}
	}
	check("48 of 100 admit the value", 0, true, 48)
	// Five removals among the others: 48 of 95 is more than half, and only the
	// exact count says so (the stab returned 48 entries beside 5 tombstones).
	for _, c := range recs[95:] {
		d.remove(c)
	}
	check("48 of 95 admit the value", 5, false, 95)
	// Four more among the stabbed: 44 of 91 survive the tombstone filter.
	for _, c := range recs[:4] {
		d.remove(c)
	}
	check("44 of 91 admit the value, 4 tombstones among the stabbed", 9, true, 44)
	for i := 0; i < 4; i++ {
		add(0, 100)
	}
	check("48 of 95 admit the value again", 9, false, 95)
}

// TestGroupFallbackWithoutStoredPredicates: a string-typed or NaN value on an
// attribute with a compiled interval group is decided by the subscription's
// own numeric filters on that attribute — no copy of them is kept on the
// record — exactly as Subscription.Matches decides.
func TestGroupFallbackWithoutStoredPredicates(t *testing.T) {
	ops := []query.Op{query.Eq, query.Ne, query.Lt, query.Le, query.Gt, query.Ge}
	values := []stream.Value{stream.StringVal("x"), stream.FloatVal(math.NaN()), stream.FloatVal(2), stream.IntVal(3)}
	for _, op1 := range ops {
		for _, op2 := range ops {
			lit := stream.FloatVal(3)
			s := &Subscription{ID: "g", Streams: []string{"R"}, Filters: []query.Predicate{
				filter("a", op1, 1),
				filter("b", query.Ge, 0), // a second group: the fallback reads only a's filters
				{Left: query.Operand{Lit: &lit}, Op: op2, Right: query.Operand{Col: &query.ColRef{Attr: "a"}}},
			}}
			c := compileSub(s, nil)
			if len(c.groups) != 2 || len(c.raw) != 0 {
				t.Fatalf("%s compiles to %d groups and %d raw filters, want 2 and 0", s, len(c.groups), len(c.raw))
			}
			for _, a := range values {
				for _, b := range []stream.Value{stream.FloatVal(1), stream.FloatVal(-1), stream.StringVal("y")} {
					tp := stream.Tuple{Stream: "R", Attrs: map[string]stream.Value{"a": a, "b": b}}
					if got, want := c.matches(&tp), s.Matches(tp); got != want {
						t.Errorf("compiled=%v linear=%v for %s on %s", got, want, s, renderTuple(tp))
					}
				}
			}
		}
	}
}

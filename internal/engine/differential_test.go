package engine

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/stream"
)

// The benchmark's query_mw oracle holds the middleware to engine.Engine
// itself, so an engine bug that is consistent passes it. These tests hold
// Engine to the seed's interpreter kept in reference_test.go.

var (
	diffStreams = []string{"A", "B", "C"}
	diffAliases = []string{"u", "m", "k", "z"}
	diffAttrs   = []string{"x", "y", "s", "timestamp", "nope"}
	diffStrings = []string{"p", "q", "r"}
	diffOps     = []query.Op{query.Eq, query.Ne, query.Lt, query.Le, query.Gt, query.Ge}
	diffJoinOps = []query.Op{query.Eq, query.Lt, query.Gt}
	diffWindows = []query.Window{
		{Kind: query.Now},
		{Kind: query.Range, Span: 5 * time.Millisecond},
		{Kind: query.Range, Span: 20 * time.Millisecond},
		{Kind: query.Range, Span: 60 * time.Millisecond},
		{Kind: query.Unbounded},
	}
)

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.IntN(len(xs))] }

// diffQuery draws one query: 1–3 aliases in an order that is not the sorted
// one, sometimes two of them over one stream, any window kind, selections in
// either operand order (one of them possibly a string ==), join predicates
// over any pair of aliases incl. timestamp, and a select list mixing explicit
// columns (duplicates and unknown attributes included), alias.* and bare *.
func diffQuery(rng *rand.Rand, name string) *query.Query {
	q := &query.Query{Name: name}
	perm := rng.Perm(len(diffAliases))
	n := 1 + rng.IntN(3)
	for i := 0; i < n; i++ {
		q.From = append(q.From, query.StreamRef{
			Stream: pick(rng, diffStreams), Alias: diffAliases[perm[i]], Window: pick(rng, diffWindows),
		})
	}
	if n > 1 && rng.IntN(3) == 0 {
		q.From[1].Stream = q.From[0].Stream
	}
	alias := func() string { return q.From[rng.IntN(n)].Alias }
	for k := rng.IntN(4); k > 0; k-- {
		col := &query.ColRef{Alias: alias(), Attr: pick(rng, diffAttrs[:4])}
		lit := stream.FloatVal(float64(rng.IntN(6)))
		op := pick(rng, diffOps)
		switch {
		case col.Attr == "s":
			lit = stream.StringVal(pick(rng, diffStrings))
			if rng.IntN(4) != 0 {
				op = query.Eq
			}
		case col.Attr == "timestamp":
			lit = stream.IntVal(100 + int64(rng.IntN(150)))
		}
		p := query.Predicate{Left: query.Operand{Col: col}, Op: op, Right: query.Operand{Lit: &lit}}
		if rng.IntN(3) == 0 {
			p.Left, p.Right = p.Right, p.Left
		}
		q.Where = append(q.Where, p)
	}
	if n > 1 {
		for k := rng.IntN(3); k > 0; k-- {
			i := rng.IntN(n)
			j := (i + 1 + rng.IntN(n-1)) % n
			q.Where = append(q.Where, query.Predicate{
				Left:  query.Operand{Col: &query.ColRef{Alias: q.From[i].Alias, Attr: pick(rng, diffAttrs[:4])}},
				Op:    pick(rng, diffJoinOps),
				Right: query.Operand{Col: &query.ColRef{Alias: q.From[j].Alias, Attr: pick(rng, diffAttrs[:4])}},
			})
		}
	}
	switch rng.IntN(4) {
	case 0:
		q.Select = append(q.Select, query.Projection{Star: true})
	case 1:
		q.Select = append(q.Select, query.Projection{Star: true, Col: query.ColRef{Alias: alias()}})
		fallthrough
	default:
		for k := 1 + rng.IntN(4); k > 0; k-- {
			q.Select = append(q.Select, query.Projection{Col: query.ColRef{Alias: alias(), Attr: pick(rng, diffAttrs)}})
		}
		if rng.IntN(4) == 0 {
			q.Select = append(q.Select, query.Projection{Star: true, Col: query.ColRef{Alias: alias()}})
		}
	}
	return q
}

// diffTrace draws a near-ordered feed: timestamps advance by 0–3 ms with an
// occasional step back, values come from small sets so equalities fire, and
// every attribute is sometimes missing.
func diffTrace(rng *rand.Rand, n int) []stream.Tuple {
	out := make([]stream.Tuple, 0, n)
	now := int64(100)
	for i := 0; i < n; i++ {
		now += int64(rng.IntN(4))
		ts := now
		if rng.IntN(7) == 0 {
			ts -= int64(rng.IntN(10))
		}
		attrs := make(map[string]stream.Value, 3)
		if rng.IntN(7) != 0 {
			attrs["x"] = stream.IntVal(int64(rng.IntN(5)))
		}
		if rng.IntN(7) != 0 {
			attrs["y"] = stream.FloatVal(float64(rng.IntN(20)) / 2)
		}
		if rng.IntN(7) != 0 {
			attrs["s"] = stream.StringVal(pick(rng, diffStrings))
		}
		out = append(out, stream.Tuple{Stream: pick(rng, diffStreams), Timestamp: ts, Attrs: attrs, Size: 16 + 8*len(attrs)})
	}
	return out
}

// TestDifferentialAgainstReference: per query the sequence of emitted tuples
// (stream, timestamp, attrs, Size) and QueryState after every arrival are
// those of the reference, as are the state count a mid-trace RemoveQuery
// returns and the Stats at the end.
func TestDifferentialAgainstReference(t *testing.T) {
	var queries, joins, emitting, emittingJoins, results int
	for seed := uint64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xd1ff))
		eng, ref := New(), newRefEngine()
		var got, want [][]stream.Tuple
		var names []string
		var isJoin, emitted []bool
		for i := 1 + rng.IntN(3); i > 0; i-- {
			i := len(names)
			q := diffQuery(rng, fmt.Sprintf("q%d", i))
			names = append(names, q.Name)
			got, want = append(got, nil), append(want, nil)
			isJoin, emitted = append(isJoin, len(q.From) > 1), append(emitted, false)
			result := fmt.Sprintf("res%d", i)
			if err := eng.AddQuery(q, result, func(r stream.Tuple) { got[i] = append(got[i], r) }); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, q, err)
			}
			if err := ref.AddQuery(q, result, func(r stream.Tuple) { want[i] = append(want[i], r) }); err != nil {
				t.Fatalf("seed %d: reference: %s: %v", seed, q, err)
			}
		}
		feed := diffTrace(rng, 40+rng.IntN(50))
		removeAt, removed := -1, ""
		if len(names) > 1 && rng.IntN(2) == 0 {
			removeAt, removed = rng.IntN(len(feed)), names[rng.IntN(len(names))]
		}
		for k, tup := range feed {
			if k == removeAt {
				g, gerr := eng.RemoveQuery(removed)
				w, werr := ref.RemoveQuery(removed)
				if g != w || gerr != nil || werr != nil {
					t.Fatalf("seed %d: RemoveQuery(%s) = %d, %v; reference %d, %v", seed, removed, g, gerr, w, werr)
				}
			}
			eng.Process(tup)
			ref.Process(tup)
			for i, name := range names {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("seed %d, arrival %d (%v), query %s: emitted\n%v\nreference\n%v",
						seed, k, tup, name, got[i], want[i])
				}
				results += len(got[i])
				emitted[i] = emitted[i] || len(got[i]) > 0
				got[i], want[i] = got[i][:0], want[i][:0]
				if g, w := eng.QueryState(name), ref.QueryState(name); g != w {
					t.Fatalf("seed %d, arrival %d, query %s: QueryState %d, reference %d", seed, k, name, g, w)
				}
			}
		}
		if g, w := eng.Stats(), ref.Stats(); g != w {
			t.Fatalf("seed %d: Stats %+v, reference %+v", seed, g, w)
		}
		if g, w := eng.QueryNames(), ref.QueryNames(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: QueryNames %v, reference %v", seed, g, w)
		}
		for i := range names {
			queries++
			if isJoin[i] {
				joins++
			}
			if emitted[i] {
				emitting++
				if isJoin[i] {
					emittingJoins++
				}
			}
		}
	}
	t.Logf("%d queries (%d joins), %d emitted (%d joins), %d result tuples compared", queries, joins, emitting, emittingJoins, results)
	if emittingJoins*4 < joins || emitting*2 < queries {
		t.Errorf("too few queries emit for the comparison to mean much: %d of %d (%d of %d joins)", emitting, queries, emittingJoins, joins)
	}
}

// attrsKey renders a result's attributes canonically, for multisets.
func attrsKey(t stream.Tuple) string {
	keys := make([]string, 0, len(t.Attrs))
	for k := range t.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + t.Attrs[k].String() + ";"
	}
	return s
}

// concurrentQueries is the resident set of TestConcurrentProcess: one
// selection per stream and joins across the streams, all over unbounded
// windows, so what a query emits does not depend on how the four feeds
// interleave (each satisfying combination is emitted once, by whichever of
// its tuples arrives last).
func concurrentQueries() []*query.Query {
	var qs []*query.Query
	for i := 0; i < 4; i++ {
		qs = append(qs, query.MustParse(fmt.Sprintf(`SELECT id, v FROM S%d [Unbounded] WHERE v > 2`, i)))
	}
	for i := 0; i < 4; i++ {
		qs = append(qs, query.MustParse(fmt.Sprintf(
			`SELECT L.id, R.id FROM S%d [Unbounded] L, S%d [Unbounded] R WHERE L.v = R.v AND L.id < 40`, i, (i+1)%4)))
	}
	qs = append(qs, query.MustParse(
		`SELECT a.id, b.id, c.id FROM S0 [Unbounded] a, S1 [Unbounded] b, S2 [Unbounded] c WHERE a.v = b.v AND b.v = c.v AND a.id < 12 AND c.id < 12`))
	for i, q := range qs {
		q.Name = fmt.Sprintf("keep%d", i)
	}
	return qs
}

// TestConcurrentProcess: four goroutines Process one stream each into one
// engine while a fifth adds and removes queries over the same streams. Under
// -race there is no report, and every query that was never removed emitted
// exactly what a serial replay emits.
func TestConcurrentProcess(t *testing.T) {
	const perStream = 120
	feeds := make([][]stream.Tuple, 4)
	for s := range feeds {
		for i := 0; i < perStream; i++ {
			feeds[s] = append(feeds[s], stream.Tuple{
				Stream: fmt.Sprintf("S%d", s), Timestamp: int64(i),
				Attrs: map[string]stream.Value{"id": stream.IntVal(int64(i)), "v": stream.IntVal(int64((i*7 + s) % 6))},
			})
		}
	}
	run := func(concurrent bool) []map[string]int {
		e := New()
		qs := concurrentQueries()
		counts := make([]map[string]int, len(qs))
		var mu sync.Mutex // sinks of one query may run on several goroutines
		for i, q := range qs {
			i := i
			counts[i] = make(map[string]int)
			if err := e.AddQuery(q, "res", func(r stream.Tuple) {
				mu.Lock()
				counts[i][attrsKey(r)]++
				mu.Unlock()
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !concurrent {
			for i := 0; i < perStream; i++ {
				for s := range feeds {
					e.Process(feeds[s][i])
				}
			}
			return counts
		}
		var wg sync.WaitGroup
		for s := range feeds {
			wg.Add(1)
			go func(feed []stream.Tuple) {
				defer wg.Done()
				for _, tup := range feed {
					e.Process(tup)
				}
			}(feeds[s])
		}
		stop := make(chan struct{})
		churned := make(chan struct{})
		go func() {
			defer close(churned)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := query.MustParse(fmt.Sprintf(`SELECT L.id FROM S%d [Range 5 Milliseconds] L, S%d [Now] R WHERE L.v = R.v`, i%4, (i+2)%4))
				q.Name = "churn"
				if err := e.AddQuery(q, "res", func(stream.Tuple) {}); err != nil {
					t.Error(err)
					return
				}
				e.QueryState("churn")
				e.Stats()
				if _, err := e.RemoveQuery("churn"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Wait()
		close(stop)
		<-churned
		return counts
	}
	want := run(false)
	got := run(true)
	for i := range want {
		if len(want[i]) == 0 {
			t.Errorf("query %d emitted nothing in the serial replay: the test is vacuous", i)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("query %d: concurrent result multiset (%d distinct) differs from the serial replay (%d distinct)",
				i, len(got[i]), len(want[i]))
		}
	}
}

// TestSinkMayReenterProcess: a sink that feeds its result back into the same
// engine — into another query and into the very query that emitted it — does
// not deadlock.
func TestSinkMayReenterProcess(t *testing.T) {
	e := New()
	first := query.MustParse(`SELECT v FROM In [Now] WHERE v < 3`)
	first.Name = "first"
	second := query.MustParse(`SELECT v FROM Loop [Now]`)
	second.Name = "second"
	var seen []float64
	if err := e.AddQuery(first, "res", func(r stream.Tuple) {
		// Back into the emitting query (until the selection stops it) and
		// on into the other one.
		v := r.Attrs["In.v"].F
		e.Process(stream.Tuple{Stream: "In", Timestamp: r.Timestamp, Attrs: map[string]stream.Value{"v": stream.FloatVal(v + 1)}})
		e.Process(stream.Tuple{Stream: "Loop", Timestamp: r.Timestamp, Attrs: map[string]stream.Value{"v": stream.FloatVal(v)}})
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddQuery(second, "res", func(r stream.Tuple) {
		seen = append(seen, r.Attrs["Loop.v"].F)
		e.QueryState("first")
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Process(stream.Tuple{Stream: "In", Timestamp: 1, Attrs: map[string]stream.Value{"v": stream.FloatVal(0)}})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a sink calling Process on its own engine deadlocked")
	}
	if want := []float64{2, 1, 0}; !reflect.DeepEqual(seen, want) {
		t.Errorf("second query saw %v, want %v", seen, want)
	}
}

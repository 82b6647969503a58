package cosmos

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestPublishAllocBudget pins what one Middleware.Publish allocates on a
// fixed deployment — 3 processors, 12 queries: star and projecting
// selections, pairs that merge into a superset, joins — as a count, which
// repeats exactly where ns/op guards drift with the box. It also pins the
// property the count follows from: a result costs one attribute map from the
// engine to the sinks. Q0, Q2 and Q3 merge into one superset whose result
// reaches two star users and one projecting user, and those three deliveries
// are made of exactly two maps — the engine's, handed to both star users, and
// the projecting user's projection.
func TestPublishAllocBudget(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:3], Config{K: 2, VMax: 10, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	d0, d1 := trace.StreamName(0), trace.StreamName(1)
	for i, name := range []string{d0, d1} {
		if err := m.RegisterStream(StreamDef{Name: name, Schema: trace.Schema(), Source: procs[4+i], Substreams: 2, RatePerSubstream: 5}); err != nil {
			t.Fatal(err)
		}
	}
	cqls := []string{
		`SELECT * FROM ` + d0 + ` [Now] WHERE snowHeight > 10`,
		`SELECT * FROM ` + d1 + ` [Now] WHERE snowHeight > 10`,
		`SELECT temperature FROM ` + d0 + ` [Now] WHERE temperature < 5`,
		`SELECT * FROM ` + d0 + ` [Now] WHERE snowHeight > 20`,
		`SELECT station FROM ` + d1 + ` [Now] WHERE snowHeight > 40`,
		`SELECT station, windSpeed FROM ` + d0 + ` [Now] WHERE windSpeed < 9 AND snowHeight > 30`,
		`SELECT station, snowHeight FROM ` + d0 + ` [Now] WHERE snowHeight > 10`,
		`SELECT S1.*, S2.* FROM ` + d0 + ` [Range 5 Minutes] S1, ` + d1 + ` [Range 5 Minutes] S2 WHERE S1.timestamp = S2.timestamp AND S1.snowHeight > S2.snowHeight`,
		`SELECT * FROM ` + d0 + ` [Now] WHERE windSpeed < 9`,
		`SELECT * FROM ` + d0 + ` [Now] WHERE snowHeight > 90`,
		`SELECT S1.*, S2.station FROM ` + d0 + ` [Range 5 Minutes] S1, ` + d1 + ` [Range 5 Minutes] S2 WHERE S1.timestamp = S2.timestamp AND S1.snowHeight > S2.snowHeight AND S1.snowHeight > 20`,
		`SELECT S1.station, S2.station FROM ` + d0 + ` [Range 5 Minutes] S1, ` + d1 + ` [Range 5 Minutes] S2 WHERE S1.timestamp = S2.timestamp AND S1.snowHeight > S2.snowHeight`,
	}
	var (
		delivered [12]int
		maps      [12]uintptr // the attribute map of each query's last delivery
		leaked    bool        // a sink saw the routing tag
	)
	for i, cql := range cqls {
		i := i
		if _, err := m.Submit(cql, procs[i%3], func(r Tuple) {
			delivered[i]++
			maps[i] = reflect.ValueOf(r.Attrs).Pointer()
			if _, ok := r.Attrs[stream.TagAttr]; ok || r.Tag != "" {
				leaked = true
			}
		}); err != nil {
			t.Fatalf("Submit %q: %v", cql, err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if a, b, c := m.handles["Q0"].split.super, m.handles["Q3"].split.super, m.handles["Q2"].split.super; a != b || a != c {
		t.Fatalf("Q0, Q3 and Q2 run as %s, %s and %s: the deployment no longer merges them", a.Name, b.Name, c.Name)
	}

	attrs := func(station int64, snow float64) map[string]stream.Value {
		return map[string]stream.Value{
			"station": stream.IntVal(station), "sensorType": stream.StringVal("snow"), "snowHeight": stream.FloatVal(snow),
			"temperature": stream.FloatVal(-3), "windSpeed": stream.FloatVal(4),
		}
	}
	// One tuple of the join's other side, then the measured one, over and over.
	if err := m.Publish(stream.Tuple{Stream: d1, Timestamp: 60_000, Attrs: attrs(2, 45)}); err != nil {
		t.Fatal(err)
	}
	tup := stream.Tuple{Stream: d0, Timestamp: 60_000, Attrs: attrs(1, 50)}
	publish := func() {
		if err := m.Publish(tup); err != nil {
			t.Fatal(err)
		}
	}
	before := delivered
	publish()
	for i, want := range [12]int{1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1} {
		if got := delivered[i] - before[i]; got != want {
			t.Errorf("query %d (%s) received %d results of the measured tuple, want %d", i, cqls[i], got, want)
		}
	}
	if leaked {
		t.Errorf("a sink saw the routing tag: it is header, cleared before the sink, and never in Attrs")
	}
	if maps[0] != maps[3] || maps[0] == maps[2] {
		t.Errorf("maps delivered to star users %#x, %#x and to the projecting user %#x: want the stars sharing the engine's map and one projection", maps[0], maps[3], maps[2])
	}

	if raceEnabled {
		return
	}
	const want = 24
	if got := testing.AllocsPerRun(200, publish); got != want {
		t.Errorf("Middleware.Publish allocates %v objects on the fixed deployment, pinned %d (go1.24 map layout)", got, want)
	}
}

// TestRouteAllocBudget pins what one Broker.Publish allocates on the
// two-broker route set-up of BenchmarkBrokerRouteParallel (routeBench): the
// source broker matches and forwards, the neighbor matches and delivers to
// two window subscriptions. The walk is the benchmark's own loop, the
// caller's map included; the two fixed tuples split it into a stream whose
// subscribers take the tuple whole and one whose subscribers project, where
// every hop and every delivery costs a projection — a map, two objects — and
// the hop one sorted slice more: the union of the two matching lists, since
// the stream's other subscriptions do not match. The counts do not depend on
// the population.
func TestRouteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	for _, n := range []int{1000, 10000} {
		src, _, tupleAt, delivered := routeBench(t, n)
		i := 0
		walk := testing.AllocsPerRun(6400, func() { src.Publish(tupleAt(i)); i++ })
		whole, projected := tupleAt(65), tupleAt(64)
		for _, c := range []struct {
			what string
			got  float64
			want float64
		}{
			{"the benchmark's walk", walk, 7},
			{"a tuple taken whole", testing.AllocsPerRun(200, func() { src.Publish(whole) }), 2},
			{"a tuple projected", testing.AllocsPerRun(200, func() { src.Publish(projected) }), 7},
		} {
			if c.got != c.want {
				t.Errorf("subs=%d: Broker.Publish of %s allocates %v objects, pinned %v (go1.24 map layout)", n, c.what, c.got, c.want)
			}
		}
		if delivered.Load() == 0 {
			t.Fatal("no deliveries: the route path was not exercised")
		}
	}

	// The same count when the union is a real merge: of three projecting
	// subscriptions two match, with different, unsorted lists.
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	net, err := pubsub.NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := net.Broker(0)
	dst, _ := net.Broker(1)
	src.Advertise("P")
	var got []int
	for i, attrs := range [][]string{{"c", "a"}, {"b", "a", "b"}, {"d"}} {
		lit := stream.FloatVal(float64(10 * (i / 2))) // a >= 0, a >= 0, a >= 10
		sub := &pubsub.Subscription{ID: fmt.Sprint("p", i), Streams: []string{"P"}, Attrs: attrs, Filters: []query.Predicate{
			{Left: query.Operand{Col: &query.ColRef{Attr: "a"}}, Op: query.Ge, Right: query.Operand{Lit: &lit}},
		}}
		if err := dst.Subscribe(sub, func(_ *pubsub.Subscription, tp stream.Tuple) { got = append(got, len(tp.Attrs)) }); err != nil {
			t.Fatal(err)
		}
	}
	tup := stream.Tuple{Stream: "P", Size: 48, Attrs: map[string]stream.Value{
		"a": stream.FloatVal(1), "b": stream.FloatVal(2), "c": stream.FloatVal(3), "d": stream.FloatVal(4),
	}}
	src.Publish(tup)
	if want := []int{2, 2}; !slices.Equal(got, want) {
		t.Fatalf("deliveries carry %v attributes, want %v", got, want)
	}
	if data := net.Traffic().DataBytes; data != 16+8*3 {
		t.Fatalf("the hop carried %v bytes, want the union of three attributes (40)", data)
	}
	if allocs := testing.AllocsPerRun(200, func() { got = got[:0]; src.Publish(tup) }); allocs != 7 {
		t.Errorf("Broker.Publish through a merged partial union allocates %v objects, pinned 7 (go1.24 map layout)", allocs)
	}
}

// TestSubscribeAllocBudget pins what the control path allocates on the
// routeBench set-up: one Subscribe and Unsubscribe of a fresh window
// subscription at the subscribing broker — compile and record it, derive the
// next posting-list and epoch versions, decide its propagation toward the
// publisher by a cover scan, record it there, and retract it from both. The
// count is an average over many pairs, so the index's periodic tail flushes,
// run merges and compactions are amortised into it.
func TestSubscribeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	lo, hi := stream.FloatVal(1e6), stream.FloatVal(1e6+2)
	a := &query.ColRef{Attr: "a"}
	sub := &pubsub.Subscription{ID: "fresh", Streams: []string{"S00"}, Attrs: []string{"a", "b"}, Filters: []query.Predicate{
		{Left: query.Operand{Col: a}, Op: query.Ge, Right: query.Operand{Lit: &lo}},
		{Left: query.Operand{Col: a}, Op: query.Lt, Right: query.Operand{Lit: &hi}},
	}}
	handler := func(*pubsub.Subscription, stream.Tuple) {}
	for _, c := range []struct {
		subs int
		want float64
	}{{1000, 44}, {10000, 39}} {
		_, dst, _, _ := routeBench(t, c.subs)
		got := testing.AllocsPerRun(1000, func() {
			if err := dst.Subscribe(sub, handler); err != nil {
				t.Fatal(err)
			}
			dst.Unsubscribe(sub.ID)
		})
		if got != c.want {
			t.Errorf("subs=%d: a Subscribe+Unsubscribe pair allocates %v objects, pinned %v (go1.24 map layout)", c.subs, got, c.want)
		}
	}
}

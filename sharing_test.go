package cosmos

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Result sharing (§2.1) must not change what a user receives. These tests
// put every query on one processor, so the merge fires, and hold each user's
// deliveries to an engine.Engine running the queries unmerged.

// resultKey renders one delivery as (timestamp, attrs), canonically.
func resultKey(t stream.Tuple) string {
	names := make([]string, 0, len(t.Attrs))
	for a := range t.Attrs {
		names = append(names, a)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "@%d", t.Timestamp)
	for _, a := range names {
		fmt.Fprintf(&b, " %s=%s", a, t.Attrs[a])
	}
	return b.String()
}

// sharedVersusUnmerged submits the queries at one processor of a started
// middleware and adds them, unmerged, to a standalone engine; publishes the
// feed into both; and returns, per query, the sorted deliveries of each, and
// how many (superset) queries the processor's engine ran.
func sharedVersusUnmerged(t *testing.T, defs []StreamDef, cqls []string, feed []stream.Tuple) (got, want [][]string, running int) {
	t.Helper()
	g, procs := testTopology(t)
	m, err := New(g, procs[:1], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range defs {
		if err := m.RegisterStream(def); err != nil {
			t.Fatal(err)
		}
	}
	ref := engine.New()
	got, want = make([][]string, len(cqls)), make([][]string, len(cqls))
	for i, cql := range cqls {
		i := i
		if _, err := m.Submit(cql, procs[0], func(r Tuple) { got[i] = append(got[i], resultKey(r)) }); err != nil {
			t.Fatalf("Submit %q: %v", cql, err)
		}
		q := query.MustParse(cql)
		q.Name = fmt.Sprintf("ref%d", i)
		if err := ref.AddQuery(q, "ref", func(r stream.Tuple) { want[i] = append(want[i], resultKey(r)) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	for _, tup := range feed {
		if err := m.Publish(tup); err != nil {
			t.Fatal(err)
		}
		ref.Process(tup)
	}
	for i := range cqls {
		sort.Strings(got[i])
		sort.Strings(want[i])
	}
	return got, want, len(m.wiring[procs[0]].eng.QueryNames())
}

// TestSharingKeepsResidualFilterColumn is bench-README defect 1: merged with
// a query that does not constrain b, the first query's residual filters on b
// — a column neither select list carries. The superset must project it, every
// hop must keep it, and the user must not see it.
func TestSharingKeepsResidualFilterColumn(t *testing.T) {
	_, procs := testTopology(t)
	defs := []StreamDef{{
		Name: "R", Source: procs[4], Substreams: 2, RatePerSubstream: 5,
		Schema: stream.Schema{Attrs: []stream.Attribute{{Name: "a", Type: stream.Float}, {Name: "b", Type: stream.Float}}},
	}}
	feed := []stream.Tuple{{Stream: "R", Timestamp: 1, Attrs: map[string]stream.Value{"a": stream.FloatVal(2), "b": stream.FloatVal(3)}}}
	got, want, running := sharedVersusUnmerged(t, defs, []string{
		`SELECT a FROM R [Now] WHERE a > 1 AND b < 5`,
		`SELECT a FROM R [Now] WHERE a > 0`,
	}, feed)
	if running != 1 {
		t.Fatalf("%d engine queries, want the two merged into 1", running)
	}
	for i := range got {
		if len(got[i]) != 1 || !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("query %d delivered %v, unmerged engine %v", i, got[i], want[i])
		}
	}
	if len(got[0]) == 1 && got[0][0] != "@1 R.a=2" {
		t.Errorf("first query's tuple is %q, want only R.a", got[0][0])
	}
}

// TestOnlineSubmitKeepsMergedNeighbourDelivering is ROADMAP item 1(ii): a
// Submit on a started middleware that merges with a running query renames
// the superset, so the running user's subscription — not only the
// newcomer's — must move to the new result tag, or it receives nothing again.
func TestOnlineSubmitKeepsMergedNeighbourDelivering(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:1], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterStream(StreamDef{
		Name: "R", Source: procs[4], Substreams: 2, RatePerSubstream: 5,
		Schema: stream.Schema{Attrs: []stream.Attribute{{Name: "a", Type: stream.Float}}},
	}); err != nil {
		t.Fatal(err)
	}
	var got [2][]string
	submit := func(i int, cql string) {
		t.Helper()
		if _, err := m.Submit(cql, procs[0], func(r Tuple) { got[i] = append(got[i], resultKey(r)) }); err != nil {
			t.Fatalf("Submit %q: %v", cql, err)
		}
	}
	publish := func(ts int64) {
		t.Helper()
		if err := m.Publish(stream.Tuple{Stream: "R", Timestamp: ts, Attrs: map[string]stream.Value{"a": stream.FloatVal(2)}}); err != nil {
			t.Fatal(err)
		}
	}
	submit(0, `SELECT a FROM R [Now] WHERE a > 1`)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	publish(1)
	submit(1, `SELECT a FROM R [Now] WHERE a > 0`)
	if running := len(m.wiring[procs[0]].eng.QueryNames()); running != 1 {
		t.Fatalf("%d engine queries, want the two merged into 1", running)
	}
	publish(2)
	if want := []string{"@1 R.a=2", "@2 R.a=2"}; !reflect.DeepEqual(got[0], want) {
		t.Errorf("the running query delivered %v, want %v", got[0], want)
	}
	if want := []string{"@2 R.a=2"}; !reflect.DeepEqual(got[1], want) {
		t.Errorf("the query submitted online delivered %v, want %v", got[1], want)
	}
}

// TestSharingKeepsWidenedWindowTimestamps: two joins that differ in their
// [Range] merge under the wider window, and the narrower query's residual
// re-checks ages against Station1.timestamp, which neither select list names.
func TestSharingKeepsWidenedWindowTimestamps(t *testing.T) {
	_, procs := testTopology(t)
	var defs []StreamDef
	for _, name := range []string{"Station1", "Station2"} {
		defs = append(defs, StreamDef{Name: name, Schema: stationSchema(), Source: procs[4], Substreams: 2, RatePerSubstream: 5})
	}
	var feed []stream.Tuple
	for i := int64(0); i < 40; i++ {
		feed = append(feed, stream.Tuple{
			Stream: []string{"Station1", "Station1", "Station2"}[i%3], Timestamp: i * 4 * 60_000,
			Attrs: map[string]stream.Value{"snowHeight": stream.FloatVal(float64((i * 7) % 11))},
		})
	}
	join := `SELECT Station1.snowHeight, Station2.snowHeight FROM Station1 [Range %d Minutes], Station2 [Now] ` +
		`WHERE Station1.snowHeight > Station2.snowHeight`
	got, want, running := sharedVersusUnmerged(t, defs, []string{fmt.Sprintf(join, 10), fmt.Sprintf(join, 30)}, feed)
	if running != 1 {
		t.Fatalf("%d engine queries, want the two merged into 1", running)
	}
	for i := range got {
		if len(want[i]) == 0 || !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("query %d delivered %d results %v, unmerged engine %d %v", i, len(got[i]), got[i], len(want[i]), want[i])
		}
	}
	if len(want[0]) >= len(want[1]) {
		t.Errorf("the narrow window admits %d results and the wide one %d: the re-check is not exercised", len(want[0]), len(want[1]))
	}
}

// TestSharingRenamesAliases: two queries that name one stream differently
// share a superset under the first one's alias; the second user must receive
// its attributes under its own alias.
func TestSharingRenamesAliases(t *testing.T) {
	_, procs := testTopology(t)
	defs := []StreamDef{{
		Name: "R", Source: procs[4], Substreams: 2, RatePerSubstream: 5,
		Schema: stream.Schema{Attrs: []stream.Attribute{{Name: "a", Type: stream.Float}}},
	}}
	feed := []stream.Tuple{{Stream: "R", Timestamp: 1, Attrs: map[string]stream.Value{"a": stream.FloatVal(2)}}}
	got, want, running := sharedVersusUnmerged(t, defs, []string{
		`SELECT X.a FROM R [Now] X WHERE X.a > 1`,
		`SELECT Y.a FROM R [Now] Y WHERE Y.a > 0`,
	}, feed)
	if running != 1 {
		t.Fatalf("%d engine queries, want the two merged into 1", running)
	}
	for i, w := range []string{"@1 X.a=2", "@1 Y.a=2"} {
		if !reflect.DeepEqual(got[i], []string{w}) || !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("query %d delivered %v, want %v (unmerged engine %v)", i, got[i], w, want[i])
		}
	}
}

// TestUnrelatedSubmitKeepsJoinWindow: a Submit whose query shares nothing
// with a running join at the same processor leaves the join's engine query,
// and the window it buffered, in place.
func TestUnrelatedSubmitKeepsJoinWindow(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:1], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	schema := stream.Schema{Attrs: []stream.Attribute{{Name: "k", Type: stream.Float}, {Name: "a", Type: stream.Float}}}
	for _, name := range []string{"R", "S"} {
		if err := m.RegisterStream(StreamDef{Name: name, Schema: schema, Source: procs[4], Substreams: 2, RatePerSubstream: 5}); err != nil {
			t.Fatal(err)
		}
	}
	var joined []string
	if _, err := m.Submit(`SELECT R.a, S.a FROM R [Range 1 Hour], S [Now] WHERE R.k = S.k`, procs[0],
		func(r Tuple) { joined = append(joined, resultKey(r)) }); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	publish := func(name string, ts int64) {
		t.Helper()
		if err := m.Publish(stream.Tuple{Stream: name, Timestamp: ts, Attrs: map[string]stream.Value{"k": stream.FloatVal(1), "a": stream.FloatVal(7)}}); err != nil {
			t.Fatal(err)
		}
	}
	publish("R", 1000)
	if _, err := m.Submit(`SELECT a FROM S [Now] WHERE a > 100`, procs[0], func(Tuple) {}); err != nil {
		t.Fatal(err)
	}
	publish("S", 2000)
	if want := []string{"@2000 R.a=7 S.a=7"}; !reflect.DeepEqual(joined, want) {
		t.Errorf("the join delivered %v after an unrelated Submit, want %v", joined, want)
	}
}

// sharingQuery draws one CQL text over the trace's deployment streams:
// selections and two-stream joins whose aliases, windows, thresholds, select
// lists (explicit columns that need not include what is filtered on, or
// stars) and optional extra filters come from small sets, so that co-located
// queries merge and most residuals are not empty.
func sharingQuery(rng *rand.Rand) string {
	windows := []string{"[Now]", "[Range 2 Seconds]", "[Range 5 Seconds]"}
	attrs := []string{"station", "snowHeight", "temperature", "windSpeed", "sensorType"}
	cols := func(alias string, star bool) string {
		if star {
			return alias + ".*"
		}
		perm := rng.Perm(len(attrs))[:1+rng.IntN(3)]
		out := make([]string, len(perm))
		for i, p := range perm {
			out[i] = alias + "." + attrs[p]
		}
		return strings.Join(out, ", ")
	}
	filters := func(alias string) []string {
		out := []string{fmt.Sprintf("%s.snowHeight > %d", alias, 30+10*rng.IntN(3))}
		if rng.IntN(2) == 0 {
			out = append(out, fmt.Sprintf("%s.windSpeed < %d", alias, 6+3*rng.IntN(2)))
		}
		if rng.IntN(4) == 0 {
			out = append(out, fmt.Sprintf("%s.sensorType = 'snow'", alias))
		}
		return out
	}
	d1 := rng.IntN(2)
	s1, s2 := trace.StreamName(d1), trace.StreamName(2)
	a1, a2 := pick(rng, []string{s1, "A", "B"}), pick(rng, []string{s2, "B", "C"})
	if a1 == a2 {
		a2 = s2
	}
	if rng.IntN(3) != 0 {
		sel := cols(a1, rng.IntN(3) == 0)
		if rng.IntN(4) == 0 {
			sel = "*"
		}
		return fmt.Sprintf("SELECT %s FROM %s %s %s WHERE %s", sel, s1, pick(rng, windows), a1, strings.Join(filters(a1), " AND "))
	}
	sel := cols(a1, rng.IntN(3) == 0) + ", " + cols(a2, rng.IntN(3) == 0)
	if rng.IntN(5) == 0 {
		sel = "*"
	}
	where := append(filters(a1), fmt.Sprintf("%s.snowHeight > %s.snowHeight", a1, a2))
	return fmt.Sprintf("SELECT %s FROM %s %s %s, %s %s %s WHERE %s", sel, s1, pick(rng, windows[1:]), a1, s2, pick(rng, windows), a2, strings.Join(where, " AND "))
}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.IntN(len(xs))] }

// TestSharingMatchesUnmergedEngine: random co-located query sets over a
// seeded sensor trace, result sharing on — every query's deliveries equal the
// unmerged engine's as multisets of (timestamp, attrs).
func TestSharingMatchesUnmergedEngine(t *testing.T) {
	_, procs := testTopology(t)
	var defs []StreamDef
	for d := 0; d < 3; d++ {
		defs = append(defs, StreamDef{Name: trace.StreamName(d), Schema: trace.Schema(), Source: procs[4], Substreams: 2, RatePerSubstream: 5})
	}
	var queries, supersets, delivering, results int
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5ba4e))
		gen, err := trace.New(trace.Config{Stations: 9, Deployments: 3, PeriodMillis: 1000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var feed []stream.Tuple
		for p := 0; p < 12; p++ {
			feed = append(feed, gen.Next()...)
		}
		cqls := make([]string, 3+rng.IntN(6))
		for i := range cqls {
			cqls[i] = sharingQuery(rng)
		}
		got, want, running := sharedVersusUnmerged(t, defs, cqls, feed)
		supersets += running
		for i := range cqls {
			queries++
			results += len(want[i])
			if len(want[i]) > 0 {
				delivering++
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d, query %d of %q:\n%s\ndelivered %d results, the unmerged engine %d\nfirst delivered: %v\nfirst expected:  %v",
					seed, i, cqls, cqls[i], len(got[i]), len(want[i]), first(got[i]), first(want[i]))
			}
		}
	}
	t.Logf("%d queries run as %d, %d with results, %d results compared", queries, supersets, delivering, results)
	if delivering*2 < queries || supersets*3 > queries*2 {
		t.Errorf("%d of %d queries have results, run as %d engine queries: the comparison means little", delivering, queries, supersets)
	}
}

func first(xs []string) string {
	if len(xs) == 0 {
		return "(none)"
	}
	return xs[0]
}

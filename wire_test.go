package cosmos

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

func mustSubmitHandles(t *testing.T, texts []string) []*QueryHandle {
	t.Helper()
	out := make([]*QueryHandle, len(texts))
	for i, text := range texts {
		q, err := query.Parse(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		q.Name = string(rune('A' + i))
		out[i] = &QueryHandle{Name: q.Name, Query: q}
	}
	return out
}

func TestUnionFilters(t *testing.T) {
	hs := mustSubmitHandles(t, []string{
		`SELECT * FROM R [Now] WHERE a > 10 AND b < 5`,
		`SELECT * FROM R [Now] WHERE a > 20`,
	})
	filters := unionFilters(hs, "R")
	// Only `a` is constrained by both; the union keeps the weaker a > 10.
	if len(filters) != 1 {
		t.Fatalf("filters = %v, want exactly one", filters)
	}
	p := filters[0].Normalize()
	if p.Left.Col.Attr != "a" || p.Op != query.Gt || p.Right.Lit.F != 10 {
		t.Errorf("union filter = %v, want a > 10", p)
	}
	// A query with no selections on the stream kills all pushdown.
	hs = append(hs, mustSubmitHandles(t, []string{`SELECT * FROM R [Now]`})...)
	if got := unionFilters(hs, "R"); len(got) != 0 {
		t.Errorf("filters with unfiltered reader = %v, want none", got)
	}
	// A stream nobody reads yields no filters.
	if got := unionFilters(hs, "Z"); got != nil {
		t.Errorf("filters for unread stream = %v", got)
	}
}

func TestUnionFiltersNeverDropNeededTuples(t *testing.T) {
	hs := mustSubmitHandles(t, []string{
		`SELECT * FROM R [Now] WHERE a >= 10 AND a <= 20`,
		`SELECT * FROM R [Now] WHERE a >= 15 AND a <= 30`,
	})
	filters := unionFilters(hs, "R")
	// Every tuple either query accepts must pass the pushed-down filter.
	for a := 0.0; a <= 40; a++ {
		tp := stream.Tuple{Attrs: map[string]stream.Value{"a": stream.FloatVal(a)}}
		wanted := (a >= 10 && a <= 20) || (a >= 15 && a <= 30)
		passes := true
		for _, f := range filters {
			if !query.EvalSelection(f, tp) {
				passes = false
			}
		}
		if wanted && !passes {
			t.Errorf("a=%v needed by a query but dropped by union filter %v", a, filters)
		}
	}
}

func TestNeededAttrs(t *testing.T) {
	hs := mustSubmitHandles(t, []string{
		`SELECT R.a FROM R [Now] R, S [Now] S WHERE R.b = S.b`,
	})
	attrs := neededAttrs(hs, "R")
	if len(attrs) != 2 || attrs[0] != "a" || attrs[1] != "b" {
		t.Errorf("attrs = %v, want [a b]", attrs)
	}
	// A star over the stream demands everything.
	hs = mustSubmitHandles(t, []string{`SELECT R.* FROM R [Now] R, S [Now] S WHERE R.b = S.b`})
	if got := neededAttrs(hs, "R"); got != nil {
		t.Errorf("star projection attrs = %v, want nil (all)", got)
	}
	// The star over S must not affect R's list.
	hs = mustSubmitHandles(t, []string{`SELECT S.*, R.a FROM R [Now] R, S [Now] S WHERE R.b = S.b`})
	if got := neededAttrs(hs, "R"); len(got) != 2 {
		t.Errorf("attrs with foreign star = %v, want [a b]", got)
	}
}

func TestQualifyFilter(t *testing.T) {
	lit := stream.FloatVal(10)
	p := query.Predicate{
		Left:  query.Operand{Col: &query.ColRef{Alias: "S1", Attr: "snowHeight"}},
		Op:    query.Ge,
		Right: query.Operand{Lit: &lit},
	}
	q := qualifyFilter(p)
	if q.Left.Col.Attr != "S1.snowHeight" || q.Left.Col.Alias != "" {
		t.Errorf("qualified = %v", q)
	}
	// Must evaluate against flat result tuples.
	tp := stream.Tuple{Attrs: map[string]stream.Value{"S1.snowHeight": stream.FloatVal(12)}}
	if !query.EvalSelection(q.Normalize(), tp) {
		t.Error("qualified filter failed on matching result tuple")
	}
}

func TestAdaptRewiresMigratedQueries(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:4], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := procs[4]
	if err := m.RegisterStream(StreamDef{
		Name: "Station1", Schema: stationSchema(), Source: src, Substreams: 4, RatePerSubstream: 5,
	}); err != nil {
		t.Fatal(err)
	}
	var got int
	for i := 0; i < 6; i++ {
		_, err := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 1`,
			procs[i%4], func(Tuple) { got++ })
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Adapt(); err != nil {
		t.Fatalf("Adapt: %v", err)
	}
	// Delivery still works after rewiring.
	err = m.Publish(Tuple{
		Stream:    "Station1",
		Timestamp: 1,
		Attrs:     map[string]stream.Value{"snowHeight": stream.FloatVal(9)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Errorf("deliveries after Adapt = %d, want 6", got)
	}
}

func TestDisableResultSharingRunsQueriesSeparately(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:2], Config{K: 2, VMax: 10, Seed: 5, DisableResultSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	src := procs[4]
	if err := m.RegisterStream(StreamDef{
		Name: "Station1", Schema: stationSchema(), Source: src, Substreams: 2, RatePerSubstream: 5,
	}); err != nil {
		t.Fatal(err)
	}
	var a, b int
	if _, err := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 5`, procs[0],
		func(Tuple) { a++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 10`, procs[0],
		func(Tuple) { b++ }); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	// Total engine queries across processors equals submissions (no merge).
	total := 0
	for _, w := range m.wiring {
		total += len(w.eng.QueryNames())
	}
	if total != 2 {
		t.Errorf("engine queries = %d, want 2 (sharing disabled)", total)
	}
	err = m.Publish(Tuple{
		Stream:    "Station1",
		Timestamp: 1,
		Attrs:     map[string]stream.Value{"snowHeight": stream.FloatVal(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 0 {
		t.Errorf("deliveries = %d/%d, want 1/0", a, b)
	}
}

func TestSubmitValidation(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:2], Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterStream(StreamDef{
		Name: "R", Schema: stationSchema(), Source: procs[4], Substreams: 1, RatePerSubstream: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(`SELECT * FROM Nowhere [Now]`, procs[0], nil); err == nil {
		t.Error("unknown stream accepted")
	}
	if _, err := m.Submit(`SELECT * FROM R [Now] WHERE phantom > 1`, procs[0], nil); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := m.Submit(`SELECT phantom FROM R [Now]`, procs[0], nil); err == nil {
		t.Error("unknown select column accepted")
	}
	if _, err := m.Submit(`SELECT S.phantom FROM R [Now] S`, procs[0], nil); err == nil {
		t.Error("unknown aliased select column accepted")
	}
	if _, err := m.Submit(`SELECT S.timestamp, S.snowHeight FROM R [Now] S`, procs[0], nil); err != nil {
		t.Errorf("timestamp and schema columns rejected: %v", err)
	}
	if _, err := m.Submit(`SELECT * FROM R [Now]`, 99999, nil); err == nil {
		t.Error("non-processor proxy accepted")
	}
	if err := m.RegisterStream(StreamDef{Name: "R", Schema: stationSchema(), Source: procs[4]}); err == nil {
		t.Error("duplicate stream registration accepted")
	}
	if _, err := m.Adapt(); err == nil {
		t.Error("Adapt before Start accepted")
	}
	if err := m.Publish(Tuple{Stream: "R"}); err == nil {
		t.Error("Publish before Start accepted")
	}
}

// arrivals is a pubsub.PeerWrapper that records every data tuple crossing a
// link into one broker.
type arrivals struct {
	to  NodeID
	got []stream.Tuple
}

func (a *arrivals) WrapPeer(to topology.NodeID, p pubsub.Peer) pubsub.Peer {
	if to != a.to {
		return p
	}
	return arrivalPeer{Peer: p, a: a}
}

type arrivalPeer struct {
	pubsub.Peer
	a *arrivals
}

func (p arrivalPeer) RouteFrom(t stream.Tuple, from topology.NodeID) {
	p.a.got = append(p.a.got, t)
	p.Peer.RouteFrom(t, from)
}

// TestWidenedWindowSplitsInTheOverlay is §2.1's Q3+Q4 → Q5 on one processor,
// each user at a proxy of its own: the split delivers what the unmerged
// queries deliver, and no result crosses a link to Q3's proxy that Q3 does
// not receive — the superset result older than Q3's 30-minute window
// (Station1's reading at minute 0 joined at minute 45) stops in the overlay.
func TestWidenedWindowSplitsInTheOverlay(t *testing.T) {
	const minute = 60_000
	run := func(disableSharing bool) (got [2][]string, crossed, running int) {
		g, procs := testTopology(t)
		m, err := New(g, procs[:4], Config{K: 2, VMax: 10, Seed: 5, DisableResultSharing: disableSharing})
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"Station1", "Station2"} {
			if err := m.RegisterStream(StreamDef{Name: name, Schema: stationSchema(), Source: procs[4+i], Substreams: 4, RatePerSubstream: 10}); err != nil {
				t.Fatal(err)
			}
		}
		var hs [2]*QueryHandle
		for i, cql := range []string{
			`SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2
				WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10`,
			`SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp
				FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 WHERE S1.snowHeight > S2.snowHeight`,
		} {
			if hs[i], err = m.Submit(cql, procs[i], func(r Tuple) { got[i] = append(got[i], resultKey(r)) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		// At this load the optimizer never co-locates the two (ROADMAP P7),
		// so both move to procs[2] by hand, and are rewired as Adapt would.
		proc := procs[2]
		m.mu.Lock()
		hs[0].processor, hs[1].processor = proc, proc
		err = m.rewireWithUsers(m.procs...)
		m.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		into := &arrivals{to: hs[0].Proxy}
		m.net.SetPeerWrapper(into)
		for _, r := range []struct {
			stream string
			ts     int64
			snow   float64
		}{{"Station1", 0, 15}, {"Station1", 40 * minute, 8}, {"Station1", 42 * minute, 20}, {"Station2", 45 * minute, 12}} {
			if err := m.Publish(Tuple{Stream: r.stream, Timestamp: r.ts, Attrs: map[string]stream.Value{"snowHeight": stream.FloatVal(r.snow)}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, tp := range into.got {
			if tp.Stream == resultStreamName(proc) {
				crossed++
			}
		}
		sort.Strings(got[0])
		sort.Strings(got[1])
		return got, crossed, len(m.wiring[proc].eng.QueryNames())
	}
	shared, crossed, running := run(false)
	solo, _, soloRunning := run(true)
	if running != 1 || soloRunning != 2 {
		t.Fatalf("engine queries at the processor: %d shared, %d unshared; want 1 and 2", running, soloRunning)
	}
	if !reflect.DeepEqual(shared, solo) || len(solo[0]) != 1 || len(solo[1]) != 2 {
		t.Errorf("deliveries with sharing %v, without %v; want Q3 one result and Q4 two, equal", shared, solo)
	}
	if crossed != len(shared[0]) {
		t.Errorf("%d results crossed a link to Q3's proxy, which delivered %d", crossed, len(shared[0]))
	}
}

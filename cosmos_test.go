package cosmos

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/stream"
	"repro/internal/topology"
)

// testTopology builds a small WAN and returns (graph, processors).
func testTopology(t *testing.T) (*topology.Graph, []NodeID) {
	t.Helper()
	cfg := topology.Config{
		TransitDomains:      1,
		TransitNodes:        2,
		StubDomainsPerNode:  2,
		StubNodes:           4,
		InterTransitLatency: [2]float64{50, 100},
		IntraTransitLatency: [2]float64{10, 20},
		TransitStubLatency:  [2]float64{2, 5},
		IntraStubLatency:    [2]float64{1, 2},
		Seed:                3,
	}
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	procs, err := topology.SampleNodes(g, topology.Stub, 6, 3, nil)
	if err != nil {
		t.Fatalf("SampleNodes: %v", err)
	}
	return g, procs
}

func stationSchema() stream.Schema {
	return stream.Schema{Attrs: []stream.Attribute{
		{Name: "snowHeight", Type: stream.Float},
	}}
}

// TestTable1EndToEnd runs the paper's §2.1 scenario: Q3 and Q4 over
// Station1/Station2 are merged into a superset query at their shared
// processor, and the shared result stream is split back per user by
// residual subscriptions.
func TestTable1EndToEnd(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:4], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src1, src2 := procs[4], procs[5]
	for _, def := range []StreamDef{
		{Name: "Station1", Schema: stationSchema(), Source: src1, Substreams: 4, RatePerSubstream: 10},
		{Name: "Station2", Schema: stationSchema(), Source: src2, Substreams: 4, RatePerSubstream: 10},
	} {
		if err := m.RegisterStream(def); err != nil {
			t.Fatalf("RegisterStream(%s): %v", def.Name, err)
		}
	}

	var q3Results, q4Results []Tuple
	q3, err := m.Submit(`SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2
		WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10`,
		procs[0], func(t Tuple) { q3Results = append(q3Results, t) })
	if err != nil {
		t.Fatalf("Submit Q3: %v", err)
	}
	q4, err := m.Submit(`SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp
		FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2
		WHERE S1.snowHeight > S2.snowHeight`,
		procs[1], func(t Tuple) { q4Results = append(q4Results, t) })
	if err != nil {
		t.Fatalf("Submit Q4: %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}

	// Feed readings. Timestamps in ms; S1 readings land inside/outside
	// the 30-minute window; snow heights straddle the >= 10 filter.
	pub := func(streamName string, ts int64, snow float64) {
		err := m.Publish(Tuple{
			Stream:    streamName,
			Timestamp: ts,
			Attrs:     map[string]stream.Value{"snowHeight": stream.FloatVal(snow)},
			Size:      24,
		})
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	const minute = 60_000
	pub("Station1", 0*minute, 15)  // old S1 reading: outside 30m at t=45m, inside 1h
	pub("Station1", 40*minute, 8)  // S1 below Q3's >= 10 filter
	pub("Station1", 42*minute, 20) // S1 inside both windows, passes filter
	pub("Station2", 45*minute, 12) // S2 arrival triggers joins

	// Q4 (1-hour window, no filter): S2=12 joins S1 tuples with
	// snowHeight > 12: {15 @0m, 20 @42m} -> 2 results.
	if got := len(q4Results); got != 2 {
		t.Fatalf("Q4 delivered %d results, want 2 (results: %v)", got, q4Results)
	}
	// Q3 (30-minute window, S1.snowHeight >= 10): only {20 @42m} -> 1.
	if got := len(q3Results); got != 1 {
		t.Fatalf("Q3 delivered %d results, want 1 (results: %v)", got, q3Results)
	}

	// Q3's projection is S2.*: its result must carry S2 attributes only.
	res := q3Results[0]
	if _, ok := res.Attrs["S2.snowHeight"]; !ok {
		t.Errorf("Q3 result missing S2.snowHeight: %v", res.Attrs)
	}
	if _, ok := res.Attrs["S1.snowHeight"]; ok {
		t.Errorf("Q3 result leaked S1.snowHeight: %v", res.Attrs)
	}

	if q3.Delivered() != 1 || q4.Delivered() != 2 {
		t.Errorf("handle counters: q3=%d q4=%d, want 1/2", q3.Delivered(), q4.Delivered())
	}

	// Sharing: when Q3 and Q4 are co-located, the processor runs ONE
	// superset query (Q5 of Table 1).
	place := m.Placement()
	if place[q3.Name] == place[q4.Name] {
		eng := m.wiring[place[q3.Name]].eng
		if names := eng.QueryNames(); len(names) != 1 {
			t.Errorf("expected one merged query at shared processor, got %v", names)
		}
	}

	if tr := m.Traffic(); tr.DataBytes == 0 || tr.WeightedCost == 0 {
		t.Errorf("no traffic accounted: %+v", tr)
	}
}

// TestOnlineSubmitAfterStart inserts a query online and checks delivery.
func TestOnlineSubmitAfterStart(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:4], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src := procs[4]
	if err := m.RegisterStream(StreamDef{
		Name: "Station1", Schema: stationSchema(), Source: src, Substreams: 2, RatePerSubstream: 5,
	}); err != nil {
		t.Fatalf("RegisterStream: %v", err)
	}
	// A first query so Start has a distribution.
	if _, err := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 100`, procs[0], nil); err != nil {
		t.Fatalf("Submit warmup: %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}

	var got []Tuple
	h, err := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 5`,
		procs[1], func(t Tuple) { got = append(got, t) })
	if err != nil {
		t.Fatalf("Submit online: %v", err)
	}
	if h.Processor() < 0 {
		t.Fatal("online query not placed")
	}
	err = m.Publish(Tuple{
		Stream:    "Station1",
		Timestamp: 1000,
		Attrs:     map[string]stream.Value{"snowHeight": stream.FloatVal(9)},
	})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("online query delivered %d results, want 1", len(got))
	}
}

// TestRegisterStreamAfterStart registers a stream on a running middleware:
// its source broker joins the live overlay, the advertisement floods, and a
// query submitted afterwards delivers end to end.
func TestRegisterStreamAfterStart(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:3], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.RegisterStream(StreamDef{
		Name: "Station1", Schema: stationSchema(), Source: procs[4], Substreams: 2, RatePerSubstream: 5,
	}); err != nil {
		t.Fatalf("RegisterStream: %v", err)
	}
	if _, err := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 100`, procs[0], nil); err != nil {
		t.Fatalf("Submit warmup: %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}

	// procs[5] was not part of the overlay at Start: the broker joins
	// dynamically.
	if err := m.RegisterStream(StreamDef{
		Name: "Station2", Schema: stationSchema(), Source: procs[5], Substreams: 1, RatePerSubstream: 3,
	}); err != nil {
		t.Fatalf("RegisterStream after Start: %v", err)
	}
	var got []Tuple
	if _, err := m.Submit(`SELECT * FROM Station2 [Now] WHERE snowHeight > 5`,
		procs[1], func(t Tuple) { got = append(got, t) }); err != nil {
		t.Fatalf("Submit on late stream: %v", err)
	}
	for _, snow := range []float64{9, 2} { // second reading filtered out
		err := m.Publish(Tuple{
			Stream:    "Station2",
			Timestamp: 1000,
			Attrs:     map[string]stream.Value{"snowHeight": stream.FloatVal(snow)},
		})
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	if len(got) != 1 {
		t.Fatalf("late-stream query delivered %d results, want 1", len(got))
	}
}

// TestCancelQuery: cancelling a handle stops deliveries, retracts the
// query's routing state across the overlay, leaves co-located queries
// intact, and is idempotent.
func TestCancelQuery(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:3], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.RegisterStream(StreamDef{
		Name: "Station1", Schema: stationSchema(), Source: procs[4], Substreams: 2, RatePerSubstream: 5,
	}); err != nil {
		t.Fatalf("RegisterStream: %v", err)
	}
	var gotA, gotB []Tuple
	ha, err := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 5`,
		procs[0], func(t Tuple) { gotA = append(gotA, t) })
	if err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	hb, err := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 7`,
		procs[1], func(t Tuple) { gotB = append(gotB, t) })
	if err != nil {
		t.Fatalf("Submit B: %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	pub := func(snow float64) {
		t.Helper()
		err := m.Publish(Tuple{
			Stream:    "Station1",
			Timestamp: 1000,
			Attrs:     map[string]stream.Value{"snowHeight": stream.FloatVal(snow)},
		})
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	pub(9)
	if len(gotA) != 1 || len(gotB) != 1 {
		t.Fatalf("pre-cancel deliveries A=%d B=%d, want 1/1", len(gotA), len(gotB))
	}

	if err := ha.Cancel(); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if !ha.Cancelled() || hb.Cancelled() {
		t.Fatalf("cancelled flags: A=%v B=%v, want true/false", ha.Cancelled(), hb.Cancelled())
	}
	if err := ha.Cancel(); err != nil {
		t.Fatalf("second Cancel must be an idempotent no-op, got %v", err)
	}
	pub(9)
	if len(gotA) != 1 {
		t.Errorf("cancelled query still delivered: %d results", len(gotA))
	}
	if len(gotB) != 2 {
		t.Errorf("surviving query deliveries = %d, want 2", len(gotB))
	}
	if _, ok := m.Placement()[ha.Name]; ok {
		t.Error("cancelled query still placed")
	}

	// Cancelling the last query drains every broker's routing state:
	// no input subscriptions, no user-side result subscriptions, no
	// remote records anywhere.
	if err := hb.Cancel(); err != nil {
		t.Fatalf("Cancel B: %v", err)
	}
	for _, n := range m.net.Nodes() {
		b, _ := m.net.Broker(n)
		if remote, local := b.RoutingStateSize(); remote != 0 || local != 0 {
			t.Errorf("broker %d retains routing state after last cancel: remote=%d local=%d", n, remote, local)
		}
	}
	pub(9)
	if len(gotB) != 2 {
		t.Errorf("deliveries after full cancel = %d, want 2", len(gotB))
	}
}

// TestCancelColocatedMergedQuery: on a single processor the two queries
// share one superset query (§2.1). Cancelling one regroups the survivor
// under a NEW superset (different result tag and residual), so Cancel must
// rebuild the survivor's user-side subscription — a survivor left filtering
// on the old tag would starve.
func TestCancelColocatedMergedQuery(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:1], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.RegisterStream(StreamDef{
		Name: "Station1", Schema: stationSchema(), Source: procs[4], Substreams: 2, RatePerSubstream: 5,
	}); err != nil {
		t.Fatalf("RegisterStream: %v", err)
	}
	var gotA, gotB []Tuple
	ha, err := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 5`,
		procs[0], func(t Tuple) { gotA = append(gotA, t) })
	if err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	_, err = m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 7`,
		procs[0], func(t Tuple) { gotB = append(gotB, t) })
	if err != nil {
		t.Fatalf("Submit B: %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	pub := func(snow float64) {
		t.Helper()
		err := m.Publish(Tuple{
			Stream:    "Station1",
			Timestamp: 1000,
			Attrs:     map[string]stream.Value{"snowHeight": stream.FloatVal(snow)},
		})
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	pub(9)
	if len(gotA) != 1 || len(gotB) != 1 {
		t.Fatalf("pre-cancel deliveries A=%d B=%d, want 1/1", len(gotA), len(gotB))
	}
	if err := ha.Cancel(); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	pub(9)
	if len(gotB) != 2 {
		t.Fatalf("surviving merged query deliveries = %d, want 2 (user-side subscription must be rebuilt)", len(gotB))
	}
	if len(gotA) != 1 {
		t.Errorf("cancelled query still delivered: %d results", len(gotA))
	}
}

// TestUnregisterStream: withdrawing a stream stops publishes, prunes the
// advert and subscription state it justified across the overlay, and a
// revival re-registration (same name, original schema) resumes deliveries
// end to end via advert-triggered re-propagation.
func TestUnregisterStream(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:3], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.RegisterStream(StreamDef{
		Name: "Station1", Schema: stationSchema(), Source: procs[4], Substreams: 2, RatePerSubstream: 5,
	}); err != nil {
		t.Fatalf("RegisterStream: %v", err)
	}
	var got []Tuple
	if _, err := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 5`,
		procs[0], func(t Tuple) { got = append(got, t) }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	pub := func(snow float64) error {
		return m.Publish(Tuple{
			Stream:    "Station1",
			Timestamp: 1000,
			Attrs:     map[string]stream.Value{"snowHeight": stream.FloatVal(snow)},
		})
	}
	if err := pub(9); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("pre-unregister deliveries = %d, want 1", len(got))
	}

	if err := m.UnregisterStream("Station1"); err != nil {
		t.Fatalf("UnregisterStream: %v", err)
	}
	if err := pub(9); err == nil {
		t.Fatal("Publish on unregistered stream succeeded")
	}
	if err := m.UnregisterStream("Station1"); err == nil {
		t.Fatal("second UnregisterStream succeeded")
	}
	if err := m.UnregisterStream("never-registered"); err == nil {
		t.Fatal("UnregisterStream of unknown stream succeeded")
	}
	// The source broker's advert and every record the input subscription
	// installed along the path toward it are gone; the processor's local
	// input subscription survives (it is torn down by query cancel).
	srcBroker, ok := m.net.Broker(procs[4])
	if !ok {
		t.Fatal("no source broker")
	}
	if own, _ := srcBroker.AdvertStateSize(); own != 0 {
		t.Fatalf("source still advertises %d streams after unregister", own)
	}
	if remote, _ := srcBroker.RoutingStateSize(); remote != 0 {
		t.Fatalf("source still records %d input subscriptions after unregister", remote)
	}

	// A revival that tries to change the frozen shape is rejected.
	if err := m.RegisterStream(StreamDef{Name: "Station1", Source: procs[4], Substreams: 5}); err == nil {
		t.Fatal("revival with a different substream count succeeded")
	}
	if err := m.RegisterStream(StreamDef{
		Name: "Station1", Source: procs[4],
		Schema: stream.Schema{Attrs: []stream.Attribute{{Name: "other", Type: stream.Float}}},
	}); err == nil {
		t.Fatal("revival with a different schema succeeded")
	}

	// Revival: same name, original schema and substream slots; deliveries
	// resume without resubmitting the query.
	if err := m.RegisterStream(StreamDef{Name: "Station1", Source: procs[4]}); err != nil {
		t.Fatalf("revival RegisterStream: %v", err)
	}
	if err := pub(9); err != nil {
		t.Fatalf("Publish after revival: %v", err)
	}
	if err := pub(2); err != nil { // filtered at source
		t.Fatalf("Publish after revival: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("post-revival deliveries = %d, want 2 (subscriptions must replay toward the revived source)", len(got))
	}
	// Re-registering a LIVE stream stays an error.
	if err := m.RegisterStream(StreamDef{Name: "Station1", Source: procs[4]}); err == nil {
		t.Fatal("re-registering a live stream succeeded")
	}
}

// TestCancelRemovesCoordinatorState: cancelling queries removes their
// vertices, assignment entries and load contributions from every level of
// the coordinator tree — cancelling everything drains it to exactly zero.
func TestCancelRemovesCoordinatorState(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:4], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.RegisterStream(StreamDef{
		Name: "Station1", Schema: stationSchema(), Source: procs[4], Substreams: 2, RatePerSubstream: 5,
	}); err != nil {
		t.Fatalf("RegisterStream: %v", err)
	}
	var handles []*QueryHandle
	for i := 0; i < 6; i++ {
		h, err := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 5`, procs[i%4], nil)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		handles = append(handles, h)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// One online submission on top of the batch.
	h, err := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 8`, procs[1], nil)
	if err != nil {
		t.Fatalf("Submit online: %v", err)
	}
	handles = append(handles, h)

	if q, v, _ := m.tree.Residual(); q != len(handles) || v == 0 {
		t.Fatalf("pre-cancel residual: queries=%d vertices=%d, want %d queries", q, v, len(handles))
	}
	if err := handles[2].Cancel(); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if _, placed := m.tree.Placement()[handles[2].Name]; placed {
		t.Fatal("cancelled query still placed in the coordinator tree")
	}
	if q, _, _ := m.tree.Residual(); q != len(handles)-1 {
		t.Fatalf("residual queries after one cancel = %d, want %d", q, len(handles)-1)
	}

	for _, h := range handles {
		if err := h.Cancel(); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
	}
	q, v, load := m.tree.Residual()
	if q != 0 || v != 0 || load != 0 {
		t.Fatalf("coordinator tree residual after cancelling everything: queries=%d vertices=%d load=%v, want 0/0/0",
			q, v, load)
	}
}

// TestRevivalRejectsAvgTupleBytesChange: the per-tuple accounting size is
// frozen with the substream slots; a revival supplying a different value is
// an error, not a silent reset.
func TestRevivalRejectsAvgTupleBytesChange(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:3], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.RegisterStream(StreamDef{
		Name: "Station1", Schema: stationSchema(), Source: procs[4], AvgTupleBytes: 64,
	}); err != nil {
		t.Fatalf("RegisterStream: %v", err)
	}
	if _, err := m.Submit(`SELECT * FROM Station1 [Now]`, procs[0], nil); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := m.UnregisterStream("Station1"); err != nil {
		t.Fatalf("UnregisterStream: %v", err)
	}
	if err := m.RegisterStream(StreamDef{Name: "Station1", Source: procs[4], AvgTupleBytes: 200}); err == nil {
		t.Fatal("revival with a different AvgTupleBytes succeeded")
	}
	if err := m.RegisterStream(StreamDef{Name: "Station1", Source: procs[4], AvgTupleBytes: 64}); err != nil {
		t.Fatalf("revival with the original AvgTupleBytes failed: %v", err)
	}
}

// TestRegisterStreamSlots: RegisterStream rejects an empty name and a live
// duplicate, and gives each new stream the next contiguous run of substream
// slots (one for an unset count), which a query on the stream takes as its
// interest.
func TestRegisterStreamSlots(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:3], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.RegisterStream(StreamDef{Schema: stationSchema(), Source: procs[4]}); err == nil {
		t.Fatal("empty stream name accepted")
	}
	for _, def := range []StreamDef{
		{Name: "A", Schema: stationSchema(), Source: procs[4], Substreams: 3},
		{Name: "B", Schema: stationSchema(), Source: procs[5], Substreams: 2},
		{Name: "C", Schema: stationSchema(), Source: procs[4]},
	} {
		if err := m.RegisterStream(def); err != nil {
			t.Fatalf("RegisterStream(%s): %v", def.Name, err)
		}
	}
	if err := m.RegisterStream(StreamDef{Name: "A", Source: procs[4]}); err == nil {
		t.Fatal("live duplicate accepted")
	}
	for name, want := range map[string][]int{"A": {0, 1, 2}, "B": {3, 4}, "C": {5}} {
		h, err := m.Submit(`SELECT * FROM `+name+` [Now]`, procs[0], nil)
		if err != nil {
			t.Fatalf("Submit on %s: %v", name, err)
		}
		if got := h.info.Interest.Indices(); !slices.Equal(got, want) {
			t.Errorf("stream %s: interest slots %v, want %v", name, got, want)
		}
	}
}

// TestProcessorBesideStartAndAdapt reads a handle's processor on another
// goroutine while Start places it and Adapt rounds may move it: under -race,
// the reader and the writers must be ordered by the same lock.
func TestProcessorBesideStartAndAdapt(t *testing.T) {
	g, procs := testTopology(t)
	m, err := New(g, procs[:4], Config{K: 2, VMax: 10, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.RegisterStream(StreamDef{
		Name: "Station1", Schema: stationSchema(), Source: procs[4], Substreams: 4, RatePerSubstream: 10,
	}); err != nil {
		t.Fatalf("RegisterStream: %v", err)
	}
	var hs []*QueryHandle
	for i := range 8 {
		h, err := m.Submit(fmt.Sprintf(`SELECT * FROM Station1 [Now] WHERE snowHeight > %d`, i), procs[i%4], nil)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		hs = append(hs, h)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				for _, h := range hs {
					_ = h.Processor()
				}
			}
		}
	}()
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for range 3 {
		if _, err := m.Adapt(); err != nil {
			t.Fatalf("Adapt: %v", err)
		}
	}
	close(stop)
	<-done
	for _, h := range hs {
		if p := h.Processor(); !m.isProcessor(p) {
			t.Errorf("%s placed at %d, not a processor", h.Name, p)
		}
	}
}

package pubsub

import (
	"fmt"
	"testing"

	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// lineNet builds a 4-broker overlay over a path topology 0-1-2-3.
func lineNet(t *testing.T) *Network {
	t.Helper()
	g := topology.NewGraph(4)
	for i := 0; i < 3; i++ {
		if err := g.AddEdge(topology.NodeID(i), topology.NodeID(i+1), float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	net, err := NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func filter(attr string, op query.Op, v float64) query.Predicate {
	lit := stream.FloatVal(v)
	return query.Predicate{
		Left:  query.Operand{Col: &query.ColRef{Attr: attr}},
		Op:    op,
		Right: query.Operand{Lit: &lit},
	}
}

func tuple(streamName string, attrs map[string]float64) stream.Tuple {
	t := stream.Tuple{Stream: streamName, Attrs: make(map[string]stream.Value, len(attrs)), Size: 24}
	for k, v := range attrs {
		t.Attrs[k] = stream.FloatVal(v)
	}
	return t
}

func TestDeliveryWithFilter(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(3)
	src.Advertise("R")

	var got []stream.Tuple
	sub := &Subscription{
		ID:      "s1",
		Streams: []string{"R"},
		Filters: []query.Predicate{filter("a", query.Gt, 10)},
	}
	if err := dst.Subscribe(sub, func(_ *Subscription, t stream.Tuple) {
		got = append(got, t)
	}); err != nil {
		t.Fatal(err)
	}

	src.Publish(tuple("R", map[string]float64{"a": 15}))
	src.Publish(tuple("R", map[string]float64{"a": 5}))  // filtered at source
	src.Publish(tuple("S", map[string]float64{"a": 99})) // wrong stream

	if len(got) != 1 || got[0].Attrs["a"].F != 15 {
		t.Fatalf("delivered %v, want one tuple with a=15", got)
	}
	// The a=5 tuple must not have crossed ANY link (early filtering).
	rep := net.Traffic()
	if rep.DataBytes != 24*3 { // one tuple over three links
		t.Errorf("data bytes = %v, want 72 (one tuple, three hops)", rep.DataBytes)
	}
}

func TestEarlyProjection(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(3)
	src.Advertise("R")

	var got stream.Tuple
	sub := &Subscription{ID: "s", Streams: []string{"R"}, Attrs: []string{"a"}}
	if err := dst.Subscribe(sub, func(_ *Subscription, t stream.Tuple) { got = t }); err != nil {
		t.Fatal(err)
	}
	src.Publish(tuple("R", map[string]float64{"a": 1, "b": 2, "c": 3}))
	if len(got.Attrs) != 1 {
		t.Fatalf("projected tuple has attrs %v, want only a", got.Attrs)
	}
	// Forwarded size reflects the projection: 16 + 8*1 = 24 per hop.
	if rep := net.Traffic(); rep.DataBytes != 24*3 {
		t.Errorf("data bytes = %v, want 72", rep.DataBytes)
	}
}

func TestDuplicateEliminationAcrossSubscribers(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b2, _ := net.Broker(2)
	b3, _ := net.Broker(3)
	src.Advertise("R")

	count2, count3 := 0, 0
	sub := func(id string) *Subscription {
		return &Subscription{ID: id, Streams: []string{"R"}}
	}
	if err := b2.Subscribe(sub("a"), func(*Subscription, stream.Tuple) { count2++ }); err != nil {
		t.Fatal(err)
	}
	if err := b3.Subscribe(sub("b"), func(*Subscription, stream.Tuple) { count3++ }); err != nil {
		t.Fatal(err)
	}
	src.Publish(tuple("R", map[string]float64{"a": 1}))
	if count2 != 1 || count3 != 1 {
		t.Fatalf("deliveries = %d/%d", count2, count3)
	}
	// Links 0-1 and 1-2 carry the tuple once; 2-3 once more: 3 link
	// crossings total despite two subscribers (one copy per link).
	if rep := net.Traffic(); rep.DataBytes != 24*3 {
		t.Errorf("data bytes = %v, want 72 (duplicate elimination)", rep.DataBytes)
	}
}

func TestLocalSubscriberAtSource(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	src.Advertise("R")
	hits := 0
	if err := src.Subscribe(&Subscription{ID: "l", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}
	src.Publish(tuple("R", map[string]float64{"a": 1}))
	if hits != 1 {
		t.Errorf("local delivery = %d", hits)
	}
	if rep := net.Traffic(); rep.DataBytes != 0 {
		t.Errorf("local-only delivery used the network: %v", rep.DataBytes)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(1)
	src.Advertise("R")
	hits := 0
	if err := dst.Subscribe(&Subscription{ID: "u", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}
	src.Publish(tuple("R", nil))
	dst.Unsubscribe("u")
	src.Publish(tuple("R", nil))
	if hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
}

// TestLocalDeliveryOrderAndPhase: matched local handlers fire in
// subscription-registration order, and before forwarding. (They used to run
// as deferred calls: LIFO and only after every forward.)
func TestLocalDeliveryOrderAndPhase(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(1)
	src.Advertise("R")

	var events []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("local%d", i)
		sub := &Subscription{ID: name, Streams: []string{"R"}}
		if err := src.Subscribe(sub, func(*Subscription, stream.Tuple) {
			events = append(events, name)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Subscribe(&Subscription{ID: "remote", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { events = append(events, "remote") }); err != nil {
		t.Fatal(err)
	}

	src.Publish(tuple("R", map[string]float64{"a": 1}))
	want := []string{"local0", "local1", "local2", "remote"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

// TestLocalDeliveryCopiesAttrs: a handler receiving the full tuple (nil
// projection) gets its own attribute map, so mutating it cannot corrupt the
// copies forwarded to neighbors or delivered to later handlers.
func TestLocalDeliveryCopiesAttrs(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(1)
	src.Advertise("R")

	if err := src.Subscribe(&Subscription{ID: "mut", Streams: []string{"R"}},
		func(_ *Subscription, tp stream.Tuple) { delete(tp.Attrs, "a") }); err != nil {
		t.Fatal(err)
	}
	var got stream.Tuple
	if err := dst.Subscribe(&Subscription{ID: "obs", Streams: []string{"R"}},
		func(_ *Subscription, tp stream.Tuple) { got = tp }); err != nil {
		t.Fatal(err)
	}
	src.Publish(tuple("R", map[string]float64{"a": 7}))
	if v, ok := got.Attrs["a"]; !ok || v.F != 7 {
		t.Fatalf("forwarded tuple lost attribute mutated by a local handler: %v", got.Attrs)
	}
}

// TestAdvertSendSideAccounting: advert flood traffic is charged by the
// sender for every link the advert crosses — including re-advertisements
// the receiver duplicate-suppresses, which used to go uncounted.
func TestAdvertSendSideAccounting(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	src.Advertise("R")
	// First flood crosses each of the 3 overlay links once.
	if rep := net.Traffic(); rep.ControlBytes != 3*advertSize {
		t.Fatalf("control bytes after flood = %v, want %v", rep.ControlBytes, 3*advertSize)
	}
	// Re-advertising crosses 0-1 once more before broker 1 suppresses it.
	src.Advertise("R")
	if rep := net.Traffic(); rep.ControlBytes != 4*advertSize {
		t.Fatalf("control bytes after duplicate advert = %v, want %v", rep.ControlBytes, 4*advertSize)
	}
}

// TestLocalCoverSuppressesPropagation: a second local subscription covered
// by an earlier local one must not flood the overlay — the covering
// subscription already pulls a superset of its traffic — while local
// delivery of both keeps working. (Locally-originated subscriptions used to
// be invisible to the suppression check.)
func TestLocalCoverSuppressesPropagation(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b3, _ := net.Broker(3)
	src.Advertise("R")

	wideHits, narrowHits := 0, 0
	wide := &Subscription{ID: "wide", Streams: []string{"R"}}
	if err := b3.Subscribe(wide, func(*Subscription, stream.Tuple) { wideHits++ }); err != nil {
		t.Fatal(err)
	}
	before := net.Traffic().ControlBytes
	narrow := &Subscription{ID: "narrow", Streams: []string{"R"},
		Filters: []query.Predicate{filter("a", query.Gt, 10)}}
	if err := b3.Subscribe(narrow, func(*Subscription, stream.Tuple) { narrowHits++ }); err != nil {
		t.Fatal(err)
	}
	if after := net.Traffic().ControlBytes; after != before {
		t.Fatalf("covered local subscription still flooded: control %v -> %v", before, after)
	}

	src.Publish(tuple("R", map[string]float64{"a": 15}))
	src.Publish(tuple("R", map[string]float64{"a": 5}))
	if wideHits != 2 || narrowHits != 1 {
		t.Fatalf("deliveries wide=%d narrow=%d, want 2/1", wideHits, narrowHits)
	}
}

// TestAdvertTriggeredRepropagation: a local subscription registered before
// any matching advert exists is replayed toward the advertiser when the
// advert flood arrives (the re-propagation epoch), multi-hop — so
// subscribe-before-advertise orderings route correctly — and from then on
// it suppresses covered subscriptions exactly as an eagerly propagated one
// would. (Before the lifecycle subsystem, such a subscription was never
// propagated at all and deliveries silently failed.)
func TestAdvertTriggeredRepropagation(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b3, _ := net.Broker(3)

	// Subscribe before any advert exists: wide has nowhere to go yet.
	wideHits, narrowHits := 0, 0
	wide := &Subscription{ID: "wide", Streams: []string{"R"}}
	if err := b3.Subscribe(wide, func(*Subscription, stream.Tuple) { wideHits++ }); err != nil {
		t.Fatal(err)
	}
	if rep := net.Traffic(); rep.ControlBytes != 0 {
		t.Fatalf("subscription with no advertised stream generated traffic: %v", rep.ControlBytes)
	}

	// The advert flood triggers the replay: wide crosses each link once,
	// right behind the advert, and is recorded along the whole path.
	src.Advertise("R")
	wantControl := float64(3*advertSize + 3*subSize(wide))
	if rep := net.Traffic(); rep.ControlBytes != wantControl {
		t.Fatalf("control bytes after advert = %v, want %v (advert + replayed subscription per link)",
			rep.ControlBytes, wantControl)
	}
	if remote, _ := src.RoutingStateSize(); remote != 1 {
		t.Fatalf("publisher records %d subscriptions, want 1 (replayed wide)", remote)
	}

	// A later covered subscription is suppressed — wide has genuinely
	// been propagated now, so the suppression is sound.
	before := net.Traffic().ControlBytes
	narrow := &Subscription{ID: "narrow", Streams: []string{"R"},
		Filters: []query.Predicate{filter("a", query.Gt, 10)}}
	if err := b3.Subscribe(narrow, func(*Subscription, stream.Tuple) { narrowHits++ }); err != nil {
		t.Fatal(err)
	}
	if after := net.Traffic().ControlBytes; after != before {
		t.Fatalf("covered subscription flooded after replay: control %v -> %v", before, after)
	}

	src.Publish(tuple("R", map[string]float64{"a": 15}))
	src.Publish(tuple("R", map[string]float64{"a": 5}))
	if wideHits != 2 || narrowHits != 1 {
		t.Fatalf("deliveries wide=%d narrow=%d, want 2/1", wideHits, narrowHits)
	}
}

// TestRepropagationCoversWithinReplay: when several pending subscriptions
// replay in one epoch, covering applies inside the batch — the covering one
// (earlier registration) is sent, the covered one suppressed.
func TestRepropagationCoversWithinReplay(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b3, _ := net.Broker(3)

	wide := &Subscription{ID: "wide", Streams: []string{"R"}}
	narrow := &Subscription{ID: "narrow", Streams: []string{"R"},
		Filters: []query.Predicate{filter("a", query.Gt, 10)}}
	hits := map[string]int{}
	for _, s := range []*Subscription{wide, narrow} {
		if err := b3.Subscribe(s, func(s *Subscription, _ stream.Tuple) { hits[s.ID]++ }); err != nil {
			t.Fatal(err)
		}
	}
	src.Advertise("R")
	// Only wide replays: one advert and one subscription per link.
	wantControl := float64(3*advertSize + 3*subSize(wide))
	if rep := net.Traffic(); rep.ControlBytes != wantControl {
		t.Fatalf("control bytes = %v, want %v (covered subscription must not replay)",
			rep.ControlBytes, wantControl)
	}
	src.Publish(tuple("R", map[string]float64{"a": 15}))
	if hits["wide"] != 1 || hits["narrow"] != 1 {
		t.Fatalf("deliveries = %v, want wide=1 narrow=1", hits)
	}
}

// TestPropagateFromRejectsEmptySubscription: wire transports can deliver
// arbitrary subscriptions; a streamless one must be dropped, not crash the
// broker.
func TestPropagateFromRejectsEmptySubscription(t *testing.T) {
	net := lineNet(t)
	b1, _ := net.Broker(1)
	b1.PropagateFrom(&Subscription{ID: "bad"}, 0)
	b1.PropagateFrom(nil, 0)
	if rep := net.Traffic(); rep.ControlBytes != 0 {
		t.Fatalf("empty subscription generated traffic: %v", rep.ControlBytes)
	}
}

// TestMalformedFilterTolerated: a filter whose non-column operand carries no
// literal (IsSelection is still true for it) must not crash compilation —
// it evaluates false, exactly as Subscription.Matches' evalFilter treats it.
func TestMalformedFilterTolerated(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	src.Advertise("R")
	hits := 0
	bad := &Subscription{ID: "bad", Streams: []string{"R"},
		Filters: []query.Predicate{{
			Left: query.Operand{Col: &query.ColRef{Attr: "a"}},
			Op:   query.Gt, // Right operand empty: no Col, no Lit
		}}}
	if err := src.Subscribe(bad, func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}
	b1, _ := net.Broker(1)
	b1.PropagateFrom(bad, 2) // wire-delivered copy must not crash either
	src.Publish(tuple("R", map[string]float64{"a": 5}))
	if hits != 0 {
		t.Fatalf("malformed filter matched %d tuples, want 0", hits)
	}
}

func TestCoversRelation(t *testing.T) {
	wide := &Subscription{ID: "w", Streams: []string{"R", "S"}}
	narrow := &Subscription{
		ID:      "n",
		Streams: []string{"R"},
		Attrs:   []string{"a"},
		Filters: []query.Predicate{filter("a", query.Gt, 10)},
	}
	if !refCovers(wide, narrow) {
		t.Error("unfiltered multi-stream subscription should cover the narrow one")
	}
	if refCovers(narrow, wide) {
		t.Error("narrow subscription cannot cover the wide one")
	}
	// Filter weakening: a > 5 covers a > 10 but not vice versa.
	weak := &Subscription{ID: "k", Streams: []string{"R"}, Filters: []query.Predicate{filter("a", query.Gt, 5)}}
	strong := &Subscription{ID: "s", Streams: []string{"R"}, Filters: []query.Predicate{filter("a", query.Gt, 10)}}
	if !refCovers(weak, strong) {
		t.Error("a>5 should cover a>10")
	}
	if refCovers(strong, weak) {
		t.Error("a>10 should not cover a>5")
	}
}

func TestMergeSubscriptions(t *testing.T) {
	a := &Subscription{ID: "a", Streams: []string{"R"}, Attrs: []string{"x"},
		Filters: []query.Predicate{filter("x", query.Gt, 10)}}
	b := &Subscription{ID: "b", Streams: []string{"S"}, Attrs: []string{"y"},
		Filters: []query.Predicate{filter("x", query.Gt, 20)}}
	m := MergeSubscriptions("m", a, b)
	if len(m.Streams) != 2 {
		t.Errorf("merged streams = %v", m.Streams)
	}
	if len(m.Attrs) != 2 {
		t.Errorf("merged attrs = %v", m.Attrs)
	}
	if !refCovers(m, a) || !refCovers(m, b) {
		t.Errorf("merged subscription %v does not cover inputs", m)
	}
}

func TestMSTConnectsAllBrokers(t *testing.T) {
	net := lineNet(t)
	links := 0
	for _, n := range net.Nodes() {
		b, _ := net.Broker(n)
		links += len(b.Neighbors())
	}
	if links/2 != 3 {
		t.Errorf("overlay has %d links, want 3 (spanning tree of 4)", links/2)
	}
}

func TestNetworkValidation(t *testing.T) {
	g := topology.NewGraph(2)
	_ = g.AddEdge(0, 1, 1)
	o := topology.NewOracle(g)
	if _, err := NewNetwork(o, nil); err == nil {
		t.Error("empty broker set accepted")
	}
	if _, err := NewNetwork(o, []topology.NodeID{0, 0}); err == nil {
		t.Error("duplicate broker accepted")
	}
}

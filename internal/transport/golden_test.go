package transport

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/stream"
)

// goldenEnvelopes is one fixture per wire kind (including MsgBatch). The
// data tuple carries TWO attributes on purpose: WireTuple sorts them by
// name, so multi-attribute envelopes are byte-stable (a map-typed Attrs
// field would gob-encode in random iteration order).
func goldenEnvelopes() []struct {
	name string
	env  Envelope
} {
	lit := stream.FloatVal(10)
	sub := &WireSubscription{
		ID:      "q1",
		Seq:     7,
		Streams: []string{"R"},
		Attrs:   []string{"a"},
		Filters: []WirePredicate{{LeftCol: "a", Op: query.Ge, RightLit: &lit}},
	}
	tuple := toWireTuple(stream.Tuple{
		Stream:    "R",
		Timestamp: 42,
		Attrs: map[string]stream.Value{
			"b": stream.StringVal("x"),
			"a": stream.FloatVal(11),
		},
		Size: 24,
	})
	return []struct {
		name string
		env  Envelope
	}{
		{"advert", Envelope{Kind: MsgAdvert, From: 1, StreamName: "R", Origin: 2, Seq: 3}},
		{"unadvertise", Envelope{Kind: MsgUnadvertise, From: 1, StreamName: "R", Origin: 2, Seq: 4}},
		{"subscribe", Envelope{Kind: MsgSubscribe, From: 1, Sub: sub}},
		{"unsubscribe", Envelope{Kind: MsgUnsubscribe, From: 1, SubID: "q1", Seq: 8}},
		{"data", Envelope{Kind: MsgData, From: 1, Tuple: tuple}},
		{"batch", Envelope{Kind: MsgBatch, From: 1, Batch: []Envelope{
			{Kind: MsgAdvert, From: 1, StreamName: "R", Origin: 2, Seq: 3},
			{Kind: MsgData, From: 1, Tuple: tuple},
		}}},
	}
}

// goldenPreamble is the gob type-definition stream a fresh encoder emits
// before the first Envelope value: the wire names and field layout of
// Envelope, WireSubscription, WirePredicate and stream.Value, plus the
// GobEncoder registration of WireTuple (its body is the hand-written flat
// encoding in transport.go, opaque to gob's reflection). Renaming or
// reordering ANY of those fields — or changing the WireTuple body layout —
// changes these bytes: a wire-format break.
const goldenPreamble = "727f03010108456e76656c6f706501ff8000010901044b696e64010400010446726f6d010400010a53747265616d4e616d65010c0001064f726967696e010400010353756201ff820001055375624944010c00010353657101060001055475706c6501ff8c000105426174636801ff8e00000052ff810301011057697265537562736372697074696f6e01ff8200010501024944010c000103536571010600010753747265616d7301ff84000105417474727301ff8400010746696c7465727301ff8a00000016ff83020101085b5d737472696e6701ff8400010c000028ff89020101195b5d7472616e73706f72742e5769726550726564696361746501ff8a0001ff86000071ff850301010d5769726550726564696361746501ff8600010701074c656674436f6c010c0001074c6566744c697401ff880001024f7001040001085269676874436f6c010c00010852696768744c697401ff880001094c656674416c696173010c0001085269676874416c73010c00000028ff870301010556616c756501ff88000103010454797065010400010146010800010153010c0000000aff8b050102ff900000000dff93020102ff940001ff92000028ff9103010108576972654174747201ff9200010201044e616d65010c00010356616c01ff8800000023ff8d020101145b5d7472616e73706f72742e456e76656c6f706501ff8e0001ff800000"

// goldenEnvelopeHex pins the exact gob bytes of every envelope kind — each
// encoded by a FRESH encoder, so the preamble above is part of the pin. Any
// drift here is a wire-format break: old and new nodes in one overlay would
// stop understanding each other. Deliberate format changes must bump the
// fixture AND note the incompatibility; run with COSMOS_UPDATE_GOLDEN=1 to
// print the new bytes.
var goldenEnvelopeHex = map[string]string{
	"advert":      goldenPreamble + "0eff80010201020101520104030300",
	"unadvertise": goldenPreamble + "0eff80010a01020101520104030400",
	"subscribe":   goldenPreamble + "27ff80010401020301027131010701010152010101610101010161020c02010201fe244000000000",
	"unsubscribe": goldenPreamble + "0dff800108010204027131010800",
	"data":        goldenPreamble + "28ff8001060102061f0101525430020161014026000000000000000162030000000000000000017800",
	"batch":       goldenPreamble + "3bff80010c0102070201020102010152010403030001060102061f010152543002016101402600000000000000016203000000000000000001780000",
}

func TestGoldenEnvelopeBytes(t *testing.T) {
	for _, g := range goldenEnvelopes() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(g.env); err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		got := hex.EncodeToString(buf.Bytes())
		if os.Getenv("COSMOS_UPDATE_GOLDEN") != "" {
			fmt.Printf("\t%q: %q,\n", g.name, got)
			continue
		}
		want, ok := goldenEnvelopeHex[g.name]
		if !ok {
			t.Fatalf("%s: no golden bytes recorded", g.name)
		}
		if got != want {
			t.Errorf("%s: wire bytes drifted from golden\n got %s\nwant %s", g.name, got, want)
		}
		// And the pinned bytes decode back to the fixture (round-trip
		// guards against a stale pin surviving a format change).
		raw, err := hex.DecodeString(want)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", g.name, err)
		}
		var dec Envelope
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&dec); err != nil {
			t.Fatalf("%s: golden bytes do not decode: %v", g.name, err)
		}
		if dec.Kind != g.env.Kind || dec.From != g.env.From {
			t.Errorf("%s: golden decoded to kind=%d from=%d", g.name, dec.Kind, dec.From)
		}
	}
}

// --- v1 interop: a peer that predates MsgBatch speaks plain envelopes in
// --- both directions.

// v1Peer is a minimal single-envelope peer: a raw listener whose decode
// loop understands only the plain kinds and treats MsgBatch as a protocol
// error — exactly what a pre-batching node would do (unknown kind).
type v1Peer struct {
	ln   net.Listener
	got  chan Envelope
	bad  chan MsgKind
	done chan struct{}
}

func startV1Peer(t *testing.T) *v1Peer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &v1Peer{ln: ln, got: make(chan Envelope, 64), bad: make(chan MsgKind, 64), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				dec := gob.NewDecoder(conn)
				for {
					var env Envelope
					if err := dec.Decode(&env); err != nil {
						return
					}
					if env.Kind == MsgBatch || env.Kind <= 0 || env.Kind > MsgUnadvertise {
						p.bad <- env.Kind
						continue
					}
					p.got <- env
				}
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close(); <-p.done }) //lint:errdrop test teardown is best-effort
	return p
}

// TestV1InteropSingleEnvelopeFallback: a node configured with BatchSize 1
// (the interop setting for a MsgBatch-unaware neighbor) sends a v1 peer
// nothing but plain envelopes, whatever the traffic rate.
func TestV1InteropSingleEnvelopeFallback(t *testing.T) {
	n, err := NewNodeWith(0, "127.0.0.1:0", Options{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() }) //lint:errdrop test teardown is best-effort
	old := startV1Peer(t)
	n.Connect(1, old.ln.Addr().String())

	// A burst dense enough that batching mode WOULD coalesce it.
	for i := 0; i < 20; i++ {
		n.Peer(1).AdvertFrom(0, fmt.Sprintf("S%d", i), 0, 1)
	}
	n.Flush()
	for i := 0; i < 20; i++ {
		select {
		case env := <-old.got:
			if env.Kind != MsgAdvert {
				t.Fatalf("v1 peer got kind %d, want advert", env.Kind)
			}
		case k := <-old.bad:
			t.Fatalf("v1 peer got undecipherable kind %d (batch leaked into fallback mode)", k)
		case <-time.After(5 * time.Second):
			t.Fatalf("v1 peer received only %d of 20 envelopes", i)
		}
	}
}

// TestV1InteropBatchOfOneUnwrapped: even with batching ON, a lone envelope
// (nothing else queued when the sender takes it) goes out in v1 framing — a
// batch of one is unwrapped — and leaves the idle pipe at once, with no
// further traffic and no Flush behind it. Low-rate links interoperate with
// old peers without any configuration.
func TestV1InteropBatchOfOneUnwrapped(t *testing.T) {
	n, err := NewNode(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() }) //lint:errdrop test teardown is best-effort
	old := startV1Peer(t)
	n.Connect(1, old.ln.Addr().String())

	n.Peer(1).AdvertFrom(0, "R", 0, 1)
	select {
	case env := <-old.got:
		if env.Kind != MsgAdvert || env.StreamName != "R" {
			t.Fatalf("v1 peer got %+v, want plain advert for R", env)
		}
	case k := <-old.bad:
		t.Fatalf("lone envelope arrived as kind %d — batch of one was not unwrapped", k)
	case <-time.After(5 * time.Second):
		t.Fatal("v1 peer never received the lone envelope")
	}
}

// TestV1InteropInbound: envelopes from a v1 peer (plain framing, no
// batches) drive a v2 broker — upgrade one node at a time and the overlay
// keeps working. (The fault suite already covers malformed traffic; this is
// the well-formed v1 sender.)
func TestV1InteropInbound(t *testing.T) {
	n, err := NewNode(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() }) //lint:errdrop test teardown is best-effort
	n.Connect(1, "127.0.0.1:1")         // membership only; we never send to it

	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(Envelope{Kind: MsgAdvert, From: 1, StreamName: "R", Origin: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "v1 advert applied at v2 broker", func() bool {
		_, learned := n.Broker.AdvertStateSize()
		return learned == 1
	})
}

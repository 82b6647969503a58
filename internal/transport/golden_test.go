package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// recorder turns the pubsub.Peer calls decodeFrame makes into the envelopes
// a remotePeer enqueues for them. A data envelope's body is encoded afresh
// from the decoded tuple, and the body the tuple would be relayed in is kept
// beside it.
type recorder struct {
	envs   []Envelope
	relays [][]byte
}

func (r *recorder) AdvertFrom(_ topology.NodeID, s string, o topology.NodeID, q uint64) {
	r.envs = append(r.envs, Envelope{Kind: MsgAdvert, StreamName: s, Origin: o, Seq: q})
}
func (r *recorder) UnadvertFrom(_ topology.NodeID, s string, o topology.NodeID, q uint64) {
	r.envs = append(r.envs, Envelope{Kind: MsgUnadvertise, StreamName: s, Origin: o, Seq: q})
}
func (r *recorder) PropagateFrom(sub *pubsub.Subscription, _ topology.NodeID) {
	r.envs = append(r.envs, Envelope{Kind: MsgSubscribe, Sub: sub})
}
func (r *recorder) RetractFrom(_ topology.NodeID, id string, seq uint64) {
	r.envs = append(r.envs, Envelope{Kind: MsgUnsubscribe, SubID: id, Seq: seq})
}
func (r *recorder) RouteFrom(t stream.Tuple, _ topology.NodeID) {
	r.relays = append(r.relays, tupleBody(t))
	t.Relay = nil
	r.envs = append(r.envs, Envelope{Kind: MsgData, body: tupleBody(t)})
}

// decodeEnvelopes decodes one frame (its length prefix stripped) as node 1's.
func decodeEnvelopes(frame []byte) (*recorder, error) {
	var r recorder
	err := decodeFrame(frame, 1, make(map[string]string), &r)
	return &r, err
}

// goldenFrames is one frame per envelope kind, a batch, a subscribe whose
// filter is an age test (query.Within) and one whose projection keeps no
// attribute. The data tuple carries TWO attributes on purpose: the body
// sorts them by name, so a multi-attribute tuple's bytes do not depend on
// map order.
func goldenFrames() []struct {
	name  string
	batch []Envelope
} {
	lit := stream.FloatVal(10)
	gt := query.Predicate{Left: query.Operand{Col: &query.ColRef{Attr: "a"}}, Op: query.Gt, Right: query.Operand{Lit: &lit}}
	ge := gt
	ge.Op = query.Ge
	span := stream.FloatVal(1_800_000)
	within := query.Predicate{Left: query.Operand{Col: &query.ColRef{Attr: "S1.timestamp"}}, Op: query.Within, Right: query.Operand{Lit: &span}}
	advert := Envelope{Kind: MsgAdvert, StreamName: "R", Origin: 2, Seq: 3}
	data := Envelope{Kind: MsgData, body: tupleBody(stream.Tuple{
		Stream:    "R",
		Timestamp: 42,
		Attrs: map[string]stream.Value{
			"b": stream.StringVal("x"),
			"a": stream.FloatVal(11),
		},
		Size: 24,
	})}
	return []struct {
		name  string
		batch []Envelope
	}{
		{"advert", []Envelope{advert}},
		{"unadvertise", []Envelope{{Kind: MsgUnadvertise, StreamName: "R", Origin: 2, Seq: 4}}},
		{"subscribe", []Envelope{{Kind: MsgSubscribe, Sub: &pubsub.Subscription{
			ID: "q1", Seq: 7, Streams: []string{"R"}, Attrs: []string{"a"}, Filters: []query.Predicate{ge},
		}}}},
		{"unsubscribe", []Envelope{{Kind: MsgUnsubscribe, SubID: "q1", Seq: 8}}},
		{"data", []Envelope{data}},
		{"batch", []Envelope{advert, data}},
		{"subscribe-within", []Envelope{{Kind: MsgSubscribe, Sub: &pubsub.Subscription{
			ID: "q2", Seq: 1, Streams: []string{"results@3"}, Filters: []query.Predicate{within},
		}}}},
		{"subscribe-empty-attrs", []Envelope{{Kind: MsgSubscribe, Sub: &pubsub.Subscription{
			ID: "q3", Seq: 2, Streams: []string{"R"}, Attrs: []string{}, Filters: []query.Predicate{gt},
		}}}},
	}
}

// goldenPreambleHex opens every connection: "CSMS", wire version 2 and the
// sender's ID, here 1.
const goldenPreambleHex = "43534d53020000000000000001"

// goldenFrameHex pins the exact bytes of every frame above, length prefix
// included. Any drift here is a wire-format break: old and new nodes in one
// overlay would stop understanding each other. A deliberate format change
// bumps wireVersion and re-records the fixtures; run with
// COSMOS_UPDATE_GOLDEN=1 to print the new bytes.
var goldenFrameHex = map[string]string{
	"advert":      "000000050101520403",
	"unadvertise": "000000050501520404",
	"subscribe":   "0000001c0202713107020152020161010c010001610201402400000000000000",
	"unsubscribe": "000000050402713108",
	"data":        "000000200301015254300201610140260000000000000001620300000000000000000178",
	"batch":       "00000027060201015204030301015254300201610140260000000000000001620300000000000000000178",
	// The age test pins query.Within's operator code, 7 (varint 0e, ahead
	// of the column "S1.timestamp").
	"subscribe-within": "0000002d02027132010209726573756c7473403300010e01000c53312e74696d657374616d700201413b77400000000000",
	// An empty projection is a list of length 0 + 1 (01, after the
	// streams), apart from nil (00).
	"subscribe-empty-attrs": "0000001a020271330202015201010a010001610201402400000000000000",
}

func TestGoldenEnvelopeBytes(t *testing.T) {
	update := os.Getenv("COSMOS_UPDATE_GOLDEN") != ""
	if got := hex.EncodeToString(appendPreamble(nil, 1)); update {
		fmt.Printf("preamble %q\n", got)
	} else if got != goldenPreambleHex {
		t.Errorf("preamble drifted from golden\n got %s\nwant %s", got, goldenPreambleHex)
	}
	raw, err := hex.DecodeString(goldenPreambleHex)
	if err != nil {
		t.Fatal(err)
	}
	if from, err := newFrameReader(bytes.NewReader(raw)).preamble(); err != nil || from != 1 {
		t.Errorf("golden preamble read as sender %d, %v; want 1", from, err)
	}
	for _, g := range goldenFrames() {
		got := hex.EncodeToString(appendFrame(nil, g.batch))
		if update {
			fmt.Printf("\t%q: %q,\n", g.name, got)
			continue
		}
		want, ok := goldenFrameHex[g.name]
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
		frame, err := newFrameReader(bytes.NewReader(raw)).next()
		if err != nil {
			t.Fatalf("%s: golden bytes are not a frame: %v", g.name, err)
		}
		dec, err := decodeEnvelopes(frame)
		if err != nil {
			t.Fatalf("%s: golden bytes do not decode: %v", g.name, err)
		}
		if !reflect.DeepEqual(dec.envs, g.batch) {
			t.Errorf("%s: golden decoded to %+v, want %+v", g.name, dec.envs, g.batch)
		}
	}
}

// TestWireVersionMismatchRefused: a connection that opens with another magic
// or wire version — a gob-era node's type preamble among them — is refused
// before any of its frames reaches the broker, counted as malformed, and
// closed. The same frame behind the right preamble is applied.
func TestWireVersionMismatchRefused(t *testing.T) {
	n, err := NewNode(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() }) //lint:errdrop test teardown is best-effort
	n.Connect(1, "127.0.0.1:1")         // membership only; we never send to it

	advert := appendFrame(nil, []Envelope{{Kind: MsgAdvert, StreamName: "R", Origin: 1, Seq: 1}})
	open := func(preamble []byte) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() }) //lint:errdrop test teardown is best-effort
		if _, err := conn.Write(append(preamble, advert...)); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	good := appendPreamble(nil, 1)
	otherVersion := bytes.Clone(good)
	otherVersion[len(wireMagic)] = wireVersion - 1
	for i, c := range []struct {
		name     string
		preamble []byte
	}{
		{"gob", []byte("\x72\x7f\x03\x01\x01\x08Envelope\x01\xff\x80")},
		{"magic", append([]byte("XSMS"), good[len(wireMagic):]...)},
		{"version", otherVersion},
	} {
		conn := open(c.preamble)
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: the node kept the connection open (read: %v)", c.name, err)
		}
		if got := n.cMalformed.Value(); got != int64(i+1) {
			t.Errorf("%s: transport.malformed_envelope = %d after %d refused connections, want %d", c.name, got, i+1, i+1)
		}
	}
	if _, learned := n.Broker.AdvertStateSize(); learned != 0 {
		t.Fatalf("a refused connection's advert was applied: learned=%d", learned)
	}
	open(good)
	waitFor(t, "the advert behind the right preamble applied", func() bool {
		_, learned := n.Broker.AdvertStateSize()
		return learned == 1
	})
}

// FuzzDecodeFrame attacks the receive path from the connection's bytes
// after the preamble, seeded from the golden frames, all of them in one
// stream, and length prefixes at and above the frame cap. The receive buffer
// never grows past twice the input (a length above maxFrame is refused
// before anything is allocated for it), nothing panics, and for every frame
// it accepts decode∘encode is the identity: the envelopes re-encode to
// bytes that decode to the same envelopes, and every data tuple's relayed
// bytes decode to the tuple it was handed over as.
func FuzzDecodeFrame(f *testing.F) {
	var all []byte
	for _, g := range goldenFrames() {
		raw, err := hex.DecodeString(goldenFrameHex[g.name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		all = append(all, raw...)
	}
	f.Add(all)
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for first := true; ; first = false {
			frame, err := fr.next()
			if limit := max(readBufSize, 2*len(data)); cap(fr.buf) > limit {
				t.Fatalf("receive buffer grew to %d bytes on %d bytes of input", cap(fr.buf), len(data))
			}
			if first && len(data) >= 4 && binary.BigEndian.Uint32(data) > maxFrame &&
				(!errors.Is(err, errMalformed) || cap(fr.buf) != readBufSize) {
				t.Fatalf("a length above the cap was not refused up front: %v, buffer %d bytes", err, cap(fr.buf))
			}
			if err != nil {
				return
			}
			dec, err := decodeEnvelopes(frame)
			if err != nil {
				continue
			}
			again := appendFrame(nil, dec.envs)
			back, err := decodeEnvelopes(again[4:])
			if err != nil {
				t.Fatalf("own encoding refused: %v\n%x", err, again)
			}
			if twice := appendFrame(nil, back.envs); !bytes.Equal(twice, again) {
				t.Fatalf("decode∘encode is not the identity:\n first %x\nsecond %x", again, twice)
			}
			for i, relay := range dec.relays {
				if want := back.relays[i]; !bytes.Equal(tupleBody(decodeTuple(t, relay)), want) {
					t.Fatalf("relayed body %x decodes to another tuple than the one handed over (%x)", relay, want)
				}
			}
		}
	})
}

package transport

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stream"
)

// taggedTuple is a query result as the middleware publishes it: the tag in
// the header, and attribute names on both sides of where "__q" sorts.
func taggedTuple() stream.Tuple {
	return stream.Tuple{
		Stream: "results@3", Timestamp: 42, Tag: "Q1+Q2", Size: 48,
		Attrs: map[string]stream.Value{"S.a": stream.FloatVal(11), "b": stream.StringVal("x")},
	}
}

// TestTaggedTupleWireRoundTrip: the routing tag has no wire field of its
// own. It leaves as the "__q" string attribute — the very bytes the same
// tuple produced while the tag was still payload, so a tagged tuple crosses
// to and from nodes that predate the header field — and comes back lifted
// into the header, out of the attribute map.
func TestTaggedTupleWireRoundTrip(t *testing.T) {
	tagged := taggedTuple()
	payload := taggedTuple()
	payload.Tag = ""
	payload.Attrs[stream.TagAttr] = stream.StringVal(tagged.Tag)

	encode := func(tp stream.Tuple) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(Envelope{Kind: MsgData, From: 1, Tuple: toWireTuple(tp)}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	raw := encode(tagged)
	if want := encode(payload); !bytes.Equal(raw, want) {
		t.Fatalf("tagged tuple's wire bytes differ from the tuple carrying %s as an attribute\n got %x\nwant %x", stream.TagAttr, raw, want)
	}

	var env Envelope
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	got := fromWireTuple(env.Tuple)
	if got.Tag != tagged.Tag || !got.Owned {
		t.Errorf("decoded tag %q owned %v, want %q and a map this hop owns", got.Tag, got.Owned, tagged.Tag)
	}
	if !reflect.DeepEqual(got.Attrs, tagged.Attrs) {
		t.Errorf("decoded attributes %v, want %v (the tag lifted out)", got.Attrs, tagged.Attrs)
	}
	if v, ok := got.Get(stream.TagAttr); !ok || v != stream.StringVal(tagged.Tag) {
		t.Errorf("Get(%s) = %v %v, want the header's tag", stream.TagAttr, v, ok)
	}
	// Flattened again, the lifted tag lands back where it sat.
	if !bytes.Equal(encode(got), raw) {
		t.Error("re-encoding the decoded tuple changed the bytes")
	}
}

// FuzzWireTupleGobDecode attacks the one hand-written parser on the data
// plane, seeded from the golden data envelope's tuple body and a tagged one:
// it never panics, what it allocates is bounded by the input's length (a
// hostile attribute count cannot reserve more slots than there are bytes),
// decode∘encode is the identity on everything it accepts, and lifting the
// tag out of a decoded tuple and flattening it again cannot panic either.
func FuzzWireTupleGobDecode(f *testing.F) {
	golden := goldenEnvelopes()[4]
	body, err := golden.env.Tuple.GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	if !strings.Contains(goldenEnvelopeHex[golden.name], hex.EncodeToString(body)) {
		f.Fatalf("the %s fixture's tuple body is not in its golden bytes", golden.name)
	}
	f.Add(body)
	for _, tp := range []stream.Tuple{taggedTuple(), {Stream: "R", Tag: "Q7"}, {Stream: "R", Timestamp: -1}} {
		seed, err := toWireTuple(tp).GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte{wireTupleVersion, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 2^32-1 attributes announced, none sent

	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireTuple
		err := w.GobDecode(data)
		if cap(w.Attrs) > len(data) {
			t.Fatalf("%d attribute slots reserved for %d input bytes", cap(w.Attrs), len(data))
		}
		if err != nil {
			return
		}
		enc, err := w.GobEncode()
		if err != nil {
			t.Fatalf("accepted tuple does not encode: %v", err)
		}
		var back WireTuple
		if err := back.GobDecode(enc); err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if again, _ := back.GobEncode(); !bytes.Equal(again, enc) { //lint:errdrop GobEncode cannot fail
			t.Fatalf("decode∘encode is not the identity:\n first %x\nsecond %x", enc, again)
		}
		tp := fromWireTuple(&w)
		if v, ok := tp.Attrs[stream.TagAttr]; ok && v.Type == stream.String && v.S != "" {
			t.Fatalf("a string %s stayed in the attribute map: %v", stream.TagAttr, tp.Attrs)
		}
		tp.Relay = nil
		toWireTuple(tp)
	})
}

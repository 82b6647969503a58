package transport

import (
	"bytes"
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

// decodeTuple reads one whole tuple body.
func decodeTuple(t *testing.T, body []byte) stream.Tuple {
	t.Helper()
	r := reader{b: body}
	tp, _ := r.tuple()
	if r.bad || len(r.b) != 0 {
		t.Fatalf("tuple body %x does not decode", body)
	}
	return tp
}

// TestTaggedTupleWireRoundTrip: the routing tag has no wire field of its
// own. It leaves as the "__q" string attribute — the very bytes the same
// tuple produced while the tag was still payload — and comes back lifted
// into the header, out of the attribute map.
func TestTaggedTupleWireRoundTrip(t *testing.T) {
	tagged := taggedTuple()
	payload := taggedTuple()
	payload.Tag = ""
	payload.Attrs[stream.TagAttr] = stream.StringVal(tagged.Tag)

	raw := tupleBody(tagged)
	if want := tupleBody(payload); !bytes.Equal(raw, want) {
		t.Fatalf("tagged tuple's wire bytes differ from the tuple carrying %s as an attribute\n got %x\nwant %x", stream.TagAttr, raw, want)
	}

	got := decodeTuple(t, raw)
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
	if !bytes.Equal(tupleBody(got), raw) {
		t.Error("re-encoding the decoded tuple changed the bytes")
	}
}

// FuzzWireTupleGobDecode attacks the tuple body parser of the data plane
// (reader.tuple) and the gob hooks over it, seeded from the golden data
// frame's tuple body and a tagged one: it never panics, a hostile attribute
// count reserves no more than the input's length, decode∘encode is the
// identity on everything it accepts, the body it hands back as the relay is
// the input itself, and no non-empty string tag stays in the attribute map.
func FuzzWireTupleGobDecode(f *testing.F) {
	golden := goldenFrames()[4]
	body := golden.batch[0].body
	if !strings.Contains(goldenFrameHex[golden.name], hex.EncodeToString(body)) {
		f.Fatalf("the %s fixture's tuple body is not in its golden bytes", golden.name)
	}
	f.Add(body)
	for _, tp := range []stream.Tuple{taggedTuple(), {Stream: "R", Tag: "Q7"}, {Stream: "R", Timestamp: -1}} {
		seed := tupleBody(tp)
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte{wireTupleVersion, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 2^32-1 attributes announced, none sent

	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireTuple
		gobErr := w.GobDecode(data)
		if cap(w.Attrs) > len(data) {
			t.Fatalf("%d attribute slots reserved for %d input bytes", cap(w.Attrs), len(data))
		}
		r := reader{b: data}
		tp, relay := r.tuple()
		if accepted := !r.bad && len(r.b) == 0; accepted != (gobErr == nil) {
			t.Fatalf("the body parser accepted=%v where GobDecode returned %v", accepted, gobErr)
		}
		if gobErr != nil {
			return
		}
		if !bytes.Equal(relay, data) {
			t.Fatalf("relay %x is not the body %x", relay, data)
		}
		if v, ok := tp.Attrs[stream.TagAttr]; ok && v.Type == stream.String && v.S != "" {
			t.Fatalf("a string %s stayed in the attribute map: %v", stream.TagAttr, tp.Attrs)
		}
		enc := tupleBody(tp)
		if again := tupleBody(decodeTuple(t, enc)); !bytes.Equal(again, enc) {
			t.Fatalf("decode∘encode is not the identity:\n first %x\nsecond %x", enc, again)
		}
		if viaGob, _ := w.GobEncode(); !bytes.Equal(viaGob, enc) { //lint:errdrop GobEncode cannot fail
			t.Fatalf("the gob hook encodes %x, the body codec %x", viaGob, enc)
		}
	})
}

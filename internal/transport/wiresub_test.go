package transport

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// fuzzWireSub builds a subscription envelope body from fuzzed fields: the
// stream and projection lists are comma-separated (an empty string is no
// list), and every three bytes of preds make one predicate — an operator
// (invalid ones included) and two operands, each nothing, a column named from
// cols (with an alias now and then), or the literal f1, f2 or s.
func fuzzWireSub(id string, seq uint64, streams, attrs string, preds []byte, cols string, f1, f2 float64, s string) *WireSubscription {
	list := func(csv string) []string {
		if csv == "" {
			return nil
		}
		return strings.Split(csv, ",")
	}
	names := strings.Split(cols, ",")
	lits := []stream.Value{stream.FloatVal(f1), stream.FloatVal(f2), stream.StringVal(s)}
	operand := func(k byte) (col, alias string, lit *stream.Value) {
		switch k % 5 {
		case 0:
		case 1:
			col = names[int(k/5)%len(names)]
			if k/5%2 == 1 {
				alias = "S1"
			}
		default:
			v := lits[k%5-2]
			lit = &v
		}
		return col, alias, lit
	}
	w := &WireSubscription{ID: id, Seq: seq, Streams: list(streams), Attrs: list(attrs)}
	for i := 0; i+3 <= len(preds) && i < 3*6; i += 3 {
		wp := WirePredicate{Op: query.Op(preds[i] % 8)}
		wp.LeftCol, wp.LeftAlias, wp.LeftLit = operand(preds[i+1])
		wp.RightCol, wp.RightAls, wp.RightLit = operand(preds[i+2])
		w.Filters = append(w.Filters, wp)
	}
	return w
}

// sameWire compares two subscription bodies, a nil list equal to an empty one
// (gob sends neither).
func sameWire(a, b *WireSubscription) bool {
	norm := func(w WireSubscription) WireSubscription {
		for _, l := range []*[]string{&w.Streams, &w.Attrs} {
			if len(*l) == 0 {
				*l = nil
			}
		}
		if len(w.Filters) == 0 {
			w.Filters = nil
		}
		return w
	}
	return reflect.DeepEqual(norm(*a), norm(*b))
}

func gobBytes(t *testing.T, w *WireSubscription) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Envelope{Kind: MsgSubscribe, From: 1, Sub: w}); err != nil {
		t.Fatalf("encode %+v: %v", w, err)
	}
	return buf.Bytes()
}

// FuzzWireSubscription attacks the subscription boundary, seeded from the
// golden subscribe envelope: a body built from fuzzed fields survives
// fromWire and toWire unchanged, directly and through gob (byte for byte),
// and the subscription it carries is accepted by a broker without a panic —
// subscribed twice under two IDs, so the second is compiled, folded and
// decided against the first by a cover scan, at the subscriber and again at
// the publisher it propagates to — and withdrawn without a trace. The fold
// itself is held to query.SelectionIntervalsByAttr by pubsub's
// FuzzFoldSelections: the fold is unexported there.
func FuzzWireSubscription(f *testing.F) {
	golden := goldenEnvelopes()[2].env.Sub
	f.Add(golden.ID, golden.Seq, strings.Join(golden.Streams, ","), strings.Join(golden.Attrs, ","),
		[]byte{byte(query.Ge), 1, 2}, golden.Filters[0].LeftCol, golden.Filters[0].RightLit.F, 0.0, "")
	f.Add("s", uint64(1), "R,S", "", []byte{byte(query.Eq), 1, 4, byte(query.Lt), 2, 1, byte(query.Ne), 1, 6}, "a,b", 3.0, -1.0, "x")
	f.Add("t", uint64(0), "R", "a,a", []byte{byte(query.Gt), 6, 3, 0, 0, 0, byte(query.Le), 1, 11}, ",__q", 2.0, 2.0, "q1")

	f.Fuzz(func(t *testing.T, id string, seq uint64, streams, attrs string, preds []byte, cols string, f1, f2 float64, s string) {
		w := fuzzWireSub(id, seq, streams, attrs, preds, cols, f1, f2, s)
		sub := fromWire(w)
		if back := toWire(sub); !sameWire(back, w) {
			t.Fatalf("toWire∘fromWire changed the body:\n got %+v\nwant %+v", back, w)
		}
		raw := gobBytes(t, w)
		var env Envelope
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if again := gobBytes(t, toWire(fromWire(env.Sub))); !bytes.Equal(again, raw) {
			t.Fatalf("the decoded body re-encodes differently:\n first %x\nsecond %x", raw, again)
		}

		if len(sub.Streams) == 0 {
			return
		}
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
		src.Advertise(sub.Streams[0])
		twin := sub.Clone()
		twin.ID += "'"
		for _, x := range []*pubsub.Subscription{sub, twin} {
			if err := dst.Subscribe(x, func(*pubsub.Subscription, stream.Tuple) {}); err != nil {
				t.Fatalf("subscribe %s: %v", x, err)
			}
		}
		dst.Unsubscribe(sub.ID)
		dst.Unsubscribe(twin.ID)
		src.Unadvertise(sub.Streams[0])
		if left := net.ResidualState(); len(left) != 0 {
			t.Fatalf("residual state after withdrawing %s: %v", sub, left)
		}
	})
}

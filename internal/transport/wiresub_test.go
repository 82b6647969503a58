package transport

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// fuzzWireSub builds a subscription from fuzzed fields: the stream and
// projection lists are comma-separated (an empty string is no list), and
// every three bytes of preds make one predicate — an operator (invalid ones
// included) and two operands, each nothing, a column named from cols (with an
// alias now and then), or the literal f1, f2 or s.
func fuzzWireSub(id string, seq uint64, streams, attrs string, preds []byte, cols string, f1, f2 float64, s string) *pubsub.Subscription {
	list := func(csv string) []string {
		if csv == "" {
			return nil
		}
		return strings.Split(csv, ",")
	}
	names := strings.Split(cols, ",")
	lits := []stream.Value{stream.FloatVal(f1), stream.FloatVal(f2), stream.StringVal(s)}
	operand := func(k byte) query.Operand {
		switch k % 5 {
		case 0:
			return query.Operand{}
		case 1:
			col := &query.ColRef{Attr: names[int(k/5)%len(names)]}
			if k/5%2 == 1 {
				col.Alias = "S1"
			}
			return query.Operand{Col: col}
		}
		v := lits[k%5-2]
		return query.Operand{Lit: &v}
	}
	sub := &pubsub.Subscription{ID: id, Seq: seq, Streams: list(streams), Attrs: list(attrs)}
	for i := 0; i+3 <= len(preds) && i < 3*6; i += 3 {
		sub.Filters = append(sub.Filters, query.Predicate{Op: query.Op(preds[i] % 8), Left: operand(preds[i+1]), Right: operand(preds[i+2])})
	}
	return sub
}

// subscribeFrame is the frame that propagates sub.
func subscribeFrame(sub *pubsub.Subscription) []byte {
	return appendFrame(nil, []Envelope{{Kind: MsgSubscribe, Sub: sub}})
}

// FuzzWireSubscription attacks the subscription boundary, seeded from the
// golden subscribe frame: a subscription built from fuzzed fields survives
// the subscription body codec unchanged (the decoded one re-encodes to the
// same bytes and, a NaN literal aside, is deeply equal), and the
// subscription it carries is accepted by a broker without a panic —
// subscribed twice under two IDs, so the second is compiled, folded and
// decided against the first by a cover scan, at the subscriber and again at
// the publisher it propagates to — and withdrawn without a trace. The fold
// itself is held to query.SelectionIntervalsByAttr by pubsub's
// FuzzFoldSelections: the fold is unexported there.
func FuzzWireSubscription(f *testing.F) {
	golden := goldenFrames()[2].batch[0].Sub
	f.Add(golden.ID, golden.Seq, strings.Join(golden.Streams, ","), strings.Join(golden.Attrs, ","),
		[]byte{byte(query.Ge), 1, 2}, golden.Filters[0].Left.Col.Attr, golden.Filters[0].Right.Lit.F, 0.0, "")
	f.Add("s", uint64(1), "R,S", "", []byte{byte(query.Eq), 1, 4, byte(query.Lt), 2, 1, byte(query.Ne), 1, 6}, "a,b", 3.0, -1.0, "x")
	f.Add("t", uint64(0), "R", "a,a", []byte{byte(query.Gt), 6, 3, 0, 0, 0, byte(query.Le), 1, 11}, ",__q", 2.0, 2.0, "q1")

	f.Fuzz(func(t *testing.T, id string, seq uint64, streams, attrs string, preds []byte, cols string, f1, f2 float64, s string) {
		built := fuzzWireSub(id, seq, streams, attrs, preds, cols, f1, f2, s)
		raw := subscribeFrame(built)
		dec, err := decodeEnvelopes(raw[4:])
		if err != nil || len(dec.envs) != 1 {
			t.Fatalf("own encoding rejected: %v", err)
		}
		sub := dec.envs[0].Sub
		if again := subscribeFrame(sub); !bytes.Equal(again, raw) {
			t.Fatalf("the decoded subscription re-encodes differently:\n first %x\nsecond %x", raw, again)
		}
		if !math.IsNaN(f1) && !math.IsNaN(f2) && !reflect.DeepEqual(sub, built) {
			t.Fatalf("decoded %+v, sent %+v", sub, built)
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

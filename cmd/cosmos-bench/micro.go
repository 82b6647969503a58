package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Isolated per-layer measurements of the traced run: the workload's own
// tuples and subscriptions replayed through one layer alone, so its cost
// can be read without the layers around it.

func pred(attr string, op query.Op, v float64) query.Predicate {
	lit := stream.FloatVal(v)
	return query.Predicate{
		Left:  query.Operand{Col: &query.ColRef{Attr: attr}},
		Op:    op,
		Right: query.Operand{Lit: &lit},
	}
}

func toWire(t stream.Tuple) *transport.WireTuple {
	w := &transport.WireTuple{Stream: t.Stream, Timestamp: t.Timestamp, Size: t.Size}
	for name, v := range t.Attrs {
		w.Attrs = append(w.Attrs, transport.WireAttr{Name: name, Val: v})
	}
	sort.Slice(w.Attrs, func(i, j int) bool { return w.Attrs[i].Name < w.Attrs[j].Name })
	return w
}

// microWire round-trips 64-tuple MsgBatch envelopes built from the pool
// through one long-lived gob stream — the transport's framing, from its
// public wire types — and reports encode and decode ns and wire bytes per
// tuple.
func microWire(ctx *runCtx, pool []stream.Tuple) error {
	const batch, rounds = 64, 200
	var envs []transport.Envelope
	for r := 0; r < rounds; r++ {
		env := transport.Envelope{Kind: transport.MsgBatch, From: 0}
		for i := 0; i < batch; i++ {
			t := pool[(r*batch+i)%len(pool)]
			env.Batch = append(env.Batch, transport.Envelope{Kind: transport.MsgData, From: 0, Tuple: toWire(t)})
		}
		envs = append(envs, env)
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	// The first message carries gob's type preamble; keep it out of the
	// per-tuple figures as a long-lived link does.
	if err := enc.Encode(envs[0]); err != nil {
		return fmt.Errorf("encode preamble batch: %w", err)
	}
	pre := buf.Len()
	t0 := nowNs()
	for _, env := range envs[1:] {
		if err := enc.Encode(env); err != nil {
			return fmt.Errorf("encode batch: %w", err)
		}
	}
	encNs := nowNs() - t0
	n := float64((rounds - 1) * batch)
	wireBytes := float64(buf.Len() - pre)

	dec := gob.NewDecoder(&buf)
	var first transport.Envelope
	if err := dec.Decode(&first); err != nil {
		return fmt.Errorf("decode preamble batch: %w", err)
	}
	t0 = nowNs()
	for range envs[1:] {
		var env transport.Envelope
		if err := dec.Decode(&env); err != nil {
			return fmt.Errorf("decode batch: %w", err)
		}
	}
	decNs := nowNs() - t0
	ctx.set("transport.encode_ns_per_tuple", float64(encNs)/n, int(n))
	ctx.set("transport.decode_ns_per_tuple", float64(decNs)/n, int(n))
	ctx.set("transport.wire_bytes_per_tuple", wireBytes/n, int(n))
	return nil
}

// microMatch replays the pool against the workload's subscriptions on an
// isolated two-broker in-process pubsub.Network (publisher at 0, every
// subscription at 1): matching, projection and hand-off with no transport
// under them.
func microMatch(ctx *runCtx, subs []*pubsub.Subscription, pool []stream.Tuple) error {
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 1); err != nil {
		return err
	}
	net, err := pubsub.NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1})
	if err != nil {
		return err
	}
	b0, _ := net.Broker(0)
	b1, _ := net.Broker(1)
	seen := make(map[string]bool)
	for _, t := range pool {
		if !seen[t.Stream] {
			seen[t.Stream] = true
			b0.Advertise(t.Stream)
		}
	}
	for _, s := range subs {
		if err := b1.Subscribe(s.Clone(), func(*pubsub.Subscription, stream.Tuple) {}); err != nil {
			return err
		}
	}
	const rounds = 4
	for _, t := range pool { // warm the lazily built prune indexes
		b0.Publish(t)
	}
	t0 := nowNs()
	for r := 0; r < rounds; r++ {
		for _, t := range pool {
			b0.Publish(t)
		}
	}
	n := rounds * len(pool)
	ctx.set("pubsub.match_ns_per_tuple", float64(nowNs()-t0)/float64(n), n)
	return nil
}

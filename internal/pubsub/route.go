package pubsub

import (
	"slices"
	"sync"

	"repro/internal/stream"
	"repro/internal/topology"
)

// Publish injects a tuple produced by this broker's clients and routes it
// through the overlay. Advertise the tuple's stream here first: subscriptions
// propagate toward advertisers only, so a tuple published at a broker that
// does not advertise its stream reaches only the subscribers that some record
// on the way lists, cut to that record's forwarding list.
func (b *Broker) Publish(t stream.Tuple) {
	b.route(t, -1)
}

// delivery is one matched local subscription, captured by the match and
// invoked after it; the handler gets the tuple cut to sub.Attrs.
type delivery struct {
	h   Handler
	sub *Subscription
}

// hop is one forwarding decision toward a neighbor.
type hop struct {
	to    topology.NodeID
	attrs []string // sorted; nil = all
}

// routeBufs are the per-route-call matching buffers, pooled so the
// steady-state route path allocates none of them. They cannot live on the
// broker: the snapshot path runs without the broker lock, so concurrent
// routes each need their own scratch (and handlers are free to call back
// into the broker — a nested route pops its own buffers from the pool).
type routeBufs struct {
	locals []delivery
	hops   []hop
	// match collects per-direction matched candidates; stab and sel back
	// the prune index's stab and merged-selection sets (attrindex.go).
	match []*compiledSub
	stab  []int32
	sel   []int32
}

var routeBufPool = sync.Pool{New: func() any { return new(routeBufs) }}

// route delivers the tuple locally, cut to each subscription's Attrs, and
// forwards it once per interested neighbor, cut to the union of the matched
// records' forwarding lists (early projection, §2). Matching runs lock-free
// against the published snapshot epoch (matchSnap, snapshot.go), so
// concurrent routes proceed in parallel and route never takes the broker
// mutex.
func (b *Broker) route(t stream.Tuple, from topology.NodeID) {
	snap := b.snap.Load()
	if from >= 0 && !slices.Contains(snap.neighbors, from) {
		// Data from a torn-down link (as of this epoch): no routing state
		// references the direction anymore, so the tuple is dropped
		// (at-most-once data delivery; the repaired overlay routes fresh
		// traffic). A route racing the detach may read the pre-detach epoch
		// and accept — that is the linearization where the route happened
		// first.
		return
	}
	bufs := routeBufPool.Get().(*routeBufs)
	locals, hops := matchSnap(snap, &t, from, bufs, bufs.locals[:0], bufs.hops[:0])
	cRoutedTuples.Inc()
	if len(locals) > 0 {
		cLocalDeliveries.Add(int64(len(locals)))
	}
	if len(hops) > 0 {
		cForwardedTuples.Add(int64(len(hops)))
	}

	// Local deliveries run first, in subscription-registration order,
	// outside the lock so handlers are free to call back into the broker.
	// Full-tuple (nil-projection) deliveries share ONE attribute map per
	// route call, read-only by contract (see Handler): the tuple's own when
	// no publisher aliases it (Owned: a result, a projection or a decode),
	// else one copy, which decouples retaining subscribers from a publisher
	// reusing its tuple after Publish. Forwards take t as it came.
	full := t
	for _, d := range locals {
		pt := full
		if d.sub.Attrs != nil {
			pt = projectAttrs(t, d.sub.Attrs)
		} else if !full.Owned {
			full = t.Clone()
			pt = full
		}
		pt.Relay = nil // transport-internal hint; handlers see a clean tuple
		d.h(d.sub, pt)
	}
	for _, h := range hops {
		fwd := projectAttrs(t, h.attrs)
		b.net.CountData(b.Node, h.to, fwd.Size)
		b.net.Peer(h.to).RouteFrom(fwd, b.Node)
	}
	clear(locals) // drop handler/sub/map references before pooling
	clear(hops)
	clear(bufs.match) // and the candidate records the match scratch held
	bufs.locals, bufs.hops, bufs.match = locals[:0], hops[:0], bufs.match[:0]
	routeBufPool.Put(bufs)
}

// projectAttrs returns t cut down to the attributes keep lists (nil keeps t
// whole, map and all; a repeated name counts once). A projection is a fresh
// map nobody else holds, and it carries the routing tag, which is header, not
// payload.
func projectAttrs(t stream.Tuple, keep []string) stream.Tuple {
	if keep == nil {
		return t
	}
	out := stream.Tuple{Stream: t.Stream, Timestamp: t.Timestamp, Tag: t.Tag, Attrs: make(map[string]stream.Value, len(keep)), Owned: true}
	for _, a := range keep {
		if v, ok := t.Attrs[a]; ok {
			out.Attrs[a] = v
		}
	}
	// Size scales with retained attributes (8 bytes per value plus a
	// fixed header), mirroring the early-projection bandwidth savings; the
	// tag is accounted as the one attribute it is on the wire.
	out.Size = tupleSize(len(out.Attrs))
	if t.Tag != "" {
		out.Size += 8
	}
	return out
}

func tupleSize(attrs int) int { return 16 + 8*attrs }

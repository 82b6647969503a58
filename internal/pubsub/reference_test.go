package pubsub

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// This file is the reference broker the production Broker is held to: the
// protocol the Peer and Broker docs state, written for clarity, not speed,
// after internal/engine's refEngine. It shares the exported types and the
// wire-size formulas with the code it checks and nothing else — no posting
// list, compiled record, covered-by edge or snapshot — so a bug in that
// shared state cannot hide from it.
//
//   - Records live in plain slices in registration order: the locals, and one
//     slice per neighbour direction.
//   - Matching scans every record with Subscription.Matches.
//   - Covering is recomputed from scratch. A decision toward n takes the
//     first record already sent toward n that covers the subscription —
//     locals, then the directions other than n ascending, registration order
//     within (the canonical order). A withdrawal re-decides every unsent
//     eligible (record, neighbour) pair: target ascending, then canonical
//     order.
//   - Each step changes state before it sends, as Broker does, and maps are
//     iterated in sorted order only.

// refNetwork is the reference overlay: one refBroker per broker of a
// production Network, over its links and with each broker's neighbour order,
// counting traffic per link.
type refNetwork struct {
	brokers map[topology.NodeID]*refBroker
	links   map[[2]topology.NodeID]float64 // latency of each link
	data    map[[2]topology.NodeID]int64
	control map[[2]topology.NodeID]int64
}

// newRefNetwork builds the reference of net's overlay. It reads net's links,
// their latencies and each broker's neighbour order, and nothing else.
func newRefNetwork(net *Network) *refNetwork {
	rn := &refNetwork{
		brokers: make(map[topology.NodeID]*refBroker),
		data:    make(map[[2]topology.NodeID]int64),
		control: make(map[[2]topology.NodeID]int64),
	}
	net.mu.Lock()
	rn.links = maps.Clone(net.links)
	net.mu.Unlock()
	for _, n := range net.Nodes() {
		b, _ := net.Broker(n)
		b.mu.Lock()
		neighbors := slices.Clone(b.neighbors)
		b.mu.Unlock()
		rn.brokers[n] = newRefBroker(rn, n, neighbors)
	}
	return rn
}

func newRefBroker(net *refNetwork, node topology.NodeID, neighbors []topology.NodeID) *refBroker {
	return &refBroker{
		node:      node,
		net:       net,
		neighbors: neighbors,
		own:       make(map[string]uint64),
		adverts:   make(map[topology.NodeID]map[string]map[topology.NodeID]uint64),
		unadvTomb: make(map[topology.NodeID]map[refAdvert]uint64),
		dirs:      make(map[topology.NodeID][]*refRecord),
		retracted: make(map[topology.NodeID]map[string]uint64),
	}
}

func refLink(a, b topology.NodeID) [2]topology.NodeID {
	return [2]topology.NodeID{min(a, b), max(a, b)}
}

func (rn *refNetwork) sortedLinks() [][2]topology.NodeID {
	return slices.SortedFunc(maps.Keys(rn.links), func(a, b [2]topology.NodeID) int { return slices.Compare(a[:], b[:]) })
}

// client implements eqOverlay.
func (rn *refNetwork) client(n topology.NodeID) (eqClient, bool) {
	b, ok := rn.brokers[n]
	return b, ok
}

// Traffic sums the per-link counters in sorted link order, as Network.Traffic
// does.
func (rn *refNetwork) Traffic() TrafficReport {
	var rep TrafficReport
	for _, link := range rn.sortedLinks() {
		data := float64(rn.data[link])
		rep.DataBytes += data
		rep.WeightedCost += data * rn.links[link]
		if data > 0 {
			rep.Links++
		}
		rep.ControlBytes += float64(rn.control[link])
	}
	return rep
}

// linkTraffic returns the (data, control) bytes of every link that carried
// any, as linkTraffic does for a Network.
func (rn *refNetwork) linkTraffic() map[[2]topology.NodeID][2]int64 {
	out := make(map[[2]topology.NodeID][2]int64)
	for _, link := range rn.sortedLinks() {
		if d, c := rn.data[link], rn.control[link]; d != 0 || c != 0 {
			out[link] = [2]int64{d, c}
		}
	}
	return out
}

// subsState renders every broker's per-direction records with their
// propagation marks, in subsState's format.
func (rn *refNetwork) subsState() string {
	var sb strings.Builder
	for _, n := range slices.Sorted(maps.Keys(rn.brokers)) {
		b := rn.brokers[n]
		for _, d := range slices.Sorted(maps.Keys(b.dirs)) {
			recs := b.dirs[d]
			if len(recs) == 0 {
				continue
			}
			ids := make([]string, 0, len(recs))
			for _, r := range recs {
				ids = append(ids, r.sub.ID+"->"+renderSentTo(r.sentTo))
			}
			fmt.Fprintf(&sb, "%d<-%d: %s\n", n, d, strings.Join(ids, ","))
		}
	}
	return sb.String()
}

// refBroker is one reference broker.
type refBroker struct {
	node      topology.NodeID
	net       *refNetwork
	neighbors []topology.NodeID // in the production broker's order
	seq       uint64            // the epochs this broker's clients issue
	// own holds the streams this broker's clients advertise, with the epoch.
	own map[string]uint64
	// adverts[d][stream][origin] is the epoch of an advert learned from d.
	adverts map[topology.NodeID]map[string]map[topology.NodeID]uint64
	// unadvTomb[d] holds the withdrawals from d that found no advert.
	unadvTomb map[topology.NodeID]map[refAdvert]uint64
	locals    []*refRecord
	dirs      map[topology.NodeID][]*refRecord
	// retracted[d][id] holds the retractions from d that found no record.
	retracted map[topology.NodeID]map[string]uint64
}

var _ Peer = (*refBroker)(nil)

type refAdvert struct {
	stream string
	origin topology.NodeID
}

// refRecord is one recorded subscription.
type refRecord struct {
	sub    *Subscription
	h      Handler // locals only
	seq    uint64
	src    topology.NodeID   // the direction it came from; -1 for locals
	sentTo []topology.NodeID // ascending
}

func (r *refRecord) sent(n topology.NodeID) bool { return slices.Contains(r.sentTo, n) }

func (r *refRecord) markSent(n topology.NodeID) {
	r.sentTo = append(r.sentTo, n)
	slices.Sort(r.sentTo)
}

// refSend is one subscription to put on the link toward to.
type refSend struct {
	to  topology.NodeID
	sub *Subscription
}

func (b *refBroker) isNeighbor(n topology.NodeID) bool { return slices.Contains(b.neighbors, n) }

func (b *refBroker) peer(n topology.NodeID) Peer { return b.net.brokers[n] }

func (b *refBroker) sendControl(n topology.NodeID, size int) Peer {
	b.net.control[refLink(b.node, n)] += int64(size)
	return b.peer(n)
}

// records returns every record in canonical order: locals, then each
// direction ascending, registration order within.
func (b *refBroker) records() []*refRecord {
	out := slices.Clone(b.locals)
	for _, d := range slices.Sorted(maps.Keys(b.dirs)) {
		out = append(out, b.dirs[d]...)
	}
	return out
}

// advertisesAny reports whether direction n advertises one of the streams.
func (b *refBroker) advertisesAny(n topology.NodeID, streams []string) bool {
	for _, s := range streams {
		if len(b.adverts[n][s]) > 0 {
			return true
		}
	}
	return false
}

// advertisedExceptAny reports whether this broker's clients or a direction
// other than exclude advertise one of the streams: what keeps a record from
// exclude justified.
func (b *refBroker) advertisedExceptAny(exclude topology.NodeID, streams []string) bool {
	for _, s := range streams {
		if _, ok := b.own[s]; ok {
			return true
		}
	}
	for _, d := range b.neighbors {
		if d != exclude && b.advertisesAny(d, streams) {
			return true
		}
	}
	return false
}

// eligible reports whether r is to be propagated toward n, sent or covered.
func (b *refBroker) eligible(r *refRecord, n topology.NodeID) bool {
	return n != r.src && b.advertisesAny(n, r.sub.Streams)
}

// firstCover returns the first record in canonical order, skipping the
// records from n, that was sent toward n and covers sub, or nil.
func (b *refBroker) firstCover(n topology.NodeID, sub *Subscription) *refRecord {
	for _, r := range b.records() {
		if r.src != n && r.sent(n) && r.sub.ID != sub.ID && refCovers(r.sub, sub) {
			return r
		}
	}
	return nil
}

// decide runs r's propagation decision toward n: when n is eligible and r
// neither went there nor is covered by a record that did, r is marked sent
// and appended to out.
func (b *refBroker) decide(out []refSend, r *refRecord, n topology.NodeID) []refSend {
	if r.sent(n) || !b.eligible(r, n) || b.firstCover(n, r.sub) != nil {
		return out
	}
	r.markSent(n)
	return append(out, refSend{to: n, sub: r.sub})
}

// redecide re-runs every (record, neighbour) decision after a withdrawal,
// target ascending, then in canonical order; a record sent earlier in the
// sweep covers later ones.
func (b *refBroker) redecide() []refSend {
	var out []refSend
	for _, n := range slices.Sorted(slices.Values(b.neighbors)) {
		for _, r := range b.records() {
			out = b.decide(out, r, n)
		}
	}
	return out
}

func (b *refBroker) send(sends []refSend) {
	for _, s := range sends {
		b.sendControl(s.to, subSize(s.sub)).PropagateFrom(s.sub, b.node)
	}
}

// refFind returns the record with the given ID in recs, or nil.
func refFind(recs []*refRecord, id string) *refRecord {
	for _, r := range recs {
		if r.sub.ID == id {
			return r
		}
	}
	return nil
}

func refRemove(recs []*refRecord, r *refRecord) []*refRecord {
	return slices.DeleteFunc(recs, func(x *refRecord) bool { return x == r })
}

// Advertise announces a stream of this broker's clients: a fresh advert
// takes a new epoch, a live one re-floods its own.
func (b *refBroker) Advertise(streamName string) {
	seq, live := b.own[streamName]
	if !live {
		b.seq++
		seq = b.seq
		b.own[streamName] = seq
	}
	for _, n := range b.neighbors {
		b.sendControl(n, advertSize).AdvertFrom(b.node, streamName, b.node, seq)
	}
}

// Unadvertise withdraws a stream of this broker's clients; an unknown stream
// is a no-op.
func (b *refBroker) Unadvertise(streamName string) {
	seq, live := b.own[streamName]
	if !live {
		return
	}
	delete(b.own, streamName)
	resend := b.prune(streamName, -1)
	for _, n := range b.neighbors {
		b.sendControl(n, advertSize).UnadvertFrom(b.node, streamName, b.node, seq)
	}
	b.send(resend)
}

// AdvertFrom records an advert from a neighbour and floods it on. A
// tombstone of the same epoch or newer annihilates it, a known epoch stops
// the flood, and the first origin of a stream from the direction replays the
// records listing it toward the direction.
func (b *refBroker) AdvertFrom(from topology.NodeID, streamName string, origin topology.NodeID, seq uint64) {
	if !b.isNeighbor(from) {
		return
	}
	key := refAdvert{stream: streamName, origin: origin}
	if ts, ok := b.unadvTomb[from][key]; ok {
		if seq <= ts {
			return
		}
		delete(b.unadvTomb[from], key)
	}
	if cur, ok := b.adverts[from][streamName][origin]; ok && cur >= seq {
		return
	}
	if b.adverts[from] == nil {
		b.adverts[from] = make(map[string]map[topology.NodeID]uint64)
	}
	newStream := len(b.adverts[from][streamName]) == 0
	if newStream {
		b.adverts[from][streamName] = make(map[topology.NodeID]uint64)
	}
	b.adverts[from][streamName][origin] = seq
	var replay []refSend
	if newStream {
		for _, r := range b.records() {
			if slices.Contains(r.sub.Streams, streamName) {
				replay = b.decide(replay, r, from)
			}
		}
	}
	for _, n := range b.neighbors {
		if n != from {
			b.sendControl(n, advertSize).AdvertFrom(b.node, streamName, origin, seq)
		}
	}
	b.send(replay)
}

// UnadvertFrom withdraws an advert learned from a neighbour and floods the
// withdrawal on. One for an unknown advert, or newer than the recorded one,
// leaves a tombstone; an older one is a no-op. The stream's last origin from
// the direction prunes what it justified.
func (b *refBroker) UnadvertFrom(from topology.NodeID, streamName string, origin topology.NodeID, seq uint64) {
	if !b.isNeighbor(from) {
		return
	}
	tomb := func() {
		if b.unadvTomb[from] == nil {
			b.unadvTomb[from] = make(map[refAdvert]uint64)
		}
		key := refAdvert{stream: streamName, origin: origin}
		b.unadvTomb[from][key] = max(b.unadvTomb[from][key], seq)
	}
	switch cur, ok := b.adverts[from][streamName][origin]; {
	case !ok:
		tomb() // it overtook its advert
		return
	case cur > seq:
		return // stale
	case cur < seq:
		tomb() // the newer advert it withdraws is still on its way
	}
	delete(b.adverts[from][streamName], origin)
	var resend []refSend
	if len(b.adverts[from][streamName]) == 0 {
		delete(b.adverts[from], streamName)
		resend = b.prune(streamName, from)
	}
	for _, n := range b.neighbors {
		if n != from {
			b.sendControl(n, advertSize).UnadvertFrom(b.node, streamName, origin, seq)
		}
	}
	b.send(resend)
}

// prune applies the two advert-withdrawal mirror rules for a stream no longer
// advertised from withdrawn (-1: by this broker's clients), then re-decides.
//
//   - (a) A record listing the stream with no advertised stream left toward
//     withdrawn loses its mark toward it.
//   - (b) A record of another direction listing the stream with no stream
//     advertised by anyone but that direction is removed.
func (b *refBroker) prune(streamName string, withdrawn topology.NodeID) []refSend {
	for _, r := range b.records() {
		if withdrawn >= 0 && slices.Contains(r.sub.Streams, streamName) && !b.advertisesAny(withdrawn, r.sub.Streams) {
			r.sentTo = slices.DeleteFunc(r.sentTo, func(n topology.NodeID) bool { return n == withdrawn })
		}
	}
	for _, d := range slices.Sorted(maps.Keys(b.dirs)) {
		if d == withdrawn {
			continue
		}
		b.dirs[d] = slices.DeleteFunc(b.dirs[d], func(r *refRecord) bool {
			return slices.Contains(r.sub.Streams, streamName) && !b.advertisedExceptAny(d, r.sub.Streams)
		})
	}
	return b.redecide()
}

// Subscribe records a client subscription under a fresh epoch (withdrawing a
// live one of the same ID first) and propagates it.
func (b *refBroker) Subscribe(sub *Subscription, h Handler) error {
	if sub == nil || len(sub.Streams) == 0 {
		return fmt.Errorf("pubsub: empty subscription")
	}
	if refFind(b.locals, sub.ID) != nil {
		b.Unsubscribe(sub.ID)
	}
	b.seq++
	sub.Seq = b.seq
	r := &refRecord{sub: sub, h: h, seq: sub.Seq, src: -1}
	b.locals = append(b.locals, r)
	var sends []refSend
	for _, n := range b.neighbors {
		sends = b.decide(sends, r, n)
	}
	b.send(sends)
	return nil
}

// Unsubscribe withdraws a client subscription: the record goes, retractions
// follow its marks, and the withdrawal re-decides. An unknown ID is a no-op.
func (b *refBroker) Unsubscribe(id string) {
	var targets []topology.NodeID
	var seq uint64
	found := false
	b.locals = slices.DeleteFunc(b.locals, func(r *refRecord) bool {
		if r.sub.ID != id {
			return false
		}
		found = true
		targets = append(targets, r.sentTo...)
		seq = max(seq, r.seq)
		return true
	})
	if !found {
		return
	}
	resend := b.redecide()
	for _, n := range slices.Compact(slices.Sorted(slices.Values(targets))) {
		b.sendControl(n, retractSize).RetractFrom(b.node, id, seq)
	}
	b.send(resend)
}

// PropagateFrom records a subscription from a neighbour and propagates it. A
// retraction tombstone of its epoch or newer, or a record of the same epoch
// or newer, drops it; a newer epoch replaces the old record. A subscription
// no stream of which anyone but the sender advertises is not recorded.
func (b *refBroker) PropagateFrom(sub *Subscription, from topology.NodeID) {
	if sub == nil || len(sub.Streams) == 0 || !b.isNeighbor(from) {
		return
	}
	if ts, ok := b.retracted[from][sub.ID]; ok {
		if sub.Seq <= ts {
			return
		}
		delete(b.retracted[from], sub.ID)
	}
	replaced := false
	if prev := refFind(b.dirs[from], sub.ID); prev != nil {
		if sub.Seq <= prev.seq {
			return
		}
		b.dirs[from] = refRemove(b.dirs[from], prev)
		replaced = true
	}
	var sends []refSend
	if b.advertisedExceptAny(from, sub.Streams) {
		r := &refRecord{sub: sub.Clone(), seq: sub.Seq, src: from}
		b.dirs[from] = append(b.dirs[from], r)
		for _, n := range b.neighbors {
			sends = b.decide(sends, r, n)
		}
	}
	if replaced {
		sends = append(sends, b.redecide()...)
	}
	b.send(sends)
}

// RetractFrom withdraws a subscription recorded from a neighbour and forwards
// the retraction along its marks. One that finds no record leaves a
// tombstone; one older than the record is a no-op.
func (b *refBroker) RetractFrom(from topology.NodeID, id string, seq uint64) {
	if !b.isNeighbor(from) {
		return
	}
	r := refFind(b.dirs[from], id)
	if r == nil {
		if b.retracted[from] == nil {
			b.retracted[from] = make(map[string]uint64)
		}
		b.retracted[from][id] = max(b.retracted[from][id], seq)
		return
	}
	if r.seq > seq {
		return
	}
	b.dirs[from] = refRemove(b.dirs[from], r)
	resend := b.redecide()
	for _, n := range r.sentTo {
		b.sendControl(n, retractSize).RetractFrom(b.node, id, seq)
	}
	b.send(resend)
}

// Publish routes a tuple of this broker's clients.
func (b *refBroker) Publish(t stream.Tuple) { b.RouteFrom(t, -1) }

// refHop is one forward: the neighbour and the projection (nil: every
// attribute).
type refHop struct {
	to    topology.NodeID
	attrs []string
}

// match returns the local records the tuple matches, in registration order,
// and one hop per neighbour but from whose records match it, in neighbour
// order, projecting to the union of their projection lists.
func (b *refBroker) match(t stream.Tuple, from topology.NodeID) ([]*refRecord, []refHop) {
	var locals []*refRecord
	for _, r := range b.locals {
		if r.h != nil && r.sub.Matches(t) {
			locals = append(locals, r)
		}
	}
	var hops []refHop
	for _, n := range b.neighbors {
		if n == from {
			continue
		}
		matched, all := false, false
		attrs := []string{}
		for _, r := range b.dirs[n] {
			if r.sub.Matches(t) {
				matched = true
				all = all || r.sub.Attrs == nil
				attrs = append(attrs, r.sub.Attrs...)
			}
		}
		switch {
		case !matched:
			continue
		case all:
			attrs = nil
		default:
			slices.Sort(attrs)
			attrs = slices.Compact(attrs)
		}
		hops = append(hops, refHop{to: n, attrs: attrs})
	}
	return locals, hops
}

// RouteFrom delivers a tuple to the matching locals, then forwards it once per
// interested neighbour. Data from a non-neighbour is dropped.
func (b *refBroker) RouteFrom(t stream.Tuple, from topology.NodeID) {
	if from >= 0 && !b.isNeighbor(from) {
		return
	}
	locals, hops := b.match(t, from)
	for _, r := range locals {
		r.h(r.sub, refProject(t, r.sub.Attrs))
	}
	for _, h := range hops {
		fwd := refProject(t, h.attrs)
		b.net.data[refLink(b.node, h.to)] += int64(fwd.Size)
		b.peer(h.to).RouteFrom(fwd, b.node)
	}
}

// refProject cuts t down to the attributes keep lists (nil keeps t whole); the
// routing tag is header and travels along.
func refProject(t stream.Tuple, keep []string) stream.Tuple {
	if keep == nil {
		return t
	}
	out := stream.Tuple{Stream: t.Stream, Timestamp: t.Timestamp, Tag: t.Tag, Attrs: map[string]stream.Value{}, Owned: true}
	for _, a := range keep {
		if v, ok := t.Attrs[a]; ok {
			out.Attrs[a] = v
		}
	}
	out.Size = tupleSize(len(out.Attrs))
	if t.Tag != "" {
		out.Size += 8
	}
	return out
}

// refCovers reports whether s admits every message o admits — the covering
// relation Siena uses to suppress redundant subscription propagation: s lists
// every stream of o, keeps every attribute o keeps, and o's filter
// conjunction implies each filter of s. It is sound but not complete: a false
// result may still be a covering pair (filters over disjoint attributes, say),
// which costs propagation but never correctness.
func refCovers(s, o *Subscription) bool {
	for _, st := range o.Streams {
		if !slices.Contains(s.Streams, st) {
			return false
		}
	}
	if s.Attrs != nil {
		if o.Attrs == nil {
			return false
		}
		for _, a := range o.Attrs {
			if !slices.Contains(s.Attrs, a) {
				return false
			}
		}
	}
	ivs := query.SelectionIntervalsByAttr(o.Filters)
	for _, f := range s.Filters {
		f = f.Normalize()
		if !f.IsSelection() || f.Right.Lit == nil {
			return false
		}
		iv, ok := ivs[f.Left.Col.Attr]
		if !ok {
			iv = query.FullInterval()
		}
		if !iv.Implies(f.Op, *f.Right.Lit) {
			return false
		}
	}
	return true
}

package pubsub

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// This file enforces the reference-equivalence contract: the production
// broker must reproduce the reference broker (reference_test.go) bit for bit
// — the same forwarding decisions (observed as per-link traffic), the same
// local delivery sets and orders, the same projected payloads, and the same
// recorded routing state — over randomized overlays and workloads. It is the
// pub/sub counterpart of querygraph's naive-edge-construction equivalence
// discipline.

const (
	eqAdvertise = iota
	eqSubscribe
	eqPublish
	eqUnsubscribe
	eqUnadvertise
)

type eqOp struct {
	kind int
	node topology.NodeID
	strm string
	sub  *Subscription
	tup  stream.Tuple
}

var eqStreams = []string{"R", "S", "T"}

// eqRandomSub draws a subscription over the shared stream pool: 1-3 streams,
// a nil / empty / partial projection (unsorted, now and then a name twice: the
// reference reads the list as given, the index its sorted form), 0-3
// filters mixing numeric ops, string
// literals (kept raw unless the op is ==) and absent attributes, and one time
// in four a string equality on tag, a, timestamp or the routing tag
// (stream.TagAttr) — the compiled strEq group, the header attribute it must
// leave raw and the one that compiles to a header compare; now and then a
// second routing-tag filter, which stays raw.
func eqRandomSub(r *rand.Rand, id int) *Subscription {
	s := &Subscription{ID: fmt.Sprintf("s%d", id)}
	perm := r.Perm(len(eqStreams))
	for _, i := range perm[:1+r.IntN(len(eqStreams))] {
		s.Streams = append(s.Streams, eqStreams[i])
	}
	switch r.IntN(4) {
	case 0: // nil: keep everything
	case 1:
		s.Attrs = []string{} // empty projection
	default:
		pool := []string{"a", "b", "tag"}
		pp := r.Perm(len(pool))
		for _, i := range pp[:1+r.IntN(len(pool))] {
			s.Attrs = append(s.Attrs, pool[i])
		}
		if r.IntN(3) == 0 { // a name listed twice counts once
			s.Attrs = append(s.Attrs, s.Attrs[r.IntN(len(s.Attrs))])
		}
	}
	ops := []query.Op{query.Eq, query.Ne, query.Lt, query.Le, query.Gt, query.Ge}
	attrs := []string{"a", "b", "c", "d"} // d is often absent from tuples
	for i := 0; i < r.IntN(4); i++ {
		attr := attrs[r.IntN(len(attrs))]
		op := ops[r.IntN(len(ops))]
		var lit stream.Value
		if r.IntN(5) == 0 {
			lit = stream.StringVal([]string{"x", "y"}[r.IntN(2)])
		} else {
			lit = stream.FloatVal(float64(r.IntN(21) - 10))
		}
		s.Filters = append(s.Filters, query.Predicate{
			Left:  query.Operand{Col: &query.ColRef{Attr: attr}},
			Op:    op,
			Right: query.Operand{Lit: &lit},
		})
	}
	if r.IntN(4) == 0 {
		strEq := func(attr string) {
			lit := stream.StringVal([]string{"x", "y", ""}[r.IntN(3)])
			s.Filters = append(s.Filters, query.Predicate{
				Left:  query.Operand{Col: &query.ColRef{Attr: attr}},
				Op:    query.Eq,
				Right: query.Operand{Lit: &lit},
			})
		}
		strEq([]string{"tag", "a", "timestamp", stream.TagAttr, stream.TagAttr}[r.IntN(5)])
		if r.IntN(8) == 0 {
			strEq(stream.TagAttr)
		}
	}
	return s
}

// eqRandomTuple draws a message over the same domain, mixing value types so
// the compiled matcher's string/type-mismatch fallback is exercised; one in
// three carries a routing tag in its header, and a few of those a payload
// attribute misusing the tag's name, which nothing may read.
func eqRandomTuple(r *rand.Rand) stream.Tuple {
	names := append(append([]string(nil), eqStreams...), "Z") // Z: never subscribed
	t := stream.Tuple{
		Stream: names[r.IntN(len(names))],
		Attrs:  make(map[string]stream.Value),
	}
	for _, attr := range []string{"a", "b", "c"} {
		switch r.IntN(4) {
		case 0: // absent
		case 1:
			t.Attrs[attr] = stream.StringVal([]string{"x", "y"}[r.IntN(2)])
		case 2:
			t.Attrs[attr] = stream.IntVal(int64(r.IntN(25) - 12))
		default:
			t.Attrs[attr] = stream.FloatVal(float64(r.IntN(25) - 12))
		}
	}
	if r.IntN(2) == 0 {
		t.Attrs["tag"] = stream.StringVal([]string{"x", "y"}[r.IntN(2)])
	}
	t.Size = tupleSize(len(t.Attrs))
	if r.IntN(3) == 0 {
		t.Tag = []string{"x", "y"}[r.IntN(2)]
		t.Size += 8
		if r.IntN(8) == 0 {
			t.Attrs[stream.TagAttr] = stream.StringVal([]string{"x", "y"}[r.IntN(2)])
		}
	}
	return t
}

// advLife keys one advertisement lifecycle: the advertising broker and the
// stream name.
type advLife struct {
	node topology.NodeID
	strm string
}

// eqScenario draws a full randomized churn workload: adverts, advert
// withdrawals, subscriptions, unsubscriptions and publishes over a random
// broker set, shuffled so registration, withdrawal and traffic interleave
// in arbitrary order — including subscriptions registered before the
// adverts of their streams exist (caught up by re-propagation epochs),
// unsubscribes of IDs that were never subscribed (explicit no-ops), streams
// advertised by two brokers where only one withdraws, and
// unadvertise-then-re-advertise cycles (new epochs, full re-propagation).
func eqScenario(r *rand.Rand, nodes int) []eqOp {
	var ops []eqOp
	// Per (node, stream) advertisement, a lifecycle: advertise, possibly
	// withdraw, possibly advertise again. The per-key op order is
	// canonical; the shuffle below scatters the positions and the fix-up
	// pass replays each key's ops in canonical order at those positions.
	advSeq := make(map[advLife][]int) // key -> op kinds in issue order
	for _, s := range eqStreams {
		seen := map[topology.NodeID]bool{}
		for i := 0; i < 1+r.IntN(2); i++ {
			n := topology.NodeID(r.IntN(nodes))
			if seen[n] {
				continue
			}
			seen[n] = true
			key := advLife{node: n, strm: s}
			life := []int{eqAdvertise}
			if r.IntN(3) == 0 {
				life = append(life, eqUnadvertise)
				if r.IntN(2) == 0 {
					life = append(life, eqAdvertise)
				}
			}
			advSeq[key] = life
			for _, kind := range life {
				ops = append(ops, eqOp{kind: kind, node: n, strm: s})
			}
		}
	}
	for i := 0; i < 10+r.IntN(20); i++ {
		node := topology.NodeID(r.IntN(nodes))
		sub := eqRandomSub(r, i)
		ops = append(ops, eqOp{kind: eqSubscribe, node: node, sub: sub})
		// Roughly a third of the subscriptions churn away again.
		if r.IntN(3) == 0 {
			ops = append(ops, eqOp{kind: eqUnsubscribe, node: node, sub: sub})
		}
	}
	// A couple of unsubscribes for IDs nobody ever subscribed.
	for i := 0; i < 2; i++ {
		ops = append(ops, eqOp{kind: eqUnsubscribe, node: topology.NodeID(r.IntN(nodes)),
			sub: &Subscription{ID: fmt.Sprintf("ghost%d", i)}})
	}
	for i := 0; i < 40+r.IntN(40); i++ {
		ops = append(ops, eqOp{kind: eqPublish, node: topology.NodeID(r.IntN(nodes)), tup: eqRandomTuple(r)})
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	// Keep each real unsubscribe after its subscribe so the withdrawal
	// actually exercises retraction (an early unsubscribe is just a
	// no-op, already covered by the ghost IDs above).
	pos := make(map[string]int)
	for i, o := range ops {
		if o.kind == eqSubscribe {
			pos[o.sub.ID] = i
		}
	}
	for i, o := range ops {
		if o.kind == eqUnsubscribe {
			if j, ok := pos[o.sub.ID]; ok && j > i {
				ops[i], ops[j] = ops[j], ops[i]
				pos[o.sub.ID] = i
			}
		}
	}
	// Replay each advert lifecycle in canonical order at its shuffled
	// positions, so a withdrawal follows its advertisement and a
	// re-advertisement follows the withdrawal.
	advAt := make(map[advLife][]int)
	for i, o := range ops {
		if o.kind == eqAdvertise || o.kind == eqUnadvertise {
			key := advLife{node: o.node, strm: o.strm}
			advAt[key] = append(advAt[key], i)
		}
	}
	for key, idxs := range advAt {
		for j, i := range idxs {
			ops[i].kind = advSeq[key][j]
		}
	}
	return ops
}

func eqNetwork(t *testing.T, r *rand.Rand, nodes int) (*topology.Oracle, []topology.NodeID) {
	t.Helper()
	g := topology.NewGraph(nodes)
	ids := make([]topology.NodeID, nodes)
	for i := 0; i < nodes; i++ {
		ids[i] = topology.NodeID(i)
		for j := i + 1; j < nodes; j++ {
			if err := g.AddEdge(topology.NodeID(i), topology.NodeID(j), 1+10*r.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return topology.NewOracle(g), ids
}

func renderTuple(t stream.Tuple) string {
	keys := make([]string, 0, len(t.Attrs))
	for k := range t.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s sz=%d", t.Stream, t.Size)
	if t.Tag != "" {
		fmt.Fprintf(&b, " tag=%s", t.Tag)
	}
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, t.Attrs[k])
	}
	return b.String()
}

// eqOverlay is what a scenario drives: a production Network or the
// reference (refNetwork).
type eqOverlay interface {
	client(n topology.NodeID) (eqClient, bool)
}

// eqClient is the client surface of one broker.
type eqClient interface {
	Advertise(streamName string)
	Unadvertise(streamName string)
	Subscribe(sub *Subscription, h Handler) error
	Unsubscribe(id string)
	Publish(t stream.Tuple)
}

// client implements eqOverlay.
func (net *Network) client(n topology.NodeID) (eqClient, bool) {
	b, ok := net.Broker(n)
	return b, ok
}

// runEqScenario replays a scenario on a fresh overlay, appending every
// delivery to *log in order. Handlers keep appending to the same log after
// the scenario, so probe publishes made later are captured too.
func runEqScenario(t *testing.T, net eqOverlay, ops []eqOp, log *[]string) {
	t.Helper()
	for _, o := range ops {
		b, ok := net.client(o.node)
		if !ok {
			t.Fatalf("no broker at %d", o.node)
		}
		switch o.kind {
		case eqAdvertise:
			b.Advertise(o.strm)
		case eqUnadvertise:
			b.Unadvertise(o.strm)
		case eqSubscribe:
			node, sub := o.node, o.sub.Clone()
			if err := b.Subscribe(sub, func(s *Subscription, tp stream.Tuple) {
				*log = append(*log, fmt.Sprintf("%d/%s %s", node, s.ID, renderTuple(tp)))
			}); err != nil {
				t.Fatal(err)
			}
		case eqUnsubscribe:
			b.Unsubscribe(o.sub.ID)
		case eqPublish:
			b.Publish(o.tup)
		}
	}
}

// subsState renders every broker's recorded routing state (the per-direction
// subscription lists with their propagation records), so covering and
// lifecycle decisions are compared too.
func subsState(net *Network) string {
	var b strings.Builder
	for _, n := range net.Nodes() {
		br, _ := net.Broker(n)
		br.mu.Lock()
		for _, d := range br.idx.dirOrder {
			recs := br.idx.dirs[d].subs
			if len(recs) == 0 {
				continue
			}
			ids := make([]string, 0, len(recs))
			for _, c := range recs {
				ids = append(ids, c.sub.ID+"->"+renderSentTo(c.sentTo))
			}
			fmt.Fprintf(&b, "%d<-%d: %s\n", n, d, strings.Join(ids, ","))
		}
		br.mu.Unlock()
	}
	return b.String()
}

// linkTraffic returns the (data, control) bytes of every link that carried
// any.
func linkTraffic(net *Network) map[[2]topology.NodeID][2]int64 {
	net.mu.Lock()
	defer net.mu.Unlock()
	out := make(map[[2]topology.NodeID][2]int64)
	for link, lb := range net.bytes {
		if d, c := lb.data.Load(), lb.control.Load(); d != 0 || c != 0 {
			out[link] = [2]int64{d, c}
		}
	}
	return out
}

func renderSentTo(nodes []topology.NodeID) string {
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = fmt.Sprint(n)
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// TestMatchIndexEquivalence: over randomized overlays and churn workloads
// (interleaved advertise/subscribe/unsubscribe/unadvertise/publish in any
// order), the production network and the reference network built on its
// overlay produce identical delivery logs (sets, order, payloads), identical
// per-link data and control traffic, identical recorded routing state
// including propagation records, and identical traffic reports.
func TestMatchIndexEquivalence(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		r := rand.New(rand.NewPCG(seed, 2008))
		nodes := 4 + int(seed%4)
		oracle, ids := eqNetwork(t, r, nodes)
		ops := eqScenario(r, nodes)

		idx, err := NewNetwork(oracle, ids)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefNetwork(idx)

		var refLog, idxLog []string
		runEqScenario(t, ref, ops, &refLog)
		runEqScenario(t, idx, ops, &idxLog)

		if !reflect.DeepEqual(refLog, idxLog) {
			t.Fatalf("seed %d: delivery logs differ\nreference: %v\nbroker:    %v", seed, refLog, idxLog)
		}
		if a, b := ref.linkTraffic(), linkTraffic(idx); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: per-link data/control traffic differs\nreference: %v\nbroker:    %v", seed, a, b)
		}
		if a, b := ref.subsState(), subsState(idx); a != b {
			t.Fatalf("seed %d: routing state differs\nreference:\n%s\nbroker:\n%s", seed, a, b)
		}
		if a, b := ref.Traffic(), idx.Traffic(); a != b {
			t.Fatalf("seed %d: traffic reports differ: %+v vs %+v", seed, a, b)
		}
	}
}

// checkLifecycleInvariant asserts the propagation fixpoint on a quiescent
// network: every recorded subscription (local or per-direction) has, for
// every other neighbor that advertises one of its streams, either been sent
// that way or a covering subscription that was. This is the property that
// makes re-propagation and un-suppression complete — no interest is ever
// silently stranded, whatever the advertise/subscribe/unsubscribe order
// was.
func checkLifecycleInvariant(t *testing.T, net *Network, seed uint64) {
	t.Helper()
	for _, n := range net.Nodes() {
		br, _ := net.Broker(n)
		br.mu.Lock()
		check := func(c *compiledSub, srcDir topology.NodeID) {
			for _, nb := range br.neighbors {
				if nb == srcDir || c.sentTo.has(nb) {
					continue
				}
				if !br.advertisesAny(nb, c.sub.Streams) {
					continue
				}
				if br.coverFor(nb, c.sub, foldSelections(nil, c.sub.Filters)) != nil {
					continue
				}
				t.Errorf("seed %d: broker %d: %s neither sent toward %d nor covered",
					seed, n, c.sub, nb)
			}
		}
		for _, c := range br.idx.locals.subs {
			check(c, -1)
		}
		for _, d := range br.idx.dirOrder {
			for _, c := range br.idx.dirs[d].subs {
				check(c, d)
			}
		}
		br.mu.Unlock()
	}
}

// recordState captures each broker's per-direction records as ID →
// subscription maps, keyed "broker<-direction".
func recordState(net *Network) map[string]map[string]*Subscription {
	out := make(map[string]map[string]*Subscription)
	for _, n := range net.Nodes() {
		br, _ := net.Broker(n)
		br.mu.Lock()
		for _, d := range br.idx.dirOrder {
			recs := br.idx.dirs[d].subs
			if len(recs) == 0 {
				continue
			}
			key := fmt.Sprintf("%d<-%d", n, d)
			m := make(map[string]*Subscription, len(recs))
			for _, c := range recs {
				m[c.sub.ID] = c.sub
			}
			out[key] = m
		}
		br.mu.Unlock()
	}
	return out
}

// TestChurnReferenceEquivalence: for randomized interleavings of
// advertise/subscribe/publish/unsubscribe — including
// subscribe-before-advertise orderings the pre-lifecycle code routed
// incorrectly — the network that lived through the churn behaves exactly
// like a reference network rebuilt from scratch from the surviving state
// (all adverts first, then only the surviving subscriptions, in order):
// identical probe deliveries, identical per-link probe data traffic, and
// equivalent routing state (every reference record present, extras only
// redundant covered records that cannot change a forwarding decision).
// Finally, withdrawing the survivors drains every broker to empty.
func TestChurnReferenceEquivalence(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		r := rand.New(rand.NewPCG(seed, 777))
		nodes := 4 + int(seed%4)
		oracle, ids := eqNetwork(t, r, nodes)
		ops := eqScenario(r, nodes)

		churn, err := NewNetwork(oracle, ids)
		if err != nil {
			t.Fatal(err)
		}
		var churnLog []string
		runEqScenario(t, churn, ops, &churnLog)

		// Survivors: advertisements never withdrawn (per node+stream,
		// last lifecycle op wins) and subscriptions never withdrawn, in
		// scenario order — adverts first, as a from-scratch deployment
		// would issue them.
		alive := make(map[string]bool)
		aliveAdv := make(map[advLife]bool)
		var refOps []eqOp
		for _, o := range ops {
			switch o.kind {
			case eqAdvertise:
				aliveAdv[advLife{node: o.node, strm: o.strm}] = true
			case eqUnadvertise:
				delete(aliveAdv, advLife{node: o.node, strm: o.strm})
			case eqSubscribe:
				alive[o.sub.ID] = true
			case eqUnsubscribe:
				delete(alive, o.sub.ID)
			}
		}
		advDone := make(map[advLife]bool)
		for _, o := range ops {
			if o.kind != eqAdvertise {
				continue
			}
			key := advLife{node: o.node, strm: o.strm}
			if aliveAdv[key] && !advDone[key] {
				advDone[key] = true
				refOps = append(refOps, o)
			}
		}
		for _, o := range ops {
			if o.kind == eqSubscribe && alive[o.sub.ID] {
				refOps = append(refOps, o)
			}
		}
		ref, err := NewNetwork(oracle, ids)
		if err != nil {
			t.Fatal(err)
		}
		var refLog []string
		runEqScenario(t, ref, refOps, &refLog)

		checkLifecycleInvariant(t, churn, seed)

		// Routing state: per (broker, direction), the two record sets
		// must be coverage-equivalent — every record one network holds
		// is present in, or covered by a record of, the other's same
		// slot. (Exact ID sets can legitimately differ: covering
		// suppression is order-dependent, so e.g. two mutually covering
		// subscriptions may be recorded one-or-the-other depending on
		// arrival order.) Coverage-equivalence implies identical
		// forwarding decisions and projection unions, which the probe
		// checks below verify empirically.
		churnState, refState := recordState(churn), recordState(ref)
		coveredBy := func(sub *Subscription, recs map[string]*Subscription) bool {
			if _, ok := recs[sub.ID]; ok {
				return true
			}
			for _, other := range recs {
				if refCovers(other, sub) {
					return true
				}
			}
			return false
		}
		for key, refRecs := range refState {
			got := churnState[key]
			for id, sub := range refRecs {
				if !coveredBy(sub, got) {
					t.Errorf("seed %d: %s: reference record %s stranded (neither present nor covered after churn)",
						seed, key, id)
				}
			}
		}
		for key, recs := range churnState {
			refRecs := refState[key]
			for id, sub := range recs {
				if !coveredBy(sub, refRecs) {
					t.Errorf("seed %d: %s: stale record %s survived churn (not justified by reference state)",
						seed, key, id)
				}
			}
		}

		// Probe publishes: identical deliveries and identical per-link
		// data traffic on both networks.
		var probes []eqOp
		for i := 0; i < 30; i++ {
			probes = append(probes, eqOp{kind: eqPublish, node: topology.NodeID(r.IntN(nodes)), tup: eqRandomTuple(r)})
		}
		churn.ResetTraffic()
		ref.ResetTraffic()
		mark := len(churnLog)
		refMark := len(refLog)
		runEqScenario(t, churn, probes, &churnLog)
		runEqScenario(t, ref, probes, &refLog)
		if !slices.Equal(churnLog[mark:], refLog[refMark:]) { // a log nothing was delivered to is nil
			t.Fatalf("seed %d: probe deliveries differ\nchurned:   %v\nreference: %v",
				seed, churnLog[mark:], refLog[refMark:])
		}
		if a, b := linkTraffic(churn), linkTraffic(ref); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: per-link probe traffic differs\nchurned:   %v\nreference: %v", seed, a, b)
		}

		// Withdrawing every surviving subscription and advertisement
		// drains all routing AND advert state — the full teardown
		// invariant.
		for _, o := range refOps {
			if o.kind == eqSubscribe {
				b, _ := churn.Broker(o.node)
				b.Unsubscribe(o.sub.ID)
			}
		}
		assertDrained(t, churn)
		for _, o := range refOps {
			if o.kind == eqAdvertise {
				b, _ := churn.Broker(o.node)
				b.Unadvertise(o.strm)
			}
		}
		assertAdvertsDrained(t, churn)
	}
}

// TestCompiledSubMatchesLinear: the compiled per-subscription matcher agrees
// with Subscription.Matches on every tuple whose stream the subscription
// lists (the posting-list precondition).
func TestCompiledSubMatchesLinear(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		r := rand.New(rand.NewPCG(seed, 31))
		s := eqRandomSub(r, int(seed))
		c := compileSub(s, nil)
		for trial := 0; trial < 30; trial++ {
			tp := eqRandomTuple(r)
			if !s.hasStream(tp.Stream) {
				continue
			}
			if got, want := c.matches(&tp), s.Matches(tp); got != want {
				t.Fatalf("seed %d: compiled=%v linear=%v for %s on %s",
					seed, got, want, s, renderTuple(tp))
			}
		}
	}
	// Tuple.Get answers "timestamp" from the header even when Attrs carries
	// the name, so a string equality on it must not be folded into strEq.
	lit := stream.StringVal("x")
	s := &Subscription{ID: "ts", Streams: []string{"R"}, Filters: []query.Predicate{{
		Left: query.Operand{Col: &query.ColRef{Attr: "timestamp"}}, Op: query.Eq, Right: query.Operand{Lit: &lit},
	}}}
	tp := stream.Tuple{Stream: "R", Attrs: map[string]stream.Value{"timestamp": lit}}
	if got, want := compileSub(s, nil).matches(&tp), s.Matches(tp); got != want {
		t.Errorf("compiled=%v linear=%v for %s on %s", got, want, s, renderTuple(tp))
	}
}

// TestTrafficReportDeterminism: replaying the same workload on a fresh
// multi-broker overlay yields a bit-identical TrafficReport and delivery
// log. (Traffic sums per-link volumes in sorted order — map-iteration-order
// summation used to make WeightedCost drift across identical runs.)
func TestTrafficReportDeterminism(t *testing.T) {
	const nodes = 6
	run := func() (TrafficReport, []string) {
		r := rand.New(rand.NewPCG(7, 2008))
		oracle, ids := eqNetwork(t, r, nodes)
		ops := eqScenario(r, nodes)
		net, err := NewNetwork(oracle, ids)
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		runEqScenario(t, net, ops, &log)
		return net.Traffic(), log
	}
	rep1, log1 := run()
	for i := 0; i < 5; i++ {
		rep2, log2 := run()
		if rep1 != rep2 {
			t.Fatalf("traffic report not deterministic: %+v vs %+v", rep1, rep2)
		}
		if !reflect.DeepEqual(log1, log2) {
			t.Fatalf("delivery log not deterministic")
		}
	}
}

package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/transport"
)

// wireBench is the harness shared by the three workloads that run over real
// transport.Nodes on loopback TCP: an overlay, one publishing broker, a
// seeded pool of tuple templates, the subscriptions under test with their
// delivery oracles, and the open-loop and saturation generators.
//
// Every published tuple carries its sequence number in Tuple.Timestamp (it
// survives projection); its due time lives in the phase's table under that
// number. Sequence numbers rise per publisher, so per-subscription FIFO is
// "timestamps strictly increase".
type wireBench struct {
	ctx   *runCtx
	nodes []*transport.Node
	src   *pubsub.Broker
	pool  []stream.Tuple
	subs  []*subState
	recs  []*nodeRec // one per node; only nodes holding subscriptions fill it
	sinks []*nodeRec // the recs that receive deliveries
	// perTpl[i] is how many subscriptions template i matches: the expected
	// deliveries of one publish of it.
	perTpl  []int64
	poolSum int64

	phase atomic.Pointer[phase]
	seq   int64 // next sequence number; owned by the data generator

	// loadOnly marks a fixed-rate phase as background load for something
	// else being measured: its latency is not reported, so the generator
	// self-check does not apply.
	loadOnly bool

	enq enqueueTimer
}

// subState is one subscription under test and its oracle state, guarded by
// its node's recorder lock.
type subState struct {
	sub  *pubsub.Subscription
	node int
	rec  *nodeRec
	// tpls lists the pool templates the subscription matches
	// (Subscription.Matches over the generated tuples).
	tpls []int32

	count   int64
	last    int64
	fifoBad int64
	projBad int64
}

// nodeRec collects what one subscriber node's handlers observe.
type nodeRec struct {
	mu        sync.Mutex
	lat       [][]int64 // per measured segment of the current phase, ns
	delivered atomic.Int64
	maxSeq    atomic.Int64
}

// phase is one fixed-rate span of sequence numbers with its due times.
type phase struct {
	start, end int64
	due        []atomic.Int64
	segStart   []int64  // first sequence number of each segment, then the end
	hops       []string // span name of each hop between publisher and subscriber
	st         *stamps  // traced phases only
}

func (p *phase) segOf(seq int64) int {
	if seq < p.segStart[0] {
		return -1 // warm-up
	}
	for k := 1; k < len(p.segStart); k++ {
		if seq < p.segStart[k] {
			return k - 1
		}
	}
	return -1
}

// traceEvery is the sampling stride of the traced run: one tuple in 16
// carries stamps, so the stamp arrays stay small and the unsampled path pays
// one comparison.
const traceEvery = 16

// stamps holds, per sampled tuple of a traced phase, the times the
// benchmark observed it at each layer boundary.
type stamps struct {
	pubStart, pubEnd []atomic.Int64
	enqStart, enqNs  []atomic.Int64
	arrive           [][]atomic.Int64 // [hop-1][i]: first arrival after that hop
	handlerEnd       []atomic.Int64   // last handler return at the final hop
}

func newStamps(n int64, hops int) *stamps {
	m := int(n/traceEvery) + 1
	st := &stamps{
		pubStart: make([]atomic.Int64, m), pubEnd: make([]atomic.Int64, m),
		enqStart: make([]atomic.Int64, m), enqNs: make([]atomic.Int64, m),
		handlerEnd: make([]atomic.Int64, m),
	}
	for h := 0; h < hops; h++ {
		st.arrive = append(st.arrive, make([]atomic.Int64, m))
	}
	return st
}

// slot returns the stamp index of a sampled tuple, or -1.
func (p *phase) slot(seq int64) int {
	if p == nil || p.st == nil || seq < p.start || seq >= p.end || (seq-p.start)%traceEvery != 0 {
		return -1
	}
	return int((seq - p.start) / traceEvery)
}

func storeFirst(a *atomic.Int64, v int64) { a.CompareAndSwap(0, v) }

func storeMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// ---- overlay construction ----

// newOverlay starts n nodes with default transport.Options and connects the
// given undirected edges both ways.
func newOverlay(n int, edges [][2]int) ([]*transport.Node, error) {
	nodes := make([]*transport.Node, n)
	for i := range nodes {
		nd, err := transport.NewNode(topology.NodeID(i), "127.0.0.1:0")
		if err != nil {
			closeNodes(nodes)
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		nodes[i] = nd
	}
	for _, e := range edges {
		nodes[e[0]].Connect(topology.NodeID(e[1]), nodes[e[1]].Addr())
		nodes[e[1]].Connect(topology.NodeID(e[0]), nodes[e[0]].Addr())
	}
	return nodes, nil
}

func lineEdges(n int) [][2]int {
	var e [][2]int
	for i := 0; i+1 < n; i++ {
		e = append(e, [2]int{i, i + 1})
	}
	return e
}

func starEdges(leaves int) [][2]int {
	var e [][2]int
	for i := 1; i <= leaves; i++ {
		e = append(e, [2]int{0, i})
	}
	return e
}

func closeNodes(nodes []*transport.Node) {
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if err := n.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cosmos-bench: close node %d: %v\n", n.ID, err)
		}
	}
}

func remoteRecords(b *pubsub.Broker) int {
	r, _ := b.RoutingStateSize()
	return r
}

// ---- subscriptions and their oracle ----

func newWireBench(ctx *runCtx, nodes []*transport.Node, src int, pool []stream.Tuple) *wireBench {
	w := &wireBench{ctx: ctx, nodes: nodes, src: nodes[src].Broker, pool: pool}
	w.recs = make([]*nodeRec, len(nodes))
	for i := range w.recs {
		w.recs[i] = &nodeRec{}
		w.recs[i].maxSeq.Store(-1)
	}
	w.perTpl = make([]int64, len(pool))
	w.enq.w = w
	return w
}

// subInput is one generated subscription, the node it lives at, and the
// pool templates it matches — Subscription.Matches over the generated
// tuples, worked out once, outside any timed set-up.
type subInput struct {
	node int
	sub  *pubsub.Subscription
	tpls []int32
}

// matchTemplates fills in every input's tpls. Matches only runs against the
// templates of the subscription's own streams; it is false elsewhere.
func matchTemplates(ins []subInput, pool []stream.Tuple) {
	byStream := make(map[string][]int32)
	for i, t := range pool {
		byStream[t.Stream] = append(byStream[t.Stream], int32(i))
	}
	for k := range ins {
		in := &ins[k]
		for _, s := range in.sub.Streams {
			for _, ti := range byStream[s] {
				if in.sub.Matches(pool[ti]) {
					in.tpls = append(in.tpls, ti)
				}
			}
		}
	}
}

// subscribe registers one subscription under test with the overlay. The
// broker stamps the subscription it is given, so each overlay gets a clone.
func (w *wireBench) subscribe(in subInput) error {
	ss := &subState{sub: in.sub.Clone(), node: in.node, rec: w.recs[in.node], tpls: in.tpls, last: -1}
	for _, ti := range in.tpls {
		w.perTpl[ti]++
	}
	w.poolSum += int64(len(in.tpls))
	w.subs = append(w.subs, ss)
	return w.nodes[in.node].Broker.Subscribe(ss.sub, w.handler(ss))
}

// markSinks fixes the set of nodes whose progress paces the saturation
// publisher; call once after the last subscribe.
func (w *wireBench) markSinks() {
	seen := make(map[int]bool)
	for _, ss := range w.subs {
		if len(ss.tpls) > 0 && !seen[ss.node] {
			seen[ss.node] = true
			w.sinks = append(w.sinks, ss.rec)
		}
	}
}

// handler is the subscriber side of every subscription under test: the
// delivery-count, FIFO and projection oracles, and the latency sample.
func (w *wireBench) handler(ss *subState) pubsub.Handler {
	keep := -1
	if ss.sub.Attrs != nil {
		keep = len(ss.sub.Attrs)
	}
	rec := ss.rec
	return func(_ *pubsub.Subscription, t stream.Tuple) {
		seq := t.Timestamp
		ph := w.phase.Load()
		var now int64
		if ph != nil {
			now = nowNs()
		}
		rec.mu.Lock()
		ss.count++
		if seq <= ss.last {
			ss.fifoBad++
		}
		ss.last = seq
		if keep >= 0 && len(t.Attrs) != keep {
			ss.projBad++
		}
		if ph != nil && seq >= ph.start && seq < ph.end {
			if k := ph.segOf(seq); k >= 0 {
				rec.lat[k] = append(rec.lat[k], now-ph.due[seq-ph.start].Load())
			}
		}
		rec.mu.Unlock()
		rec.delivered.Add(1)
		storeMax(&rec.maxSeq, seq)
		if i := ph.slot(seq); i >= 0 {
			storeFirst(&ph.st.arrive[len(ph.hops)-1][i], now)
			storeMax(&ph.st.handlerEnd[i], nowNs())
		}
	}
}

// expectRange is how many deliveries publishing sequence numbers [a, b)
// must cause, from the per-template match counts.
func (w *wireBench) expectRange(a, b int64) int64 {
	n := int64(len(w.pool))
	upTo := func(x int64) int64 {
		total := (x / n) * w.poolSum
		for i := int64(0); i < x%n; i++ {
			total += w.perTpl[i]
		}
		return total
	}
	return upTo(b) - upTo(a)
}

func (w *wireBench) delivered() int64 {
	var d int64
	for _, r := range w.sinks {
		d += r.delivered.Load()
	}
	return d
}

// lag is how far the slowest subscriber node trails the publisher, in
// tuples.
func (w *wireBench) lag() int64 {
	min := w.seq
	for _, r := range w.sinks {
		if m := r.maxSeq.Load(); m < min {
			min = m
		}
	}
	return w.seq - 1 - min
}

// drain waits until every delivery due for sequence numbers below w.seq has
// arrived, and returns how many are missing if they do not.
func (w *wireBench) drain(timeout time.Duration) int64 {
	want := w.expectRange(0, w.seq)
	if waitFor(timeout, func() bool { return w.delivered() >= want }) {
		return 0
	}
	return want - w.delivered()
}

// checkOracle compares every subscription's delivery count with
// Subscription.Matches over the tuples generated, and its order and
// projection with the contract; mismatches fail the run.
func (w *wireBench) checkOracle() {
	n := int64(len(w.pool))
	uses := func(ti int32) int64 {
		u := w.seq / n
		if int64(ti) < w.seq%n {
			u++
		}
		return u
	}
	var bad, fifo, proj int
	for _, ss := range w.subs {
		var want int64
		for _, ti := range ss.tpls {
			want += uses(ti)
		}
		ss.rec.mu.Lock()
		got, f, p := ss.count, ss.fifoBad, ss.projBad
		ss.rec.mu.Unlock()
		if got != want {
			if bad < 3 {
				w.ctx.note("subscription %s at node %d: %d deliveries, reference says %d", ss.sub.ID, ss.node, got, want)
			}
			bad++
		}
		if f > 0 {
			fifo++
		}
		if p > 0 {
			proj++
		}
	}
	if bad > 0 {
		w.ctx.failf("%d of %d subscriptions disagree with Subscription.Matches over the generated tuples", bad, len(w.subs))
	}
	if fifo > 0 {
		w.ctx.failf("%d subscriptions saw deliveries out of per-publisher FIFO order", fifo)
	}
	if proj > 0 {
		w.ctx.failf("%d projecting subscriptions received attributes outside their projection", proj)
	}
	if d := metrics.Counters()["transport.dropped_data"]; d > 0 {
		w.ctx.failf("transport shed %d data tuples", d)
	}
}

// ---- generators ----

func (w *wireBench) publish(seq int64) {
	t := w.pool[seq%int64(len(w.pool))]
	t.Timestamp = seq
	w.src.Publish(t)
}

// olResult is what one open-loop phase measured.
type olResult struct {
	rate       int
	segP50ms   []float64
	latMs      []float64 // sorted, all measured segments
	tuples     int64     // published in the measured segments
	cpuUs      float64   // per measured tuple
	lateMs     []float64 // sorted generator lateness per tick
	pubCallUs  []float64 // traced phases: Broker.Publish call durations
	missing    int64
	deliveries int64
}

func (r olResult) p50ms() float64 { return metrics.Median(r.segP50ms) }

// segmentLen is the target length of one measured segment of a fixed-rate
// phase. A phase reports the median of its segments' medians, so a burst of
// hypervisor steal or a collection spoils a segment, not the figure.
const segmentLen = 500 * time.Millisecond

// openLoop publishes at a fixed rate on a 1 ms grid for dur: rate/1000
// tuples are due at each grid instant whatever the system does, the
// generator sleeps between instants, and latency counts from the due time,
// so a stall shows as latency on the tuples behind it. The first second (or
// fifth of a short phase) is warm-up; the rest is 3 to 15 segments.
func (w *wireBench) openLoop(rate int, dur time.Duration, hops []string, traced bool) olResult {
	perTick := int64(rate / 1000)
	ticks := int64(dur / time.Millisecond)
	warm := ticks / 5
	if warm > 1000 {
		warm = 1000
	}
	segs := (ticks - warm) / int64(segmentLen/time.Millisecond)
	if segs < 3 {
		segs = 3
	} else if segs > 15 {
		segs = 15
	}
	segTicks := (ticks - warm) / segs
	ticks = warm + segs*segTicks
	n := ticks * perTick

	ph := &phase{start: w.seq, end: w.seq + n, due: make([]atomic.Int64, n), hops: hops}
	for k := int64(0); k <= segs; k++ {
		ph.segStart = append(ph.segStart, w.seq+(warm+k*segTicks)*perTick)
	}
	if traced {
		ph.st = newStamps(n, len(hops))
	}
	perSeg := w.expectRange(ph.segStart[0], ph.segStart[1])
	for _, r := range w.sinks {
		r.mu.Lock()
		r.lat = make([][]int64, segs)
		for k := range r.lat {
			r.lat[k] = make([]int64, 0, perSeg/int64(len(w.sinks))+perSeg/8+64)
		}
		r.mu.Unlock()
	}
	w.phase.Store(ph)

	res := olResult{rate: rate, tuples: segs * segTicks * perTick}
	late := make([]int64, 0, ticks-warm)
	var pubCall []int64
	if traced {
		pubCall = make([]int64, 0, n)
	}
	var cpu0 int64
	var lags []float64 // backlog in tuples, sampled every 100 ms after warm-up
	t0 := nowNs() + int64(2*time.Millisecond)
	for tick := int64(0); tick < ticks; tick++ {
		due := t0 + tick*int64(time.Millisecond)
		sleepUntil(due)
		if tick == warm {
			cpu0 = cpuNs()
		}
		if tick >= warm {
			late = append(late, nowNs()-due)
			if (tick-warm)%100 == 0 {
				lags = append(lags, float64(w.lag()))
			}
		}
		for j := int64(0); j < perTick; j++ {
			seq := w.seq
			if seq%64 == 0 {
				w.holdBacklog()
			}
			ph.due[seq-ph.start].Store(due)
			if !traced {
				w.publish(seq)
			} else {
				a := nowNs()
				w.publish(seq)
				b := nowNs()
				pubCall = append(pubCall, b-a)
				if i := ph.slot(seq); i >= 0 {
					ph.st.pubStart[i].Store(a)
					ph.st.pubEnd[i].Store(b)
				}
			}
			w.seq++
		}
	}
	cpu1 := cpuNs()
	res.cpuUs = float64(cpu1-cpu0) / 1e3 / float64(res.tuples)
	res.missing = w.drain(5 * time.Second)
	w.phase.Store(nil)

	var all []int64
	for k := 0; k < int(segs); k++ {
		var seg []int64
		for _, r := range w.sinks {
			r.mu.Lock()
			seg = append(seg, r.lat[k]...)
			r.mu.Unlock()
		}
		res.segP50ms = append(res.segP50ms, metrics.Median(nsToFloat(seg, 1e6)))
		all = append(all, seg...)
	}
	res.latMs = nsToFloat(all, 1e6)
	sort.Float64s(res.latMs)
	res.deliveries = int64(len(all))
	res.lateMs = nsToFloat(late, 1e6)
	sort.Float64s(res.lateMs)
	res.pubCallUs = nsToFloat(pubCall, 1e3)

	// Generator self-check: a phase the generator ran late on, or whose
	// backlog grew, did not measure the system at the stated rate.
	if p99 := quantile(res.lateMs, 0.99); p99 > 2 && !w.loadOnly {
		w.ctx.invalidf("%d/s phase: generator lateness p99 %.2f ms exceeds 2 ms", rate, p99)
	}
	if q := len(lags) / 4; q > 0 && !w.loadOnly {
		first, last := metrics.Median(lags[:q]), metrics.Median(lags[len(lags)-q:])
		if last > 2*first+float64(rate)/100 {
			w.ctx.invalidf("%d/s phase: backlog grew from %.0f to %.0f tuples", rate, first, last)
		}
	}
	want := w.expectRange(ph.start, ph.end)
	w.ctx.ops(want, res.missing)
	if res.missing > 0 {
		w.ctx.note("%d/s phase: %d of %d deliveries missing after 5 s", rate, res.missing, want)
	}
	if traced {
		w.emitTupleSpans(ph, fmt.Sprintf("tuple@%d/s", rate))
	}
	return res
}

// maxBacklog caps the tuples in flight during a fixed-rate phase. After a
// stall (the hypervisor descheduling the whole process for 100 ms happens
// on the reference box) everything that fell due is published at once; past
// the transport's data queue depth (4096) that burst would be shed, and a
// shed tuple fails the run. Holding the burst here loses nothing the
// open loop is for: the held tuples keep their due times, so the stall
// still shows as latency, and the backlog check still flags the phase.
const maxBacklog = 2048

func (w *wireBench) holdBacklog() {
	for w.lag() >= maxBacklog {
		time.Sleep(50 * time.Microsecond)
	}
}

// saturationWindow bounds the tuples in flight in a saturation rep: below
// the transport's data queue depth (4096), so the pipeline stays full and
// nothing is shed. A publisher that finds the window full sleeps until it
// has drained to saturationResume, not just below the window: a sleep lasts
// at least one 1.1 ms timer tick, so resuming at the first free slot would
// admit 64 tuples per tick — a 40 000/s ceiling of the harness's own that a
// rep falls under or stays clear of as scheduling has it. Half a window per
// sleep keeps the publisher the faster side and the pipeline never dry.
const (
	saturationWindow = 2048
	saturationResume = saturationWindow / 2
)

// saturate publishes n tuples closed-loop with a bounded in-flight window
// and returns the tuples per second from first publish to last delivery.
func (w *wireBench) saturate(n int64) float64 {
	first := w.seq
	t0 := nowNs()
	for i := int64(0); i < n; i++ {
		if i%64 == 0 {
			if w.lag() >= saturationWindow {
				for w.lag() > saturationResume {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
		w.publish(w.seq)
		w.seq++
	}
	missing := w.drain(10 * time.Second)
	el := nowNs() - t0
	w.ctx.ops(w.expectRange(first, w.seq), missing)
	if missing > 0 {
		w.ctx.note("saturation rep: %d deliveries missing after 10 s", missing)
	}
	return float64(n) / (float64(el) / 1e9)
}

// saturateFor runs saturation reps of n tuples until budget is spent (at
// least four), discards the first as warm-up, and returns the rest.
func (w *wireBench) saturateFor(budget time.Duration, n int64) []float64 {
	var reps []float64
	end := nowNs() + int64(budget)
	for len(reps) < 4 || nowNs() < end {
		reps = append(reps, w.saturate(n))
	}
	return reps[1:]
}

// overlayRounds is how many fresh overlays an untraced chain_relay or
// star_match run measures on. Per-tuple CPU and saturation throughput stick
// to an overlay — one set of connections and goroutines agrees with itself
// far better than with the next — so the run's figures are taken across
// several.
const overlayRounds = 5

// measureOverlays is the untraced run of chain_relay and star_match: rounds
// of a fixed-rate phase and saturation reps of repTuples, the first on *w
// and each further one on a fresh overlay from setup (which *w then holds),
// pooled into the end-to-end metrics — every segment median for the latency,
// every rep for the throughput, every set-up for setup_s.
func measureOverlays(ctx *runCtx, w **wireBench, setup func() (*wireBench, error), setupS []float64, rate int, hops []string, repTuples int64) error {
	var p50s, reps []float64
	var deliveries int64
	const share = 1.0 / overlayRounds
	for round := 0; round < overlayRounds; round++ {
		if round > 0 {
			closeBench(*w)
			t0 := nowNs()
			fresh, err := setup()
			if err != nil {
				return err
			}
			*w = fresh
			setupS = append(setupS, float64(nowNs()-t0)/1e9)
		}
		load := (*w).openLoop(rate, ctx.dur(0.4*share), hops, false)
		reps = append(reps, (*w).saturateFor(ctx.dur(0.6*share), repTuples)...)
		(*w).checkOracle()
		p50s = append(p50s, load.segP50ms...)
		deliveries += load.deliveries
	}
	ctx.set("setup_s", metrics.Median(setupS), len(setupS))
	ctx.set("latency_p50_ms", metrics.Median(p50s), int(deliveries))
	ctx.set("throughput_per_s", metrics.Median(reps), len(reps))
	return nil
}

// ---- traced-run instrumentation ----

// enqueueTimer is the pubsub.PeerWrapper the traced run installs on the
// publishing node: it times Peer.RouteFrom — to-wire conversion plus
// enqueue on the peer's send pipeline — from outside the transport.
type enqueueTimer struct {
	w  *wireBench
	mu sync.Mutex
	ns []int64
}

func (e *enqueueTimer) WrapPeer(_ topology.NodeID, p pubsub.Peer) pubsub.Peer {
	return timedPeer{Peer: p, e: e}
}

type timedPeer struct {
	pubsub.Peer
	e *enqueueTimer
}

func (p timedPeer) RouteFrom(t stream.Tuple, from topology.NodeID) {
	a := nowNs()
	p.Peer.RouteFrom(t, from)
	d := nowNs() - a
	p.e.mu.Lock()
	p.e.ns = append(p.e.ns, d)
	p.e.mu.Unlock()
	ph := p.e.w.phase.Load()
	if i := ph.slot(t.Timestamp); i >= 0 {
		storeFirst(&ph.st.enqStart[i], a)
		ph.st.enqNs[i].Add(d)
	}
}

// probe subscribes a match-everything subscription on the given streams at
// an intermediate node of a line; its handler stamps the first arrival of
// each sampled tuple after that hop. It waits until the node toward the
// publisher has recorded it.
func (w *wireBench) probe(node, hop int, streams []string) error {
	toward := w.nodes[node-1].Broker
	base := remoteRecords(toward)
	sub := &pubsub.Subscription{ID: fmt.Sprintf("probe@%d", node), Streams: streams}
	err := w.nodes[node].Broker.Subscribe(sub, func(_ *pubsub.Subscription, t stream.Tuple) {
		ph := w.phase.Load()
		if i := ph.slot(t.Timestamp); i >= 0 {
			storeFirst(&ph.st.arrive[hop-1][i], nowNs())
		}
	})
	if err != nil {
		return err
	}
	if !waitFor(5*time.Second, func() bool { return remoteRecords(toward) == base+1 }) {
		return fmt.Errorf("probe at node %d not routable within 5 s", node)
	}
	return nil
}

func (w *wireBench) unprobe(node int) {
	toward := w.nodes[node-1].Broker
	base := remoteRecords(toward)
	w.nodes[node].Broker.Unsubscribe(fmt.Sprintf("probe@%d", node))
	waitFor(5*time.Second, func() bool { return remoteRecords(toward) == base-1 })
}

// emitTupleSpans turns a traced phase's stamps into spans. The children of
// a tuple's root span tile it: generator lateness, the Publish call (with
// the enqueue call inside it), one span per hop, and the handlers at the
// last hop. Boundaries are clamped to be monotonic — on a fan-out the first
// leaf can see a tuple before Publish has returned — so the tiles sum to
// the root exactly.
func (w *wireBench) emitTupleSpans(ph *phase, root string) {
	st := ph.st
	for i := range st.pubStart {
		seq := ph.start + int64(i)*traceEvery
		if seq < ph.segStart[0] || seq >= ph.end {
			continue // warm-up
		}
		end := st.handlerEnd[i].Load()
		if end == 0 {
			continue // matched no subscription under test
		}
		bounds := []int64{ph.due[seq-ph.start].Load(), st.pubStart[i].Load(), st.pubEnd[i].Load()}
		complete := true
		for h := range st.arrive {
			a := st.arrive[h][i].Load()
			complete = complete && a != 0
			bounds = append(bounds, a)
		}
		if !complete {
			continue
		}
		bounds = append(bounds, end)
		for k := 1; k < len(bounds); k++ {
			if bounds[k] < bounds[k-1] {
				bounds[k] = bounds[k-1]
			}
		}
		tr := w.ctx.tr
		tr.add(span{Name: root, Root: root, Trace: seq, Start: bounds[0], End: bounds[len(bounds)-1]})
		tr.add(span{Name: "bench.gen_late", Parent: root, Root: root, Trace: seq, Start: bounds[0], End: bounds[1]})
		tr.add(span{Name: "pubsub.publish_call", Parent: root, Root: root, Trace: seq, Start: bounds[1], End: bounds[2]})
		if es, en := st.enqStart[i].Load(), st.enqNs[i].Load(); es != 0 {
			if en > bounds[2]-bounds[1] {
				en = bounds[2] - bounds[1]
			}
			tr.add(span{Name: "transport.enqueue_call", Parent: "pubsub.publish_call", Root: root, Trace: seq, Start: es, End: es + en})
		}
		for h := range st.arrive {
			tr.add(span{Name: ph.hops[h], Parent: root, Root: root, Trace: seq, Start: bounds[2+h], End: bounds[3+h]})
		}
		tr.add(span{Name: "handler", Parent: root, Root: root, Trace: seq, Start: bounds[len(bounds)-2], End: bounds[len(bounds)-1]})
	}
}

// ---- per-layer reporting shared by the wire workloads ----

// counterDelta snapshots the process-global counter registry.
type counterDelta map[string]int64

func countersNow() counterDelta { return counterDelta(metrics.Counters()) }

func (c counterDelta) since(name string) float64 {
	return float64(metrics.Counters()[name] - c[name])
}

func sentBytes(nodes []*transport.Node) (data, control float64) {
	for _, n := range nodes {
		d, c := n.SentBytes()
		data += d
		control += c
	}
	return data, control
}

// queueSampler reads the publishing node's send-queue lengths every 10 ms.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}
	lens []float64
}

func startQueueSampler(n *transport.Node) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-tick.C:
				for _, ps := range n.PipeStatus() {
					q.lens = append(q.lens, float64(ps.Queued))
				}
			}
		}
	}()
	return q
}

func (q *queueSampler) finish() []float64 {
	close(q.stop)
	<-q.done
	sort.Float64s(q.lens)
	return q.lens
}

// tracedPhase brackets the traced half of a fixed-rate phase: the enqueue
// timer and queue sampler on the publishing node, and the counter, byte and
// sequence baselines the per-tuple ratios are taken against.
type tracedPhase struct {
	w      *wireBench
	src    int
	c0     counterDelta
	data0  float64
	seq0   int64
	queues *queueSampler
}

func (w *wireBench) beginTraced(src int) *tracedPhase {
	d0, _ := sentBytes(w.nodes)
	tp := &tracedPhase{w: w, src: src, c0: countersNow(), data0: d0, seq0: w.seq}
	tp.queues = startQueueSampler(w.nodes[src])
	w.enq.ns = w.enq.ns[:0]
	w.nodes[src].SetPeerWrapper(&w.enq)
	return tp
}

// end stops the instrumentation and emits the per-layer metrics of the
// phase: counter deltas per published tuple, call timings, tails, generator
// lateness, tracing overhead against the untraced half, and the budget rows
// of the phase's root span.
func (tp *tracedPhase) end(untraced, traced olResult) {
	w, ctx := tp.w, tp.w.ctx
	w.nodes[tp.src].SetPeerWrapper(nil)
	queue := tp.queues.finish()
	w.enq.mu.Lock()
	enq := sortedCopy(nsToFloat(w.enq.ns, 1))
	w.enq.mu.Unlock()

	pub := float64(w.seq - tp.seq0)
	d1, _ := sentBytes(w.nodes)
	ctx.set("pubsub.publish_call_us", metrics.Median(traced.pubCallUs), len(traced.pubCallUs))
	ctx.set("pubsub.forwards_per_tuple", tp.c0.since("pubsub.forwarded_tuples")/pub, int(pub))
	ctx.set("pubsub.deliveries_per_tuple", tp.c0.since("pubsub.local_deliveries")/pub, int(pub))
	ctx.set("pubsub.routed_tuples", tp.c0.since("pubsub.routed_tuples"), 1)
	ctx.set("pubsub.local_deliveries", tp.c0.since("pubsub.local_deliveries"), 1)
	ctx.set("transport.enqueue_call_ns", quantile(enq, 0.5), len(enq))
	if b := tp.c0.since("transport.batches"); b > 0 {
		ctx.set("transport.avg_batch", tp.c0.since("transport.batch_size")/b, int(b))
	}
	ctx.set("transport.wire_msgs_per_tuple", tp.c0.since("transport.wire_msgs")/pub, int(pub))
	ctx.set("transport.queue_highwater", tp.c0.since("transport.queue_depth"), 1)
	ctx.set("transport.queue_len_p99", quantile(queue, 0.99), len(queue))
	ctx.set("transport.data_bytes_per_tuple", (d1-tp.data0)/pub, int(pub))

	ctx.set("bench.samples", float64(untraced.deliveries+traced.deliveries), 1)
	ctx.set("bench.cpu_us_per_op", untraced.cpuUs, int(untraced.tuples))
	ctx.set("bench.gen_late_p99_ms", quantile(traced.lateMs, 0.99), len(traced.lateMs))
	ctx.set("bench.gen_late_max_ms", quantile(traced.lateMs, 1), len(traced.lateMs))
	if u := untraced.p50ms(); u > 0 {
		ctx.set("bench.trace_overhead_pct", 100*(traced.p50ms()-u)/u, len(traced.segP50ms))
	}
	if v, ok := tailQuantile(untraced.latMs, 0.99); ok {
		ctx.set("tail.deliver_p99_ms", v, len(untraced.latMs))
	}
	if v, ok := tailQuantile(untraced.latMs, 0.999); ok {
		ctx.set("tail.deliver_p999_ms", v, len(untraced.latMs))
	}
	w.reportBudget(fmt.Sprintf("tuple@%d/s", traced.rate))
}

// reportBudget emits the budget rows of one root span as metrics and checks
// that the rows tile the root.
func (w *wireBench) reportBudget(root string) {
	ctx := w.ctx
	var rootUs, sum, hops float64
	var n int
	for _, r := range ctx.tr.budget() {
		if r.Root != root {
			continue
		}
		switch {
		case r.Name == root:
			rootUs, n = r.MeanUs, r.Count
			continue
		case r.Name == "bench.gen_late":
			ctx.set("budget.gen_late_us", r.MeanUs, r.Count)
		case r.Name == "pubsub.publish_call":
			ctx.set("budget.publish_self_us", r.MeanUs, r.Count)
		case r.Name == "transport.enqueue_call":
			ctx.set("budget.enqueue_us", r.MeanUs, r.Count)
		case r.Name == "handler":
			ctx.set("budget.handler_us", r.MeanUs, r.Count)
		default:
			hops += r.MeanUs * float64(r.Count)
		}
		sum += r.MeanUs * float64(r.Count)
	}
	if n == 0 {
		ctx.failf("traced phase %s recorded no complete tuple", root)
		return
	}
	ctx.set("budget.root_us", rootUs, n)
	ctx.set("budget.hops_us", hops/float64(n), n)
	ratio := sum / float64(n) / rootUs
	ctx.set("budget.sum_over_root", ratio, n)
	if ratio < 0.98 || ratio > 1.02 {
		ctx.failf("budget rows of %s sum to %.3f of the root span", root, ratio)
	}
}

// hopMs reports the mean of each hop span under one root as
// transport.hopN_ms.
func (w *wireBench) hopMs(root string) {
	for _, r := range w.ctx.tr.budget() {
		var h int
		if r.Root == root {
			if _, err := fmt.Sscanf(r.Name, "transport.hop%d", &h); err == nil && h >= 1 && h <= 3 {
				w.ctx.set(fmt.Sprintf("transport.hop%d_ms", h), r.MeanUs/1e3, r.Count)
			}
		}
	}
}

// reportControlBudget checks that the spans of a control operation tile its
// root and reports the mean control hop.
func (w *wireBench) reportControlBudget(root string) {
	var rootUs, sum, hopSum float64
	var n, hops int
	for _, r := range w.ctx.tr.budget() {
		if r.Root != root {
			continue
		}
		if r.Name == root {
			rootUs, n = r.MeanUs, r.Count
			continue
		}
		sum += r.MeanUs * float64(r.Count)
		if r.Name != "pubsub.subscribe_call" {
			hopSum += r.MeanUs
			hops++
		}
	}
	if n == 0 || hops == 0 {
		w.ctx.failf("traced run recorded no complete %s operation", root)
		return
	}
	w.ctx.set("transport.ctl_hop_ms", hopSum/float64(hops)/1e3, n)
	if ratio := sum / float64(n) / rootUs; ratio < 0.98 || ratio > 1.02 {
		w.ctx.failf("budget rows of %s sum to %.3f of the root span", root, ratio)
	}
}

func subsOf(ins []subInput) []*pubsub.Subscription {
	out := make([]*pubsub.Subscription, len(ins))
	for i, in := range ins {
		out[i] = in.sub
	}
	return out
}

// totalRecords sums the remote routing records every node holds.
func totalRecords(w *wireBench) int {
	var n int
	for _, nd := range w.nodes {
		n += remoteRecords(nd.Broker)
	}
	return n
}

// subscribeCallUs times Broker.Subscribe alone (the call, not the
// propagation) for 64 throwaway subscriptions that match no tuple, at the
// node holding the workload's subscriptions, and unsubscribes them again.
func subscribeCallUs(w *wireBench) float64 {
	at := w.nodes[w.subs[0].node].Broker
	base := remoteRecords(w.src)
	var us []float64
	for i := 0; i < 64; i++ {
		sub := &pubsub.Subscription{ID: fmt.Sprintf("call%d", i), Streams: w.subs[0].sub.Streams,
			Filters: []query.Predicate{pred("nomatch", query.Ge, float64(i)), pred("nomatch", query.Lt, float64(i)+0.5)}}
		t0 := nowNs()
		err := at.Subscribe(sub, func(*pubsub.Subscription, stream.Tuple) {})
		us = append(us, float64(nowNs()-t0)/1e3)
		if err != nil {
			w.ctx.failf("subscribe %s: %v", sub.ID, err)
		}
	}
	waitFor(5*time.Second, func() bool { return remoteRecords(w.src) == base+64 })
	for i := 0; i < 64; i++ {
		at.Unsubscribe(fmt.Sprintf("call%d", i))
	}
	if !waitFor(5*time.Second, func() bool { return remoteRecords(w.src) == base }) {
		w.ctx.failf("throwaway subscriptions did not drain: node 0 holds %d records, want %d", remoteRecords(w.src), base)
	}
	return metrics.Median(us)
}

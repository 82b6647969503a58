package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/transport"
)

const (
	// churnRounds is how many times the untraced run alternates its two
	// phases.
	churnRounds = 3
	churnBurst  = 256
	// churnSlot is the churn generator's grid in the cycle phase: one
	// subscribe→routable→unsubscribe→drained cycle is due every slot, so the
	// churn work per second of data is fixed and the CPU-per-tuple figure
	// compares across commits.
	churnSlot   = 50 * time.Millisecond
	churnOpWait = 5 * time.Second
)

// churnInputs draws the churn_mixed inputs: tuples on stream R with a
// uniform over [0, nPre/2), and nPre stable subscriptions for node 3 in
// pairs — a window [i, i+1.5) and, subscribed after it, a narrower
// [i+0.25, i+0.75) it covers — so the cover check runs on every preload and
// half of them are suppressed at node 3: node 0 ends up holding nPre/2
// records.
func churnInputs(seed uint64, nPre int) ([]stream.Tuple, []subInput) {
	rng := rand.New(rand.NewPCG(seed, 0xc4012))
	nWide := nPre / 2
	pool := make([]stream.Tuple, poolSize)
	for i := range pool {
		pool[i] = stream.Tuple{Stream: "R", Size: 24, Attrs: map[string]stream.Value{
			"a": stream.FloatVal(rng.Float64() * float64(nWide)),
			"b": stream.FloatVal(rng.Float64()),
		}}
	}
	var subs []subInput
	for i := 0; i < nWide; i++ {
		lo := float64(i)
		subs = append(subs,
			subInput{node: 3, sub: &pubsub.Subscription{ID: fmt.Sprintf("wide%d", i), Streams: []string{"R"},
				Filters: []query.Predicate{pred("a", query.Ge, lo), pred("a", query.Lt, lo+1.5)}}},
			subInput{node: 3, sub: &pubsub.Subscription{ID: fmt.Sprintf("narrow%d", i), Streams: []string{"R"},
				Filters: []query.Predicate{pred("a", query.Ge, lo+0.25), pred("a", query.Lt, lo+0.75)}}})
	}
	matchTemplates(subs, pool)
	return pool, subs
}

// churnSub is a short-lived subscription of the churn generator: on the
// same stream and index as the preload, matching no data tuple (deliveries
// stay a function of the preload alone) and covered by nothing.
func churnSub(k int) *pubsub.Subscription {
	lo := 1e6 + float64(k)
	return &pubsub.Subscription{ID: fmt.Sprintf("churn%d", k), Streams: []string{"R"},
		Filters: []query.Predicate{pred("a", query.Ge, lo), pred("a", query.Lt, lo+0.5)}}
}

// churner is the second generator: it churns subscriptions at node 3 while
// the first publishes data at node 0. It keeps its own tallies and hands
// them to the run context when the phase is over.
type churner struct {
	w    *wireBench
	at   *pubsub.Broker
	base []int // preload baseline of every node's remote records
	next int   // next churn subscription number

	routableMs, subCallUs, unsubCallUs []float64
	burstS                             []float64 // duration of every completed burst
	attempted, failed                  int64
	notes                              []string
}

func noopHandler(*pubsub.Subscription, stream.Tuple) {}

// settled waits until every node is back at its preload baseline plus extra
// records along the whole line.
func (c *churner) settled(extra int) bool {
	return waitFor(churnOpWait, func() bool {
		for i := 0; i < len(c.base)-1; i++ {
			if remoteRecords(c.w.nodes[i].Broker) != c.base[i]+extra {
				return false
			}
		}
		return true
	})
}

// cycle is one Subscribe → routable at node 0 → Unsubscribe → drained. With
// tracing on it also watches the nodes in between, so the control path
// splits into the call and one span per hop.
func (c *churner) cycle(traced bool) {
	c.attempted++
	id := c.next
	c.next++
	sub := churnSub(id)
	n := len(c.w.nodes)
	t0 := nowNs()
	err := c.at.Subscribe(sub, noopHandler)
	tCall := nowNs()
	if err != nil {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf("subscribe %s: %v", sub.ID, err))
		return
	}
	// seen[i]: when node i first held the record; the subscription travels
	// n-2, ..., 0.
	seen := make([]int64, n-1)
	ok := waitFor(churnOpWait, func() bool {
		first := 0
		if traced {
			first = n - 2
		}
		for i := first; i >= 0; i-- {
			if seen[i] == 0 && remoteRecords(c.w.nodes[i].Broker) == c.base[i]+1 {
				seen[i] = nowNs()
			}
		}
		return seen[0] != 0
	})
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf("%s not routable at node 0 within %s", sub.ID, churnOpWait))
	} else {
		c.routableMs = append(c.routableMs, float64(seen[0]-t0)/1e6)
		c.subCallUs = append(c.subCallUs, float64(tCall-t0)/1e3)
	}
	t1 := nowNs()
	c.at.Unsubscribe(sub.ID)
	c.unsubCallUs = append(c.unsubCallUs, float64(nowNs()-t1)/1e3)
	if !c.settled(0) {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf("%s not drained within %s", sub.ID, churnOpWait))
	}
	if traced && ok {
		const root = "subscribe"
		tr := c.w.ctx.tr
		tr.add(span{Name: root, Root: root, Trace: int64(id), Start: t0, End: seen[0]})
		tr.add(span{Name: "pubsub.subscribe_call", Parent: root, Root: root, Trace: int64(id), Start: t0, End: tCall})
		prev := tCall
		for i := n - 2; i >= 0; i-- {
			at := seen[i]
			if at < prev {
				at = prev // the poller saw a later node first
			}
			tr.add(span{Name: fmt.Sprintf("transport.ctl_hop%d", n-1-i), Parent: root, Root: root, Trace: int64(id), Start: prev, End: at})
			prev = at
		}
	}
}

// burst subscribes churnBurst subscriptions, waits until node 0 routes for
// all of them, unsubscribes them, and waits until every node is back at the
// preload baseline — the oracle of the churn path.
func (c *churner) burst() {
	c.attempted += churnBurst
	t0 := nowNs()
	first := c.next
	for i := 0; i < churnBurst; i++ {
		if err := c.at.Subscribe(churnSub(c.next), noopHandler); err != nil {
			c.failed++
			c.notes = append(c.notes, fmt.Sprintf("burst subscribe: %v", err))
		}
		c.next++
	}
	if !c.settled(churnBurst) {
		c.failed += churnBurst
		c.notes = append(c.notes, fmt.Sprintf("burst of %d not routable along the line within %s", churnBurst, churnOpWait))
	}
	for k := first; k < c.next; k++ {
		c.at.Unsubscribe(fmt.Sprintf("churn%d", k))
	}
	if !c.settled(0) {
		c.failed += churnBurst
		c.notes = append(c.notes, "nodes did not return to the preload baseline after a burst")
		return
	}
	c.burstS = append(c.burstS, float64(nowNs()-t0)/1e9)
}

// cyclesUntil issues one cycle per slot until the deadline.
func (c *churner) cyclesUntil(deadline int64, traced bool) {
	t0 := nowNs()
	for k := int64(0); ; k++ {
		due := t0 + k*int64(churnSlot)
		if due >= deadline {
			return
		}
		sleepUntil(due)
		c.cycle(traced)
	}
}

// burstsUntil runs bursts back to back until the deadline, at least three,
// and returns their pairs per second — all pairs over all the time, so a
// run that switches between a fast and a slow stretch reports the mix, not
// whichever stretch holds the median burst — and how many completed.
func (c *churner) burstsUntil(deadline int64) (pairsPerS float64, bursts int) {
	first := len(c.burstS)
	for n := 0; n < 3 || nowNs() < deadline; n++ {
		c.burst()
	}
	done := c.burstS[first:]
	if len(done) == 0 {
		return 0, 0
	}
	return churnBurst * float64(len(done)) / metrics.Sum(done), len(done)
}

func setupChurn(ctx *runCtx, pool []stream.Tuple, subs []subInput) (*wireBench, error) {
	return setupLine(ctx, 4, pool, subs, len(subs)/2)
}

// runChurnMixed: subscription and advertisement churn at one end of the
// chain_relay line while data flows from the other, over one pubsub index.
// Lock-free routing was bought by making every churn operation publish a
// new index epoch; this is the workload where either side can be seen
// paying for the other.
func runChurnMixed(ctx *runCtx) error {
	nPre := ctx.scaled(5000, 64)
	pool, subs := churnInputs(ctx.seed, nPre)
	w, setupS, err := repeatSetup(ctx, func() (*wireBench, error) { return setupChurn(ctx, pool, subs) }, closeBench)
	if err != nil {
		return err
	}
	defer closeBench(w)
	ctx.set("setup_s", metrics.Median(setupS), len(setupS))
	ctx.set("heap_mb", heapMB(), 1)

	c := &churner{w: w, at: w.nodes[3].Broker}
	flushAll(w.nodes)
	time.Sleep(10 * time.Millisecond)
	for _, nd := range w.nodes {
		c.base = append(c.base, remoteRecords(nd.Broker))
	}
	if c.base[0] != nPre/2 {
		return fmt.Errorf("node 0 holds %d records after preload, want %d (covered half suppressed)", c.base[0], nPre/2)
	}
	c0 := countersNow()
	// The preload's suppression ratio: the covered half must never have
	// left node 3. Counters are process-wide, so this is over the repeated
	// set-ups, which are identical.
	preSent, preSupp := float64(c0["pubsub.subscriptions_sent"]), float64(c0["pubsub.subscriptions_suppressed"])

	// Generator 1 publishes 5000/s; beside it generator 2 runs
	// one-at-a-time cycles on its grid. The data latency there is what
	// readers pay while writers are active, and the cycles give
	// subscribe→routable while readers are active.
	const rate = 5000
	hops := []string{"transport.path"}
	beside := func(share float64, traced bool, churn func(deadline int64)) olResult {
		var res olResult
		var wg sync.WaitGroup
		wg.Add(1)
		dur := ctx.dur(share)
		go func() {
			defer wg.Done()
			res = w.openLoop(rate, dur, hops, traced)
		}()
		// Churn starts after the data phase's warm-up and stops a little
		// before its end, so every operation overlaps data.
		time.Sleep(dur / 5)
		churn(nowNs() + int64(dur*7/10))
		wg.Wait()
		return res
	}
	// The untraced run alternates the two phases in rounds — cycles beside
	// data, then bursts with no data flowing — so that each figure is taken
	// from stretches spread over the whole run, not from one stretch of a
	// box whose speed drifts over seconds. Bursts run with no data flowing:
	// the control plane's own rate. Beside data a burst's time is set by how
	// many tuple batches fall between its operations (each makes a node
	// rebuild its prune index on the goroutine that also carries the
	// burst), which feeds back on itself and repeats within 20% at best;
	// the traced run reports that rate as a per-layer figure.
	var data olResult
	var dataP50 []float64
	var dataDeliveries int64
	var ctlBytes, ctlMsgs float64
	bursts := 0
	burstPhase := func(share float64) {
		flushAll(w.nodes)
		cb := countersNow()
		_, ctl0 := sentBytes(w.nodes)
		_, n := c.burstsUntil(nowNs() + int64(ctx.dur(share)))
		flushAll(w.nodes)
		_, ctl1 := sentBytes(w.nodes)
		ctlBytes += ctl1 - ctl0
		ctlMsgs += cb.since("transport.wire_msgs")
		bursts += n
	}
	if !ctx.trace {
		for round := 0; round < churnRounds; round++ {
			data = beside(0.5/churnRounds, false, func(d int64) { c.cyclesUntil(d, false) })
			dataP50 = append(dataP50, data.segP50ms...)
			dataDeliveries += data.deliveries
			burstPhase(0.25 / churnRounds)
		}
	} else {
		data = beside(0.25, false, func(d int64) { c.cyclesUntil(d, false) })
		tp := w.beginTraced(0)
		dataT := beside(0.25, true, func(d int64) { c.cyclesUntil(d, true) })
		tp.end(data, dataT)
		burstPhase(0.15)
	}
	var besidePerS float64
	var besideBursts int
	if ctx.trace {
		w.loadOnly = true
		beside(0.15, false, func(d int64) { besidePerS, besideBursts = c.burstsUntil(d) })
		w.loadOnly = false
	}

	// One withdraw/re-announce cycle costs seconds at this preload (prune
	// and replay of 2500 records over three hops), so the untraced run
	// makes one, for the oracle; the traced run makes two more for the
	// figure.
	cycles := 1
	if ctx.trace {
		cycles = 3
	}
	replayMs := advertCycles(ctx, w, c, cycles)
	ctx.ops(c.attempted, c.failed)
	for _, n := range c.notes {
		ctx.note("%s", n)
	}
	if len(c.routableMs) == 0 || bursts == 0 || len(c.burstS) == 0 {
		return fmt.Errorf("churn generator completed %d cycles and %d bursts; the run is too short", len(c.routableMs), bursts)
	}
	routable := sortedCopy(c.routableMs)
	if !ctx.trace {
		ctx.set("latency_p50_ms", metrics.Median(dataP50), int(dataDeliveries))
		// Bursts come in two modes, ~190 ms and ~310 ms on the reference
		// box, and the share of slow ones moves from run to run (a tenth
		// to a half); a median flips between the modes as it does. The
		// first quartile stays in the fast one: the rate the control plane
		// reaches when nothing interferes.
		ctx.set("throughput_per_s", churnBurst/quantile(sortedCopy(c.burstS), 0.25), bursts*churnBurst)
	} else {
		ctx.set("pubsub.sub_routable_p50_ms", quantile(routable, 0.5), len(routable))
		ctx.set("pubsub.subscribe_call_us", metrics.Median(c.subCallUs), len(c.subCallUs))
		ctx.set("pubsub.unsubscribe_call_us", metrics.Median(c.unsubCallUs), len(c.unsubCallUs))
		ctx.set("pubsub.advert_replay_ms", metrics.Median(replayMs), len(replayMs))
		ctx.set("pubsub.suppression_ratio", preSupp/(preSent+preSupp), int(preSent+preSupp))
		ctx.set("pubsub.retractions_sent", c0.since("pubsub.retractions_sent"), 1)
		ctx.set("pubsub.routing_records", float64(totalRecords(w)), len(w.nodes))
		if v, ok := tailQuantile(routable, 0.99); ok {
			ctx.set("tail.sub_routable_p99_ms", v, len(routable))
		}
		w.reportControlBudget("subscribe")
		pairs := float64(bursts * churnBurst)
		ctx.set("transport.control_bytes_per_pair", ctlBytes/pairs, int(pairs))
		ctx.set("transport.control_msgs_per_pair", ctlMsgs/pairs, int(pairs))
		ctx.set("pubsub.pairs_beside_data_per_s", besidePerS, besideBursts*churnBurst)
		if err := microWire(ctx, pool); err != nil {
			return err
		}
		if err := microMatch(ctx, subsOf(subs), pool); err != nil {
			return err
		}
	}
	w.checkOracle()
	return teardownToZero(ctx, w, subs)
}

func flushAll(nodes []*transport.Node) {
	for _, nd := range nodes {
		nd.Flush()
	}
}

// advertCycles withdraws and re-announces the preloaded stream: each cycle
// waits until the withdrawal has pruned every record along the line, then
// times Advertise until node 0 again holds the whole preload (the replay
// burst). No data flows meanwhile — tuples published into a withdrawn
// stream are legitimately dropped, which the delivery oracle could not
// tell from loss.
func advertCycles(ctx *runCtx, w *wireBench, c *churner, cycles int) []float64 {
	var replay []float64
	for i := 0; i < cycles; i++ {
		w.src.Unadvertise("R")
		pruned := waitFor(churnOpWait, func() bool {
			for i := 0; i < len(w.nodes)-1; i++ {
				if remoteRecords(w.nodes[i].Broker) != 0 {
					return false
				}
			}
			return true
		})
		t0 := nowNs()
		w.src.Advertise("R")
		back := c.settled(0)
		ctx.ops(1, 0)
		if !pruned || !back {
			ctx.ops(0, 1)
			ctx.note("advert cycle: pruned=%v replayed=%v within %s", pruned, back, churnOpWait)
			continue
		}
		replay = append(replay, float64(nowNs()-t0)/1e6)
	}
	return replay
}

// teardownToZero withdraws everything and checks the drain-to-empty
// invariant over real TCP: every node ends with no routing and no advert
// state.
func teardownToZero(ctx *runCtx, w *wireBench, subs []subInput) error {
	at := w.nodes[3].Broker
	for _, in := range subs {
		at.Unsubscribe(in.sub.ID)
	}
	w.src.Unadvertise("R")
	ok := waitFor(30*time.Second, func() bool {
		for _, nd := range w.nodes {
			r, l := nd.Broker.RoutingStateSize()
			own, learned := nd.Broker.AdvertStateSize()
			if r+l+own+learned != 0 {
				return false
			}
		}
		return true
	})
	ctx.ops(1, 0)
	if !ok {
		ctx.ops(0, 1)
		for _, nd := range w.nodes {
			r, l := nd.Broker.RoutingStateSize()
			own, learned := nd.Broker.AdvertStateSize()
			ctx.note("teardown: node %d still holds %d remote, %d local records, %d own, %d learned adverts", nd.ID, r, l, own, learned)
		}
	}
	return nil
}

package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/metrics"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
)

// poolSize is how many distinct tuple templates a wire workload cycles
// through: enough that matching sees varied values, small enough that the
// delivery reference is a table lookup.
const poolSize = 4096

// chainInputs draws the chain_relay inputs: 2-float-attribute tuples of
// Size 24 on stream R, and 4 subscriptions for node 3 — a < s, a >= s,
// b < t, b >= t for seeded split points s and t. None covers another, so
// all four propagate the whole line, and every tuple matches exactly two of
// them: the share of tuples relayed, which decides how batches fill at each
// hop, does not depend on the seed.
func chainInputs(seed uint64) ([]stream.Tuple, []subInput) {
	rng := rand.New(rand.NewPCG(seed, 0xc4a1))
	pool := make([]stream.Tuple, poolSize)
	for i := range pool {
		pool[i] = stream.Tuple{Stream: "R", Size: 24, Attrs: map[string]stream.Value{
			"a": stream.FloatVal(rng.Float64()),
			"b": stream.FloatVal(rng.Float64()),
		}}
	}
	s, t := 0.3+0.4*rng.Float64(), 0.3+0.4*rng.Float64()
	filters := []query.Predicate{pred("a", query.Lt, s), pred("a", query.Ge, s), pred("b", query.Lt, t), pred("b", query.Ge, t)}
	subs := make([]subInput, len(filters))
	for i, f := range filters {
		subs[i] = subInput{node: 3, sub: &pubsub.Subscription{
			ID: fmt.Sprintf("s%d", i), Streams: []string{"R"}, Filters: []query.Predicate{f},
		}}
	}
	matchTemplates(subs, pool)
	return pool, subs
}

// setupLine builds an n-node line with stream R advertised at node 0 and
// the subscriptions registered, and returns once node 0 routes for all of
// them: records is how many records node 0 must hold.
func setupLine(ctx *runCtx, n int, pool []stream.Tuple, subs []subInput, records int) (*wireBench, error) {
	nodes, err := newOverlay(n, lineEdges(n))
	if err != nil {
		return nil, err
	}
	w := newWireBench(ctx, nodes, 0, pool)
	w.src.Advertise("R")
	for _, in := range subs {
		if err := w.subscribe(in); err != nil {
			closeNodes(nodes)
			return nil, fmt.Errorf("subscribe %s: %w", in.sub.ID, err)
		}
	}
	w.markSinks()
	if !waitFor(30*time.Second, func() bool { return remoteRecords(w.src) == records }) {
		closeNodes(nodes)
		return nil, fmt.Errorf("node 0 holds %d of %d records after 30 s", remoteRecords(w.src), records)
	}
	return w, nil
}

func closeBench(w *wireBench) { closeNodes(w.nodes) }

// runChainRelay: a 4-node line relays tuples three TCP hops to 4
// subscriptions. Transport does almost all the work. 2000/s sits below the
// batch-fill knee (64 tuples per flush window, which a 1.1 ms timer tick
// stretches to 58000/s on the reference box) and 80000/s above it, so a
// flush-policy change and a per-tuple CPU change move different metrics.
func runChainRelay(ctx *runCtx) error {
	pool, subs := chainInputs(ctx.seed)
	setup := func() (*wireBench, error) { return setupLine(ctx, 4, pool, subs, len(subs)) }
	w, setupS, err := repeatSetup(ctx, setup, closeBench)
	if err != nil {
		return err
	}
	defer func() { closeBench(w) }()
	ctx.set("heap_mb", heapMB(), 1)

	const idleRate, loadRate = 2000, 80000
	hops := []string{"transport.hop1", "transport.hop2", "transport.hop3"}
	if !ctx.trace {
		return measureOverlays(ctx, &w, setup, setupS, loadRate, hops, int64(5000*ctx.seconds))
	}

	ctx.set("setup_s", metrics.Median(setupS), len(setupS))
	// Traced run: each fixed-rate phase runs half untraced, half with the
	// probes and the enqueue timer in place; the difference between the
	// halves is the tracing overhead.
	idleU := w.openLoop(idleRate, ctx.dur(0.2), hops, false)
	loadU := w.openLoop(loadRate, ctx.dur(0.25), hops, false)
	for node := 1; node <= 2; node++ {
		if err := w.probe(node, node, []string{"R"}); err != nil {
			return err
		}
	}
	tp := w.beginTraced(0)
	idleT := w.openLoop(idleRate, ctx.dur(0.2), hops, true)
	tp.end(idleU, idleT)
	ctx.set("transport.deliver_idle_p50_ms", idleU.p50ms(), int(idleU.deliveries))
	w.hopMs(fmt.Sprintf("tuple@%d/s", idleRate))
	tp = w.beginTraced(0)
	loadT := w.openLoop(loadRate, ctx.dur(0.25), hops, true)
	tp.end(loadU, loadT)
	w.unprobe(2)
	w.unprobe(1)
	w.checkOracle()

	ctx.set("pubsub.routing_records", float64(totalRecords(w)), len(w.nodes))
	ctx.set("pubsub.subscribe_call_us", subscribeCallUs(w), 64)
	if err := microWire(ctx, pool); err != nil {
		return err
	}
	return microMatch(ctx, subsOf(subs), pool)
}

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

const (
	starLeaves  = 4
	starStreams = 16
	starWidth   = 4 // subscriptions are half-open windows [k, k+4) on x
)

func starStream(i int) string { return fmt.Sprintf("S%d", i) }

// starInputs draws the star_match inputs: nSubs half-open window
// subscriptions [k, k+4) on attribute x over 16 streams, spread round-robin
// over the 4 leaves, every second one projecting to (x, tag); and 4-attribute
// tuples (one string) whose integer x is uniform over a domain sized so each
// tuple matches about 4 subscriptions, on up to 4 leaves. Windows at one
// (leaf, stream) have distinct k, so none covers another and the hub ends up
// holding exactly nSubs records — the readiness test.
func starInputs(seed uint64, nSubs int) ([]stream.Tuple, []subInput) {
	rng := rand.New(rand.NewPCG(seed, 0x57a2))
	perCell := nSubs / (starLeaves * starStreams)
	domain := perCell * starLeaves // subs per stream * width / 4 matches per tuple
	if domain < perCell+starWidth {
		domain = perCell + starWidth
	}
	tags := []string{"alpha", "bravo", "charlie", "delta"}
	pool := make([]stream.Tuple, poolSize)
	for i := range pool {
		pool[i] = stream.Tuple{Stream: starStream(i % starStreams), Size: 48, Attrs: map[string]stream.Value{
			"x":   stream.FloatVal(float64(rng.IntN(domain))),
			"y":   stream.FloatVal(rng.Float64()),
			"z":   stream.FloatVal(rng.Float64() * 100),
			"tag": stream.StringVal(tags[rng.IntN(len(tags))]),
		}}
	}
	var subs []subInput
	for leaf := 1; leaf <= starLeaves; leaf++ {
		for s := 0; s < starStreams; s++ {
			ks := rng.Perm(domain)[:perCell]
			for j, k := range ks {
				sub := &pubsub.Subscription{
					ID:      fmt.Sprintf("w%d.%d.%d", leaf, s, j),
					Streams: []string{starStream(s)},
					Filters: []query.Predicate{pred("x", query.Ge, float64(k)), pred("x", query.Lt, float64(k+starWidth))},
				}
				if j%2 == 1 {
					sub.Attrs = []string{"x", "tag"}
				}
				subs = append(subs, subInput{node: leaf, sub: sub})
			}
		}
	}
	matchTemplates(subs, pool)
	return pool, subs
}

func setupStar(ctx *runCtx, pool []stream.Tuple, subs []subInput) (*wireBench, error) {
	nodes, err := newOverlay(1+starLeaves, starEdges(starLeaves))
	if err != nil {
		return nil, err
	}
	w := newWireBench(ctx, nodes, 0, pool)
	for s := 0; s < starStreams; s++ {
		w.src.Advertise(starStream(s))
	}
	for _, in := range subs {
		if err := w.subscribe(in); err != nil {
			closeNodes(nodes)
			return nil, fmt.Errorf("subscribe %s: %w", in.sub.ID, err)
		}
	}
	w.markSinks()
	if !waitFor(60*time.Second, func() bool { return remoteRecords(w.src) == len(subs) }) {
		closeNodes(nodes)
		return nil, fmt.Errorf("hub holds %d of %d records after 60 s", remoteRecords(w.src), len(subs))
	}
	return w, nil
}

// runStarMatch: a hub fans tuples out to 4 leaves holding 10000 window
// subscriptions. Matching, projection and one-to-many encode dominate and
// there is a single hop, so the flush window counts once; a relay-path gain
// that costs fan-out shows here and not on chain_relay.
func runStarMatch(ctx *runCtx) error {
	nSubs := ctx.scaled(10000, starLeaves*starStreams*4)
	pool, subs := starInputs(ctx.seed, nSubs)
	setup := func() (*wireBench, error) { return setupStar(ctx, pool, subs) }
	w, setupS, err := repeatSetup(ctx, setup, closeBench)
	if err != nil {
		return err
	}
	defer func() { closeBench(w) }()
	ctx.set("heap_mb", heapMB(), 1)

	const rate = 10000
	hops := []string{"transport.hop1"}
	if !ctx.trace {
		return measureOverlays(ctx, &w, setup, setupS, rate, hops, int64(1000*ctx.seconds))
	}

	ctx.set("setup_s", metrics.Median(setupS), len(setupS))
	loadU := w.openLoop(rate, ctx.dur(0.35), hops, false)
	tp := w.beginTraced(0)
	loadT := w.openLoop(rate, ctx.dur(0.35), hops, true)
	tp.end(loadU, loadT)
	w.hopMs(fmt.Sprintf("tuple@%d/s", rate))
	w.checkOracle()

	ctx.set("pubsub.routing_records", float64(totalRecords(w)), len(w.nodes))
	ctx.set("pubsub.subscribe_call_us", subscribeCallUs(w), 64)
	if err := microWire(ctx, pool); err != nil {
		return err
	}
	return microMatch(ctx, subsOf(subs), pool)
}

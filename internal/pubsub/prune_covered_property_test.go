package pubsub

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/stream"
	"repro/internal/topology"
)

// This file property-tests the two matching-engine v2 structures:
//
//   - the attribute-prune index: the selected candidate set is always a
//     superset of the exactly-matching set (so evaluating only the
//     selection reproduces the full posting-list scan);
//   - the covered-by churn index: after arbitrary churn, the recorded
//     suppression edges equal a from-scratch recomputation of which
//     (record, neighbor) propagation decisions are suppressed, and every
//     recorded suppressor is a currently valid cover.

// TestPrunedCandidateSuperset: over random subscription populations and
// tuples, matchIter selects a superset of the posting-list positions
// whose subscription matches the tuple, in ascending order.
func TestPrunedCandidateSuperset(t *testing.T) {
	old := pruneMin
	pruneMin = 0
	defer func() { pruneMin = old }()
	for seed := uint64(0); seed < 60; seed++ {
		r := rand.New(rand.NewPCG(seed, 41))
		n := 5 + r.IntN(60)
		cands := make([]*compiledSub, 0, n) // one dense posting list
		for i := 0; i < n; i++ {
			cands = append(cands, compileSub(eqRandomSub(r, i), nil))
		}
		ss := &streamSnap{cands: cands}
		ss.idx = buildAttrPruneIndex(ss)
		bufs := new(routeBufs)
		for trial := 0; trial < 40; trial++ {
			tup := eqRandomTuple(r)
			it := ss.matchIter(&tup, bufs)
			if !it.pruned {
				continue // full scan: trivially complete
			}
			sel := it.sel
			inSel := make(map[int32]bool, len(sel))
			prev := int32(-1)
			for _, p := range sel {
				if p <= prev {
					t.Fatalf("seed %d: selection not ascending: %v", seed, sel)
				}
				prev = p
				inSel[p] = true
			}
			for pos, c := range cands {
				if c.matches(&tup) && !inSel[int32(pos)] {
					t.Fatalf("seed %d: matching candidate %s at %d missing from pruned selection %v for %s",
						seed, c.sub, pos, sel, renderTuple(tup))
				}
			}
		}
	}
}

// TestMatchIndexEquivalencePruneTiny re-runs the full index-equivalence
// suite with the prune-index population threshold at zero, so attribute
// pruning engages on the small randomized workloads (posting lists there
// are usually below the production threshold).
func TestMatchIndexEquivalencePruneTiny(t *testing.T) {
	old := pruneMin
	pruneMin = 0
	defer func() { pruneMin = old }()
	TestMatchIndexEquivalence(t)
	TestChurnReferenceEquivalence(t)
}

// coveredByStates collects each broker's records (locals and per-direction)
// for the covered-by consistency walk.
func allRecords(br *Broker) []*compiledSub {
	out := append([]*compiledSub(nil), br.idx.locals.subs...)
	for _, d := range br.idx.dirOrder {
		out = append(out, br.idx.dirs[d].subs...)
	}
	return out
}

// checkCoveredByIndex asserts that a broker's covered-by index equals a
// from-scratch covering recomputation:
//
//   - completeness: every eligible-but-unsent (record, neighbor) decision —
//     the exact set a recomputation would classify as suppressed — holds a
//     suppression edge, and no edge exists for a sent or ineligible pair;
//   - validity: every edge's suppressor is a currently recorded, different
//     subscription that was sent toward the neighbor and covers the record
//     (the suppressor identity itself may lag the recomputation's
//     first-cover choice — any valid cover preserves the fixpoint);
//   - symmetry: forward (coveredBy) and reverse (suppresses) sides agree.
func checkCoveredByIndex(t *testing.T, br *Broker, seed uint64) {
	t.Helper()
	br.mu.Lock()
	defer br.mu.Unlock()
	recs := allRecords(br)
	recorded := make(map[*compiledSub]bool, len(recs))
	for _, c := range recs {
		recorded[c] = true
	}
	for _, c := range recs {
		for n, cov := range c.coveredBy {
			if c.sentTo.has(n) {
				t.Errorf("seed %d: broker %d: %s both sent toward and suppressed toward %d", seed, br.Node, c.sub, n)
			}
			if n == c.srcDir || !br.advertisesAny(n, c.sub.Streams) {
				t.Errorf("seed %d: broker %d: %s suppressed toward ineligible neighbor %d", seed, br.Node, c.sub, n)
			}
			if !recorded[cov] {
				t.Errorf("seed %d: broker %d: suppressor of %s toward %d is no longer recorded", seed, br.Node, c.sub, n)
				continue
			}
			if !cov.sentTo.has(n) || cov.sub.ID == c.sub.ID || !refCovers(cov.sub, c.sub) {
				t.Errorf("seed %d: broker %d: %s has invalid suppressor %s toward %d", seed, br.Node, c.sub, cov.sub, n)
			}
			if !cov.suppresses[covEdge{rec: c, to: n}] {
				t.Errorf("seed %d: broker %d: reverse edge missing for %s toward %d", seed, br.Node, c.sub, n)
			}
		}
		for e := range c.suppresses {
			if e.rec.coveredBy[e.to] != c {
				t.Errorf("seed %d: broker %d: dangling reverse edge %s toward %d", seed, br.Node, e.rec.sub, e.to)
			}
		}
		// Completeness: the from-scratch recomputation of the suppressed
		// set is exactly {(c, n): n eligible, not sent} — the lifecycle
		// fixpoint guarantees a cover exists for each.
		for _, nb := range br.neighbors {
			if nb == c.srcDir || c.sentTo.has(nb) || !br.advertisesAny(nb, c.sub.Streams) {
				continue
			}
			if c.coveredBy[nb] == nil {
				t.Errorf("seed %d: broker %d: %s unsent toward eligible %d but holds no suppression edge",
					seed, br.Node, c.sub, nb)
			}
		}
	}
}

// TestCoveredByIndexMatchesRecomputation: after randomized churn workloads,
// every broker's covered-by index equals the from-scratch covering
// recomputation, and stays consistent after withdrawing a random subset of
// the survivors.
func TestCoveredByIndexMatchesRecomputation(t *testing.T) {
	t.Run("indexed", func(t *testing.T) {
		for seed := uint64(0); seed < 400; seed++ {
			r := rand.New(rand.NewPCG(seed, 99))
			nodes := 4 + int(seed%4)
			oracle, ids := eqNetwork(t, r, nodes)
			ops := eqScenario(r, nodes)
			net, err := NewNetwork(oracle, ids)
			if err != nil {
				t.Fatal(err)
			}
			var log []string
			runEqScenario(t, net, ops, &log)
			for _, n := range net.Nodes() {
				br, _ := net.Broker(n)
				checkCoveredByIndex(t, br, seed)
			}
			// Withdraw a random half of the survivors and re-check:
			// un-suppression must leave the index equal to the
			// recomputation again.
			for _, o := range ops {
				if o.kind == eqSubscribe && r.IntN(2) == 0 {
					br, _ := net.Broker(o.node)
					br.Unsubscribe(o.sub.ID)
				}
			}
			for _, n := range net.Nodes() {
				br, _ := net.Broker(n)
				checkCoveredByIndex(t, br, seed)
			}
		}
	})
}

// TestPrunedRouteMatchesUnpruned: on a dense single-stream population large
// enough to engage the production prune threshold, the pruned route and the
// reference (which scans every record) deliver identical tuples.
func TestPrunedRouteMatchesUnpruned(t *testing.T) {
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	pruned, err := NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	plain := newRefNetwork(pruned)
	build := func(net eqOverlay, log *[]string) {
		src, _ := net.client(0)
		dst, _ := net.client(1)
		src.Advertise("R")
		r := rand.New(rand.NewPCG(7, 55))
		for i := 0; i < 80; i++ {
			s := eqRandomSub(r, i)
			s.Streams = []string{"R"}
			id := s.ID
			if err := dst.Subscribe(s, func(sub *Subscription, tp stream.Tuple) {
				*log = append(*log, fmt.Sprintf("%s %s", id, renderTuple(tp)))
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var prunedLog, plainLog []string
	build(pruned, &prunedLog)
	build(plain, &plainLog)
	r := rand.New(rand.NewPCG(8, 56))
	for i := 0; i < 200; i++ {
		tup := eqRandomTuple(r)
		tup.Stream = "R"
		srcP, _ := pruned.client(0)
		srcU, _ := plain.client(0)
		srcP.Publish(tup)
		srcU.Publish(tup)
	}
	if len(prunedLog) == 0 {
		t.Fatal("no deliveries: test not exercising the match path")
	}
	if fmt.Sprint(prunedLog) != fmt.Sprint(plainLog) {
		t.Fatalf("pruned and unpruned deliveries differ:\npruned: %v\nplain:  %v", prunedLog, plainLog)
	}
}

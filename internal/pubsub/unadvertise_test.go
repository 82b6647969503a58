package pubsub

import (
	"testing"

	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// This file tests the teardown half of the routing-state lifecycle: advert
// withdrawal (Unadvertise) flooding along the advert paths, the pruning of
// the subscription state each advert justified, covered-by re-decision, and
// the epoch rules that make duplicate floods and stale withdrawals no-ops.

// assertAdvertsDrained fails unless every broker's advert state — own
// advertisements, per-direction advert entries, and withdrawal tombstones —
// is empty: the advert-completeness half of drain-to-empty.
func assertAdvertsDrained(t *testing.T, net *Network) {
	t.Helper()
	for _, n := range net.Nodes() {
		br, _ := net.Broker(n)
		own, learned := br.AdvertStateSize()
		if own != 0 || learned != 0 {
			t.Errorf("broker %d still holds advert state: own=%d learned=%d", n, own, learned)
		}
		br.mu.Lock()
		for d, tombs := range br.unadvTomb {
			if len(tombs) > 0 {
				t.Errorf("broker %d holds %d unadvert tombstones from %d", n, len(tombs), d)
			}
		}
		br.mu.Unlock()
	}
}

// TestUnadvertisePrunesRemoteState: withdrawing a stream's advertisement
// removes, at every broker, the advert entries the flood installed AND the
// subscription records the advert alone justified — the publisher and every
// intermediate hop drain; the subscriber keeps only its local record.
func TestUnadvertisePrunesRemoteState(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(3)
	src.Advertise("R")

	hits := 0
	if err := dst.Subscribe(&Subscription{ID: "s", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}
	// The subscription is recorded at brokers 0, 1, 2.
	for _, n := range []topology.NodeID{0, 1, 2} {
		b, _ := net.Broker(n)
		if remote, _ := b.RoutingStateSize(); remote != 1 {
			t.Fatalf("broker %d records %d subscriptions before unadvertise, want 1", n, remote)
		}
	}

	src.Unadvertise("R")
	// The advert state and the records it pulled in are gone everywhere;
	// only the subscriber's local record remains.
	for _, n := range net.Nodes() {
		b, _ := net.Broker(n)
		if remote, _ := b.RoutingStateSize(); remote != 0 {
			t.Fatalf("broker %d records %d subscriptions after unadvertise, want 0", n, remote)
		}
	}
	assertAdvertsDrained(t, net)
	if _, local := dst.RoutingStateSize(); local != 1 {
		t.Fatalf("subscriber lost its local record: %d locals", local)
	}
	// The local record's propagation marks toward the dead direction were
	// cleared, so a later re-advertise replays it (see below).
	dst.mu.Lock()
	rec := dst.idx.locals.find("s")
	sent := len(rec.sentTo)
	dst.mu.Unlock()
	if sent != 0 {
		t.Fatalf("local record still marked sent toward %d neighbors after unadvertise", sent)
	}

	// Re-advertising replays the surviving subscription toward the
	// publisher: delivery resumes end to end.
	src.Advertise("R")
	src.Publish(tuple("R", map[string]float64{"a": 1}))
	if hits != 1 {
		t.Fatalf("deliveries after re-advertise = %d, want 1 (subscription must replay)", hits)
	}
	if remote, _ := src.RoutingStateSize(); remote != 1 {
		t.Fatalf("publisher records %d subscriptions after re-advertise, want 1", remote)
	}
}

// TestUnadvertiseKeepsMultiStreamRecords: a subscription listing two streams
// stays recorded along the path while EITHER stream is advertised there; it
// is pruned only when the last justification disappears.
func TestUnadvertiseKeepsMultiStreamRecords(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(3)
	src.Advertise("R")
	src.Advertise("S")

	hits := 0
	if err := dst.Subscribe(&Subscription{ID: "rs", Streams: []string{"R", "S"}},
		func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}

	src.Unadvertise("R")
	// S still justifies the records: routing state intact, S tuples flow.
	for _, n := range []topology.NodeID{0, 1, 2} {
		b, _ := net.Broker(n)
		if remote, _ := b.RoutingStateSize(); remote != 1 {
			t.Fatalf("broker %d records %d subscriptions after partial unadvertise, want 1", n, remote)
		}
	}
	src.Publish(tuple("S", map[string]float64{"a": 1}))
	if hits != 1 {
		t.Fatalf("deliveries = %d, want 1 (S still advertised)", hits)
	}

	src.Unadvertise("S")
	assertAdvertsDrained(t, net)
	dst.Unsubscribe("rs")
	assertDrained(t, net)
}

// TestUnadvertiseUnsuppressesCovered: dropping a remote record under advert
// withdrawal re-decides the suppression it provided — a narrower
// subscription it was covering toward a STILL-advertised direction takes
// over, exactly as unsubscribe un-suppression does.
func TestUnadvertiseUnsuppressesCovered(t *testing.T) {
	// Path 0-1-2-3: publisher of R at 0, publisher of S at 3; broker 1
	// holds two subscriptions from its local clients.
	net := lineNet(t)
	b0, _ := net.Broker(0)
	b1, _ := net.Broker(1)
	b3, _ := net.Broker(3)
	b0.Advertise("R")
	b3.Advertise("S")

	// wide lists R and S, so it propagates both ways and covers narrow
	// (which lists only S) toward broker 2's direction.
	wide := &Subscription{ID: "wide", Streams: []string{"S", "R"}}
	if err := b1.Subscribe(wide, nil); err != nil {
		t.Fatal(err)
	}
	narrow := &Subscription{ID: "narrow", Streams: []string{"S"},
		Filters: []query.Predicate{filter("a", query.Gt, 10)}}
	if err := b1.Subscribe(narrow, nil); err != nil {
		t.Fatal(err)
	}
	// narrow is suppressed toward 2 (covered by wide, which was sent).
	b1.mu.Lock()
	nRec := b1.idx.locals.find("narrow")
	covered := nRec.coveredBy[2] != nil
	b1.mu.Unlock()
	if !covered {
		t.Fatal("setup: narrow not covered toward direction 2")
	}

	// Withdrawing R prunes wide's records along the path toward 0 only;
	// toward 3, wide's record survives (S justifies it) so narrow stays
	// covered. Withdrawing S then removes the records toward 3; the
	// freed decision re-runs and finds nothing advertised — no resend.
	b0.Unadvertise("R")
	b1.mu.Lock()
	stillCovered := nRec.coveredBy[2] != nil
	wSent := b1.idx.locals.find("wide").sentTo.has(2)
	b1.mu.Unlock()
	if !wSent || !stillCovered {
		t.Fatalf("withdrawing R must leave wide sent toward 2 (got %v) and narrow covered (got %v)",
			wSent, stillCovered)
	}

	// Now withdraw S while R is re-advertised: wide's justification
	// toward 2 disappears, the suppression of narrow toward 2 is freed,
	// and the re-decision finds S gone — narrow must NOT be sent.
	b0.Advertise("R")
	b3.Unadvertise("S")
	b1.mu.Lock()
	nCov := len(nRec.coveredBy)
	nSent := len(nRec.sentTo)
	b1.mu.Unlock()
	if nCov != 0 || nSent != 0 {
		t.Fatalf("narrow after full S withdrawal: coveredBy=%d sentTo=%d, want 0/0", nCov, nSent)
	}
	// wide still propagates toward R's publisher.
	if remote, _ := b0.RoutingStateSize(); remote != 1 {
		t.Fatalf("R publisher records %d subscriptions, want 1 (wide)", remote)
	}
}

// TestUnadvertiseDuplicateAndStaleNoOp: a second withdrawal of the same
// stream is a silent no-op, and a stale withdrawal (older epoch than a
// fresh re-advertisement) must not tear the new advert down.
func TestUnadvertiseDuplicateAndStaleNoOp(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b1, _ := net.Broker(1)
	src.Advertise("R")
	src.mu.Lock()
	advSeq := src.ownAdverts["R"]
	src.mu.Unlock()

	src.Unadvertise("R")
	before := net.Traffic().ControlBytes
	src.Unadvertise("R")          // double withdrawal
	src.Unadvertise("never-seen") // unknown stream
	if after := net.Traffic().ControlBytes; after != before {
		t.Fatalf("no-op unadvertise generated traffic: %v -> %v", before, after)
	}

	// Re-advertise opens a newer epoch; a replayed stale withdrawal of
	// the OLD epoch must be ignored everywhere.
	src.Advertise("R")
	b1.UnadvertFrom(0, "R", 0, advSeq)
	if _, learned := b1.AdvertStateSize(); learned != 1 {
		t.Fatalf("stale withdrawal removed the fresh advert: %d learned entries", learned)
	}
	hits := 0
	if err := b1.Subscribe(&Subscription{ID: "x", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}
	src.Publish(tuple("R", map[string]float64{"a": 1}))
	if hits != 1 {
		t.Fatalf("deliveries = %d, want 1 (advert must survive the stale withdrawal)", hits)
	}
}

// TestUnadvertiseTombstoneBeatsLateAdvert: a withdrawal that overtakes the
// advert it chases (sends happen outside broker locks) leaves a tombstone
// that annihilates the late-arriving advert — neither is forwarded, so the
// downstream subtree sees neither — while a genuinely newer advert epoch
// supersedes the tombstone.
func TestUnadvertiseTombstoneBeatsLateAdvert(t *testing.T) {
	net := lineNet(t)
	b1, _ := net.Broker(1)

	// The withdrawal wins the race to broker 1...
	b1.UnadvertFrom(0, "R", 0, 5)
	before := net.Traffic().ControlBytes
	// ...and the advert it chases lands afterwards: annihilated.
	b1.AdvertFrom(0, "R", 0, 5)
	if _, learned := b1.AdvertStateSize(); learned != 0 {
		t.Fatalf("tombstoned advert still installed: %d entries", learned)
	}
	if after := net.Traffic().ControlBytes; after != before {
		t.Fatalf("annihilated advert still flooded: control %v -> %v", before, after)
	}

	// A newer epoch is a different advertisement: recorded and flooded.
	b1.AdvertFrom(0, "R", 0, 6)
	if _, learned := b1.AdvertStateSize(); learned != 1 {
		t.Fatalf("newer advert blocked by a stale tombstone: %d entries", learned)
	}
}

// TestUnadvertiseTwoPublishersSameStream: with two brokers advertising the
// SAME stream name, withdrawing one advertisement keeps the other fully
// routable — the per-origin advert identity prevents the shared direction
// state from being torn down with the first publisher.
func TestUnadvertiseTwoPublishersSameStream(t *testing.T) {
	net := lineNet(t)
	b0, _ := net.Broker(0)
	b1, _ := net.Broker(1)
	b3, _ := net.Broker(3)
	b0.Advertise("R")
	b1.Advertise("R")

	hits := 0
	if err := b3.Subscribe(&Subscription{ID: "s", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}
	b0.Unadvertise("R")
	// Broker 1 still publishes R: the subscription must remain recorded
	// at broker 1 (and on the path to 3), and tuples must flow.
	b1.Publish(tuple("R", map[string]float64{"a": 1}))
	if hits != 1 {
		t.Fatalf("deliveries = %d, want 1 (second publisher must survive the first's withdrawal)", hits)
	}
	if remote, _ := b1.RoutingStateSize(); remote != 1 {
		t.Fatalf("surviving publisher records %d subscriptions, want 1", remote)
	}

	b1.Unadvertise("R")
	assertAdvertsDrained(t, net)
	b3.Unsubscribe("s")
	assertDrained(t, net)
}

// TestUnadvertiseAfterUnsubscribeOrder: teardown in either order — all
// subscriptions first or all adverts first — drains the overlay to empty.
func TestUnadvertiseAfterUnsubscribeOrder(t *testing.T) {
	for _, advertsFirst := range []bool{false, true} {
		net := lineNet(t)
		src, _ := net.Broker(0)
		b2, _ := net.Broker(2)
		b3, _ := net.Broker(3)
		src.Advertise("R")
		src.Advertise("S")
		if err := b3.Subscribe(&Subscription{ID: "a", Streams: []string{"R"}}, nil); err != nil {
			t.Fatal(err)
		}
		if err := b2.Subscribe(&Subscription{ID: "b", Streams: []string{"S", "R"}}, nil); err != nil {
			t.Fatal(err)
		}
		if advertsFirst {
			src.Unadvertise("R")
			src.Unadvertise("S")
			b3.Unsubscribe("a")
			b2.Unsubscribe("b")
		} else {
			b3.Unsubscribe("a")
			b2.Unsubscribe("b")
			src.Unadvertise("S")
			src.Unadvertise("R")
		}
		assertDrained(t, net)
		assertAdvertsDrained(t, net)
	}
}

// TestPropagationCrossingWithdrawalDropped: a subscription propagation that
// crosses the advert withdrawal in flight (sends happen outside broker
// locks) must NOT be recorded at the receiver — the sender's propagation
// mark is cleared by its own mirror rule, so no retraction would ever chase
// the record and it would strand forever.
func TestPropagationCrossingWithdrawalDropped(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b1, _ := net.Broker(1)
	src.Advertise("R")
	if err := b1.Subscribe(&Subscription{ID: "s", Streams: []string{"R"}}, nil); err != nil {
		t.Fatal(err)
	}
	src.Unadvertise("R")
	// The in-flight copy lands after the withdrawal was processed.
	src.PropagateFrom(&Subscription{ID: "late", Seq: 9, Streams: []string{"R"}}, 1)
	if remote, _ := src.RoutingStateSize(); remote != 0 {
		t.Fatalf("crossing propagation was recorded: %d remote records (would strand forever)", remote)
	}
	// Re-advertising replays the sender's surviving copy: nothing lost.
	src.Advertise("R")
	if remote, _ := src.RoutingStateSize(); remote != 1 {
		t.Fatalf("replay after re-advertise recorded %d records, want 1", remote)
	}
}

// TestReorderedNewerWithdrawalTombstones: sends from different flood
// goroutines can reorder on one link. A withdrawal carrying a NEWER epoch
// than the recorded advert kills the recorded one AND tombstones the newer
// advert it chases, so the late advert cannot resurrect a fully withdrawn
// stream; a yet-newer epoch still supersedes the tombstone.
func TestReorderedNewerWithdrawalTombstones(t *testing.T) {
	net := lineNet(t)
	b1, _ := net.Broker(1)
	b1.AdvertFrom(0, "R", 0, 1)   // advert epoch 1 arrives
	b1.UnadvertFrom(0, "R", 0, 2) // withdrawal of epoch 2 overtakes its advert
	b1.AdvertFrom(0, "R", 0, 2)   // the chased advert lands: annihilated
	b1.UnadvertFrom(0, "R", 0, 1) // the old withdrawal straggles in: no-op
	if _, learned := b1.AdvertStateSize(); learned != 0 {
		t.Fatalf("withdrawn stream resurrected by reordered advert: %d entries", learned)
	}
	// A genuinely newer advertisement epoch is a fresh advert.
	b1.AdvertFrom(0, "R", 0, 3)
	if _, learned := b1.AdvertStateSize(); learned != 1 {
		t.Fatalf("fresh advert blocked after reordered teardown: %d entries", learned)
	}
}

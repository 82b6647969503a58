package transport

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pubsub"
	"repro/internal/stream"
	"repro/internal/topology"
)

// --- queue-policy unit tests (no sender goroutine: the pipe is exercised
// --- directly, so enqueue/collect behavior is deterministic).

func TestControlBackpressureBlocksAtBound(t *testing.T) {
	o := Options{ControlQueueDepth: 2}.withDefaults()
	p := newPeerPipe(nil, 1)

	ctrl := func(seq uint64) Envelope {
		return Envelope{Kind: MsgAdvert, From: 0, StreamName: "R", Seq: seq}
	}
	p.enqueue(ctrl(1), o)
	p.enqueue(ctrl(2), o)

	unblocked := make(chan struct{})
	go func() {
		p.enqueue(ctrl(3), o) // over the bound: must block
		close(unblocked)
	}()
	select {
	case <-unblocked:
		t.Fatal("control enqueue past the bound did not block")
	case <-time.After(50 * time.Millisecond):
	}

	// The sender taking a batch frees space and must wake the enqueuer.
	batch, ok := p.collect(nil, o)
	if !ok || len(batch) != 2 {
		t.Fatalf("collect = %d envelopes, ok=%v; want 2, true", len(batch), ok)
	}
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked control enqueue not released by collect")
	}

	// close() must release a blocked enqueuer too (envelope dropped).
	p.enqueue(ctrl(4), o) // back at the bound (1 queued + 1 re-queued)
	blocked2 := make(chan struct{})
	go func() {
		p.enqueue(ctrl(5), o)
		close(blocked2)
	}()
	time.Sleep(20 * time.Millisecond)
	p.close()
	select {
	case <-blocked2:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked control enqueue not released by close")
	}
}

func TestDataOverflowDropsOldestTupleOnly(t *testing.T) {
	o := Options{DataQueueDepth: 3}.withDefaults()
	p := newPeerPipe(nil, 1)
	dropped := cDroppedData.Value()

	data := func(ts int64) Envelope {
		return Envelope{Kind: MsgData, From: 0, Tuple: &WireTuple{Stream: "R", Timestamp: ts}}
	}
	// A control envelope older than every tuple: overflow must never
	// evict it — only MsgData is at-most-once.
	p.enqueue(Envelope{Kind: MsgSubscribe, From: 0, Sub: &WireSubscription{ID: "s"}}, o)
	for ts := int64(1); ts <= 5; ts++ {
		p.enqueue(data(ts), o)
	}

	if got := cDroppedData.Value() - dropped; got != 2 {
		t.Fatalf("transport.dropped_data moved by %d, want 2", got)
	}
	batch, ok := p.collect(nil, o)
	if !ok {
		t.Fatal("collect failed")
	}
	var kinds []string
	for _, env := range batch {
		if env.Kind == MsgData {
			kinds = append(kinds, fmt.Sprintf("d%d", env.Tuple.Timestamp))
		} else {
			kinds = append(kinds, "ctrl")
		}
	}
	// Oldest tuples (1, 2) shed; control survives in FIFO position.
	want := "[ctrl d3 d4 d5]"
	if got := fmt.Sprintf("%v", kinds); got != want {
		t.Fatalf("queue after overflow = %v, want %v", got, want)
	}
}

// --- flush-window and framing behavior over a live pair.

func TestFlushWindowCoalescesBurst(t *testing.T) {
	// A long window so the whole burst lands inside it deterministically.
	opts := Options{FlushWindow: 100 * time.Millisecond}
	a, err := NewNodeWith(0, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() }) //lint:errdrop test teardown is best-effort
	b, err := NewNode(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() }) //lint:errdrop test teardown is best-effort
	a.Connect(1, b.Addr())
	b.Connect(0, a.Addr())

	batches, sized, wire := cBatches.Value(), cBatchSize.Value(), cWireMsgs.Value()
	for i := 0; i < 10; i++ {
		a.Peer(1).AdvertFrom(0, fmt.Sprintf("S%d", i), 0, 1)
	}
	a.Flush()

	// The first envelope wakes the sender, which opens the flush window;
	// the other nine arrive microseconds later — one MsgBatch of 10.
	if got := cBatches.Value() - batches; got != 1 {
		t.Errorf("burst produced %d batches, want 1", got)
	}
	if got := cBatchSize.Value() - sized; got != 10 {
		t.Errorf("batch_size moved by %d, want 10 (all envelopes in one batch)", got)
	}
	if got := cWireMsgs.Value() - wire; got != 1 {
		t.Errorf("burst produced %d wire messages, want 1", got)
	}
	waitFor(t, "batched adverts applied", func() bool {
		_, learned := b.Broker.AdvertStateSize()
		return learned == 10
	})
}

func TestBatchSizeOneNeverEmitsMsgBatch(t *testing.T) {
	opts := Options{BatchSize: 1}
	a, err := NewNodeWith(0, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() }) //lint:errdrop test teardown is best-effort
	b, err := NewNode(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() }) //lint:errdrop test teardown is best-effort
	a.Connect(1, b.Addr())
	b.Connect(0, a.Addr())

	batches, wire := cBatches.Value(), cWireMsgs.Value()
	for i := 0; i < 25; i++ {
		a.Peer(1).AdvertFrom(0, fmt.Sprintf("S%d", i), 0, 1)
	}
	a.Flush()
	if got := cBatches.Value() - batches; got != 0 {
		t.Errorf("BatchSize 1 emitted %d MsgBatch messages, want 0", got)
	}
	if got := cWireMsgs.Value() - wire; got != 25 {
		t.Errorf("BatchSize 1 wrote %d wire messages, want 25 (one per envelope)", got)
	}
	waitFor(t, "unbatched adverts applied", func() bool {
		_, learned := b.Broker.AdvertStateSize()
		return learned == 25
	})
}

// --- satellite regression: a partitioned (unreachable) peer must not delay
// --- traffic to healthy peers. Before the pipelines, sends ran inline on
// --- the flooding goroutine, so one dead neighbor's dial/retry/backoff
// --- cycle serialized in front of every healthy neighbor's envelope.

func TestPartitionedPeerDoesNotDelayHealthyPeers(t *testing.T) {
	hub, err := NewNode(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() }) //lint:errdrop test teardown is best-effort
	healthy, err := NewNode(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = healthy.Close() }) //lint:errdrop test teardown is best-effort
	hub.Connect(1, healthy.Addr())
	healthy.Connect(0, hub.Addr())

	// Peer 2 is partitioned: its listener is gone, every dial fails and
	// every envelope toward it burns the full retry/backoff schedule.
	gone, err := NewNode(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := gone.Addr()
	if err := gone.Close(); err != nil {
		t.Fatal(err)
	}
	hub.Connect(2, deadAddr)

	failures := cSendFailures.Value()
	const streams = 300
	start := time.Now()
	for i := 0; i < streams; i++ {
		hub.Broker.Advertise(fmt.Sprintf("S%d", i))
	}
	waitFor(t, "healthy peer learned every advert", func() bool {
		_, learned := healthy.Broker.AdvertStateSize()
		return learned == streams
	})
	elapsed := time.Since(start)

	// Inline sends would pay peer 2's retry schedule (~14ms of backoff per
	// failed batch) in front of peer 1's envelopes — minutes for 300
	// floods. The pipelines must keep the healthy path at wire speed.
	if elapsed > 2500*time.Millisecond {
		t.Fatalf("healthy peer took %v to catch up — the dead peer is delaying it", elapsed)
	}
	// The dead pipe really was churning through terminal failures the
	// whole time (i.e. the test exercised the contention it claims to).
	waitFor(t, "dead peer surfaced terminal losses", func() bool {
		return cSendFailures.Value() > failures
	})
}

// --- satellite seam: fault injection sees protocol messages, not batches.

// countingWrapper tallies every Peer call it intercepts.
type countingWrapper struct {
	adverts, subs, tuples atomic.Int64
}

func (w *countingWrapper) WrapPeer(_ topology.NodeID, p pubsub.Peer) pubsub.Peer {
	return &countingPeer{w: w, next: p}
}

type countingPeer struct {
	w    *countingWrapper
	next pubsub.Peer
}

func (c *countingPeer) AdvertFrom(from topology.NodeID, s string, o topology.NodeID, q uint64) {
	c.w.adverts.Add(1)
	c.next.AdvertFrom(from, s, o, q)
}
func (c *countingPeer) UnadvertFrom(from topology.NodeID, s string, o topology.NodeID, q uint64) {
	c.next.UnadvertFrom(from, s, o, q)
}
func (c *countingPeer) PropagateFrom(sub *pubsub.Subscription, from topology.NodeID) {
	c.w.subs.Add(1)
	c.next.PropagateFrom(sub, from)
}
func (c *countingPeer) RetractFrom(from topology.NodeID, id string, seq uint64) {
	c.next.RetractFrom(from, id, seq)
}
func (c *countingPeer) RouteFrom(t stream.Tuple, from topology.NodeID) {
	c.w.tuples.Add(1)
	c.next.RouteFrom(t, from)
}

// TestPeerWrapperSeesIndividualEnvelopes: the fault-injection seam sits
// BEFORE the send pipeline, so a wrapper (chaos fabric) draws one fate per
// protocol message even when the wire carries them as MsgBatch frames.
func TestPeerWrapperSeesIndividualEnvelopes(t *testing.T) {
	a, err := NewNode(0, "127.0.0.1:0") // batching on (defaults)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() }) //lint:errdrop test teardown is best-effort
	b, err := NewNode(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() }) //lint:errdrop test teardown is best-effort
	a.Connect(1, b.Addr())
	b.Connect(0, a.Addr())

	w := &countingWrapper{}
	a.SetPeerWrapper(w)

	batches := cBatches.Value()
	for i := 0; i < 8; i++ {
		a.Peer(1).AdvertFrom(0, fmt.Sprintf("S%d", i), 0, 1)
	}
	for i := 0; i < 8; i++ {
		a.Peer(1).RouteFrom(stream.Tuple{Stream: "S0", Timestamp: int64(i)}, 0)
	}
	a.Flush()

	if got := w.adverts.Load(); got != 8 {
		t.Errorf("wrapper saw %d adverts, want 8 (one per protocol message)", got)
	}
	if got := w.tuples.Load(); got != 8 {
		t.Errorf("wrapper saw %d tuples, want 8 (one per protocol message)", got)
	}
	if cBatches.Value() == batches {
		t.Error("no MsgBatch on the wire — the test did not cover batched framing")
	}
	waitFor(t, "wrapped traffic applied", func() bool {
		_, learned := b.Broker.AdvertStateSize()
		return learned == 8
	})
}

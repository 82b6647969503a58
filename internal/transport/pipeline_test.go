package transport

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pubsub"
	"repro/internal/stream"
	"repro/internal/topology"
)

// --- queue-policy unit tests (no sender goroutine: the pipe is exercised
// --- directly, so enqueue/collect behavior is deterministic).

// queueNode is a pipe's node with nothing but the counters its queue
// writes: enough for enqueue, collect and close.
func queueNode() *Node {
	r := new(metrics.Registry)
	return &Node{cDroppedData: r.Counter("transport.dropped_data"), cQueueDepth: r.Counter("transport.queue_depth")}
}

func TestControlBackpressureBlocksAtBound(t *testing.T) {
	o := Options{ControlQueueDepth: 2}.withDefaults()
	p := newPeerPipe(queueNode(), 1)

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
	p := newPeerPipe(queueNode(), 1)

	data := func(ts int64) Envelope {
		return Envelope{Kind: MsgData, From: 0, Tuple: &WireTuple{Stream: "R", Timestamp: ts}}
	}
	// A control envelope older than every tuple: overflow must never
	// evict it — only MsgData is at-most-once.
	p.enqueue(Envelope{Kind: MsgSubscribe, From: 0, Sub: &pubsub.Subscription{ID: "s"}}, o)
	for ts := int64(1); ts <= 5; ts++ {
		p.enqueue(data(ts), o)
	}

	if got := p.node.cDroppedData.Value(); got != 2 {
		t.Fatalf("transport.dropped_data = %d, want 2", got)
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

// --- model-based queue test: the ring against the slice-shift queue it
// --- replaced, kept here as the oracle.

// sliceQueue is the pre-ring peerPipe queue, minus the waiting: a control
// enqueue at the bound reports blocked instead of sleeping, and collect is
// only called on a non-empty queue.
type sliceQueue struct {
	queue                  []Envelope
	ctrl, ndata, highwater int
	shed                   int
}

func (q *sliceQueue) enqueue(env Envelope, o Options) (blocked bool) {
	if env.Kind == MsgData {
		if q.ndata >= o.DataQueueDepth {
			for i := range q.queue {
				if q.queue[i].Kind == MsgData {
					q.queue = append(q.queue[:i], q.queue[i+1:]...)
					break
				}
			}
			q.ndata--
			q.shed++
		}
		q.ndata++
	} else {
		if q.ctrl >= o.ControlQueueDepth {
			return true
		}
		q.ctrl++
	}
	q.queue = append(q.queue, env)
	q.highwater = max(q.highwater, len(q.queue))
	return false
}

func (q *sliceQueue) collect(o Options) []Envelope {
	take := min(len(q.queue), o.BatchSize)
	batch := append([]Envelope(nil), q.queue[:take]...)
	rest := copy(q.queue, q.queue[take:])
	q.queue = q.queue[:rest]
	for _, env := range batch {
		if env.Kind == MsgData {
			q.ndata--
		} else {
			q.ctrl--
		}
	}
	return batch
}

// sameEnvelopes compares by identity: every test envelope has a unique Seq
// (control) or a unique *WireTuple (data).
func sameEnvelopes(a, b []Envelope) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Seq != b[i].Seq || a[i].Tuple != b[i].Tuple {
			return false
		}
	}
	return true
}

// checkAgainstModel compares the pipe's whole queue state with the oracle's
// and requires every ring slot outside the live run to be zero (a stale
// slot pins its payload until overwritten).
func checkAgainstModel(t *testing.T, step int, p *peerPipe, q *sliceQueue) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	live := make([]Envelope, p.n)
	for i := range live {
		live[i] = *p.at(i)
	}
	if !sameEnvelopes(live, q.queue) {
		t.Fatalf("step %d: queue diverged from the slice-shift oracle\n got %v\nwant %v", step, live, q.queue)
	}
	if p.ctrl != q.ctrl || p.ndata != q.ndata || p.highwater != q.highwater {
		t.Fatalf("step %d: ctrl/ndata/highwater = %d/%d/%d, oracle %d/%d/%d",
			step, p.ctrl, p.ndata, p.highwater, q.ctrl, q.ndata, q.highwater)
	}
	if got := p.node.cDroppedData.Value(); got != int64(q.shed) {
		t.Fatalf("step %d: transport.dropped_data = %d, oracle shed %d", step, got, q.shed)
	}
	for i := p.n; i < len(p.ring); i++ {
		if e := p.at(i); e.Kind != 0 || e.Tuple != nil || e.Sub != nil || e.body != nil {
			t.Fatalf("step %d: vacated ring slot %d still holds %+v", step, i, *e)
		}
	}
}

func TestQueueMatchesSliceShiftModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		o := Options{
			BatchSize:         1 + rnd.Intn(5),
			ControlQueueDepth: 2 + rnd.Intn(7),
			DataQueueDepth:    2 + rnd.Intn(7),
		}.withDefaults()
		p := newPeerPipe(queueNode(), 1)
		q := &sliceQueue{}

		var id uint64
		next := func(data bool) Envelope {
			id++
			if data {
				return Envelope{Kind: MsgData, Tuple: &WireTuple{Stream: "R", Timestamp: int64(id)}}
			}
			return Envelope{Kind: MsgAdvert, StreamName: "R", Seq: id}
		}
		collect := func(step int) {
			got, ok := p.collect(nil, o)
			if want := q.collect(o); !ok || !sameEnvelopes(got, want) {
				t.Fatalf("seed %d step %d: collect = %v (ok=%v), oracle %v", seed, step, got, ok, want)
			}
		}
		// blockedEnqueue starts a control enqueue the oracle says must
		// block, and returns the channel closed when it returns.
		blockedEnqueue := func(step int, env Envelope) chan struct{} {
			done := make(chan struct{})
			go func() {
				p.enqueue(env, o)
				close(done)
			}()
			select {
			case <-done:
				t.Fatalf("seed %d step %d: control enqueue past the bound did not block", seed, step)
			case <-time.After(time.Millisecond):
			}
			return done
		}
		released := func(step int, done chan struct{}, by string) {
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatalf("seed %d step %d: blocked control enqueue not released by %s", seed, step, by)
			}
		}

		for step := 0; step < 300; step++ {
			switch r := rnd.Intn(10); {
			case r < 3 && len(q.queue) > 0:
				collect(step)
			case r < 6:
				env := next(false)
				if q.enqueue(env, o) {
					done := blockedEnqueue(step, env)
					checkAgainstModel(t, step, p, q)
					for q.ctrl >= o.ControlQueueDepth {
						collect(step) // a batch of data alone frees no control slot
					}
					released(step, done, "collect")
					q.enqueue(env, o)
				} else {
					p.enqueue(env, o)
				}
			default:
				env := next(true)
				q.enqueue(env, o)
				p.enqueue(env, o)
			}
			checkAgainstModel(t, step, p, q)
		}

		// close() releases a blocked enqueuer too, dropping its envelope.
		for !q.enqueue(next(false), o) {
			p.enqueue(q.queue[len(q.queue)-1], o)
		}
		done := blockedEnqueue(300, next(false))
		p.close()
		released(300, done, "close")
		checkAgainstModel(t, 300, p, q)
		if got := p.node.cQueueDepth.Value(); got != int64(q.highwater) {
			t.Errorf("seed %d: transport.queue_depth = %d, want the live high-water mark %d", seed, got, q.highwater)
		}
	}
}

// --- batching and framing behavior over a live pair.

// TestNaturalBatching: the sender never waits on a non-empty queue, so a
// batch is exactly what was queued when it came back for more. The pipe is
// driven by hand (no sender goroutine), which makes "while the previous
// write was in flight" deterministic: ten envelopes queued before the take
// leave as ONE MsgBatch, and a lone one as a frame of one envelope.
func TestNaturalBatching(t *testing.T) {
	a, err := NewNode(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() }) //lint:errdrop test teardown is best-effort
	b, err := NewNode(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() }) //lint:errdrop test teardown is best-effort
	b.Connect(0, a.Addr())

	p := newPeerPipe(a, 1)
	p.addr = b.Addr()
	t.Cleanup(p.evictConn)
	// Node a has no neighbor, so only p moves its counters. The readings
	// are running totals: a batch of one is unwrapped, so the second send
	// adds a frame and no batch.
	for _, c := range []struct {
		envelopes                  int
		batches, batchSize, frames int64
	}{{10, 1, 10, 1}, {1, 1, 10, 2}} {
		for i := 0; i < c.envelopes; i++ {
			p.enqueue(Envelope{Kind: MsgAdvert, StreamName: fmt.Sprintf("S%d/%d", c.envelopes, i), Seq: 1}, a.opts)
		}
		batch, ok := p.collect(nil, a.opts)
		if !ok || len(batch) != c.envelopes {
			t.Fatalf("collect took %d of %d queued envelopes (ok=%v)", len(batch), c.envelopes, ok)
		}
		p.writeBatch(batch)
		if got := a.cBatches.Value(); got != c.batches {
			t.Errorf("after %d queued envelopes: transport.batches = %d, want %d", c.envelopes, got, c.batches)
		}
		if got := a.cBatchSize.Value(); got != c.batchSize {
			t.Errorf("after %d queued envelopes: transport.batch_size = %d, want %d", c.envelopes, got, c.batchSize)
		}
		if got := a.cWireMsgs.Value(); got != c.frames {
			t.Errorf("after %d queued envelopes: transport.wire_msgs = %d, want %d", c.envelopes, got, c.frames)
		}
	}
	waitFor(t, "adverts applied", func() bool {
		_, learned := b.Broker.AdvertStateSize()
		return learned == 11
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

	for i := 0; i < 25; i++ {
		a.Peer(1).AdvertFrom(0, fmt.Sprintf("S%d", i), 0, 1)
	}
	a.Flush()
	if got := a.cBatches.Value(); got != 0 {
		t.Errorf("BatchSize 1 emitted %d MsgBatch messages, want 0", got)
	}
	if got := a.cWireMsgs.Value(); got != 25 {
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
		return hub.cSendFailures.Value() > 0
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
	if a.cBatches.Value() == 0 {
		t.Error("no MsgBatch on the wire — the test did not cover batched framing")
	}
	waitFor(t, "wrapped traffic applied", func() bool {
		_, learned := b.Broker.AdvertStateSize()
		return learned == 8
	})
}

// TestPeerWrapperSwapVisibleToNextForward: Node.Peer reads the wrapper the
// broker's route path asks for once per hop per tuple, lock-free. A swap or a
// removal must take effect on the very next forward, and swapping beside a
// running publisher must lose or duplicate nothing (run under -race).
func TestPeerWrapperSwapVisibleToNextForward(t *testing.T) {
	a, err := NewNode(0, "127.0.0.1:0")
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

	var delivered atomic.Int64
	a.Broker.Advertise("S")
	waitFor(t, "advert learned", func() bool { _, learned := b.Broker.AdvertStateSize(); return learned == 1 })
	if err := b.Broker.Subscribe(&pubsub.Subscription{ID: "s", Streams: []string{"S"}}, func(*pubsub.Subscription, stream.Tuple) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription routable", func() bool { remote, _ := a.Broker.RoutingStateSize(); return remote == 1 })

	w1, w2 := &countingWrapper{}, &countingWrapper{}
	publish := func() {
		a.Broker.Publish(stream.Tuple{Stream: "S", Attrs: map[string]stream.Value{"a": stream.IntVal(1)}})
	}
	for step, c := range []struct {
		install pubsub.PeerWrapper
		w1, w2  int64
	}{{w1, 1, 0}, {w2, 1, 1}, {nil, 1, 1}, {w1, 2, 1}} {
		a.SetPeerWrapper(c.install)
		publish()
		if g1, g2 := w1.tuples.Load(), w2.tuples.Load(); g1 != c.w1 || g2 != c.w2 {
			t.Fatalf("step %d: wrappers saw %d and %d forwards, want %d and %d", step, g1, g2, c.w1, c.w2)
		}
	}

	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			publish()
		}
	}()
swapping:
	for i := 0; ; i++ {
		select {
		case <-done:
			break swapping
		default:
			a.SetPeerWrapper([]pubsub.PeerWrapper{w1, nil, w2}[i%3])
		}
	}
	waitFor(t, "every forward delivered once", func() bool { return delivered.Load() == n+4 })
}

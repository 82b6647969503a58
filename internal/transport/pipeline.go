package transport

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pubsub"
	"repro/internal/topology"
)

// Per-peer send pipeline. Every neighbor of a Node gets one peerPipe: a
// bounded FIFO queue drained by a dedicated sender goroutine that coalesces
// queued envelopes into MsgBatch wire messages (batching amortizes the
// per-message gob and syscall cost, the dominant term of control floods and
// high-rate data fan-out). The sender is work-conserving: it never waits on
// a non-empty queue, so a batch is whatever accumulated while the previous
// write was in flight — an idle link sends each envelope at once, a
// saturated one fills its batches. The pipeline is what makes deliver a
// non-blocking enqueue: dialing, encoding, retry backoff and
// terminal-failure surfacing all run on the sender goroutine, never on the
// broker's route/propagate goroutines (see CONCURRENCY.md "Transport send
// pipelines").
//
// Overflow policy is per plane. Control envelopes are lossless — the
// routing-state machinery cannot reconstruct a lost propagate or retract —
// so a full control queue blocks the enqueuer (backpressure, propagating
// hop by hop exactly like a slow TCP receiver would). Data tuples are
// at-most-once by contract, so a full data queue sheds the OLDEST queued
// tuple under the transport.dropped_data counter and never blocks routing.
//
// Ordering: one queue and one sender per peer give per-peer FIFO — an
// envelope enqueued before another toward the same peer is written to the
// same TCP stream first, across retries (a batch is retried as a unit, with
// shed data tuples removed, never reordered). The tombstone/epoch machinery
// in pubsub depends on exactly this per-link FIFO.

// Send self-healing knobs. Control-plane envelopes carry routing state the
// overlay cannot reconstruct on its own, so a failed write is retried over a
// fresh connection with capped exponential backoff; data tuples are
// best-effort (the data plane promises at-most-once) and ride only the
// first attempt of their batch.
const (
	sendAttempts   = 4
	retryBaseDelay = 2 * time.Millisecond
	retryMaxDelay  = 50 * time.Millisecond
	// dialTimeout bounds a sender's connection attempt so a blackholed
	// peer cannot pin its sender goroutine (and Close) for the OS default.
	dialTimeout = 2 * time.Second
	// sendBufSize is the bufio.Writer buffer in front of each connection:
	// one flush per batch instead of one syscall per envelope.
	sendBufSize = 64 << 10
)

// Options tunes a Node's send pipelines. The zero value means defaults.
type Options struct {
	// BatchSize is the most envelopes coalesced into one MsgBatch wire
	// message (default 64). A batch of one is sent as a plain envelope,
	// so BatchSize 1 is the v1 framing — one wire message per envelope —
	// for a neighbor that predates MsgBatch.
	BatchSize int
	// ControlQueueDepth bounds queued control envelopes per peer
	// (default 4096). At the bound, enqueue blocks: backpressure.
	ControlQueueDepth int
	// DataQueueDepth bounds queued data envelopes per peer (default
	// 4096). At the bound, the oldest queued tuple is dropped and
	// counted: at-most-once.
	DataQueueDepth int
	// Logger receives the transport's structured link-lifecycle events:
	// connect/dial failure at debug, terminal envelope loss at warn. Nil
	// discards them. Logging calls run on the pipe's sender goroutine,
	// never under a pipe or node lock.
	Logger *slog.Logger
}

const (
	defaultBatchSize  = 64
	defaultQueueDepth = 4096
)

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = defaultBatchSize
	}
	if o.ControlQueueDepth <= 0 {
		o.ControlQueueDepth = defaultQueueDepth
	}
	if o.DataQueueDepth <= 0 {
		o.DataQueueDepth = defaultQueueDepth
	}
	if o.Logger == nil {
		o.Logger = pubsub.DiscardLogger
	}
	return o
}

// peerPipe is the send pipeline of one neighbor.
type peerPipe struct {
	node *Node
	id   topology.NodeID
	// peer is the neighbor's unwrapped pubsub.Peer endpoint, boxed once:
	// Node.Peer hands it out per forwarded tuple.
	peer pubsub.Peer

	// cosmoslint:guards — the queue state lives under mu; the sender
	// copies batches out and writes them with mu released.
	mu   sync.Mutex
	cond *sync.Cond
	addr string
	// The queue is a ring: ring (length zero or a power of two) holds the
	// n queued envelopes from slot head, oldest first, control and data
	// interleaved in enqueue order (per-peer FIFO is a cross-plane
	// guarantee: a tuple routed after a propagate must not overtake it on
	// the wire). Taking a batch moves head, never the backlog, and every
	// slot outside the live run is zero so the GC sees no stale payload.
	ring  []Envelope
	head  int
	n     int
	ctrl  int // control envelopes in queue
	ndata int // data envelopes in queue
	// sending marks a batch taken off the queue but not yet written (or
	// terminally failed) — Flush waits for it.
	sending bool
	closed  bool
	// highwater is the longest queue seen; its increments feed the
	// monotone transport.queue_depth counter (sum of per-pipe marks).
	highwater int
	// Link health, read by Node.PipeStatus for the ops /healthz endpoint:
	// connected tracks whether a live outbound connection is installed;
	// lastErr remembers the most recent dial or write failure and is
	// cleared by the next successful dial. A pipe that never needed to
	// dial has both zero — healthy by default.
	connected bool
	lastErr   error

	// Byte accounting (pubsub.Fabric Count* calls), per-peer atomics so
	// accounting never contends with dial/send or Close. Integer sums
	// are exact; SentBytes converts after summing in sorted peer order
	// (the float-determinism discipline).
	dataBytes    atomic.Int64
	controlBytes atomic.Int64

	// Connection state. Only the sender goroutine dials, encodes and
	// evicts, so bw/enc need no lock; conn is additionally published
	// under mu so close() can reach in and unblock a stuck write.
	conn net.Conn
	bw   *bufio.Writer
	enc  *gob.Encoder
}

func newPeerPipe(n *Node, id topology.NodeID) *peerPipe {
	p := &peerPipe{node: n, id: id, peer: remotePeer{n: n, id: id}}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// at returns the slot of the i-th queued envelope (0 is the oldest); at(p.n)
// is the next free slot while the ring is not full. Caller holds mu.
func (p *peerPipe) at(i int) *Envelope {
	return &p.ring[(p.head+i)&(len(p.ring)-1)]
}

// popFront vacates the k oldest slots, which the caller has already zeroed.
func (p *peerPipe) popFront(k int) {
	p.head = (p.head + k) & (len(p.ring) - 1)
	p.n -= k
}

// enqueue appends one envelope to the pipe applying the per-plane overflow
// policy. It returns immediately for data, blocks only on a full control
// queue, and drops the envelope silently once the pipe is closed (teardown
// noise, exactly like the v1 errClosed path).
func (p *peerPipe) enqueue(env Envelope, o Options) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	if env.Kind == MsgData {
		if p.ndata >= o.DataQueueDepth {
			// Shed the OLDEST queued tuple so the freshest data
			// survives; routing goroutines never block on data. The
			// control envelopes queued ahead of it each move one slot
			// back, so the vacated slot is always the head: O(1) for
			// a data backlog, the case that overflows.
			i := 0
			for p.at(i).Kind != MsgData {
				i++
			}
			for ; i > 0; i-- {
				*p.at(i) = *p.at(i - 1)
			}
			*p.at(0) = Envelope{}
			p.popFront(1)
			p.ndata--
			cDroppedData.Inc()
		}
		p.ndata++
	} else {
		for p.ctrl >= o.ControlQueueDepth && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			return
		}
		p.ctrl++
	}
	if p.n == len(p.ring) {
		ring := make([]Envelope, max(2*len(p.ring), 4))
		for i := range p.n {
			ring[i] = *p.at(i)
		}
		p.ring, p.head = ring, 0
	}
	*p.at(p.n) = env
	p.n++
	if p.n > p.highwater {
		cQueueDepth.Add(int64(p.n - p.highwater))
		p.highwater = p.n
	}
	p.cond.Broadcast()
}

// run is the sender goroutine: collect a batch, write it, repeat until the
// pipe closes. The batch buffer is reused across iterations, as are the
// bufio.Writer and gob encoder across batches on one connection.
func (p *peerPipe) run(o Options) {
	defer p.node.wg.Done()
	var batch []Envelope
	for {
		var ok bool
		batch, ok = p.collect(batch[:0], o)
		if !ok {
			break
		}
		p.writeBatch(batch)
		p.mu.Lock()
		p.sending = false
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	p.evictConn()
}

// collect blocks until there is work, then moves what is queued now, up to
// BatchSize envelopes, into buf: the sender never waits on a non-empty
// queue. The second return is false when the pipe closed (remaining queue
// is discarded: teardown drops in-flight traffic exactly like v1's socket
// close did).
func (p *peerPipe) collect(buf []Envelope, o Options) ([]Envelope, bool) {
	p.mu.Lock()
	for p.n == 0 && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		return nil, false
	}
	take := min(p.n, o.BatchSize)
	for i := range take {
		slot := p.at(i)
		if slot.Kind == MsgData {
			p.ndata--
		} else {
			p.ctrl--
		}
		buf = append(buf, *slot)
		*slot = Envelope{} // release payload references to the GC
	}
	p.popFront(take)
	p.sending = true
	p.cond.Broadcast() // space freed: wake blocked control enqueuers
	p.mu.Unlock()
	return buf, true
}

// writeBatch puts one batch on the wire with the per-plane retry policy: a
// failed write evicts the connection (a gob stream cannot resume
// mid-message) and retries over a fresh dial with capped backoff — minus
// the data tuples, which get exactly one attempt (at-most-once). Terminal
// failures are counted and surfaced per envelope through the node's
// send-error handler. All of it runs on the sender goroutine.
func (p *peerPipe) writeBatch(batch []Envelope) {
	var err error
	for attempt := 0; attempt < sendAttempts; attempt++ {
		if attempt > 0 {
			cSendRetries.Inc()
			delay := retryBaseDelay << (attempt - 1)
			if delay > retryMaxDelay {
				delay = retryMaxDelay
			}
			time.Sleep(delay)
		}
		err = p.tryWrite(batch)
		if err == nil {
			return
		}
		p.mu.Lock()
		p.lastErr = err
		p.mu.Unlock()
		p.evictConn()
		if errors.Is(err, errClosed) {
			return // teardown noise, not a lost link
		}
		if attempt == 0 {
			// The failed attempt consumed the data tuples' single try.
			kept := batch[:0]
			for _, env := range batch {
				if env.Kind == MsgData {
					p.surfaceLoss(env, err)
				} else {
					kept = append(kept, env)
				}
			}
			batch = kept
			if len(batch) == 0 {
				return
			}
		}
	}
	for _, env := range batch {
		p.surfaceLoss(env, err)
	}
}

// surfaceLoss counts one terminally lost envelope and logs which peer and
// kind died. Losses during teardown are not surfaced — a closing node's
// undeliverable queue is noise, not a dead link.
func (p *peerPipe) surfaceLoss(env Envelope, err error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return
	}
	cSendFailures.Inc()
	p.node.opts.Logger.Warn("envelope lost", "peer", p.id, "kind", env.Kind, "err", err)
}

// tryWrite encodes the batch onto the current connection, dialing first if
// there is none, and flushes. Batches of more than one envelope ride a
// single MsgBatch wire message; a batch of one goes out in the v1
// single-envelope framing, so low-rate links and BatchSize-1 nodes
// interoperate with peers that predate MsgBatch. batch is never empty.
func (p *peerPipe) tryWrite(batch []Envelope) error {
	// enc is the sender-owned "connected" marker; the conn field itself
	// is shared with close() and only touched under mu.
	if p.enc == nil {
		if err := p.dial(); err != nil {
			return err
		}
	}
	if len(batch) == 1 {
		if err := p.enc.Encode(batch[0]); err != nil {
			return err
		}
	} else {
		if err := p.enc.Encode(Envelope{Kind: MsgBatch, From: p.node.ID, Batch: batch}); err != nil {
			return err
		}
		cBatches.Inc()
		cBatchSize.Add(int64(len(batch)))
	}
	cWireMsgs.Inc()
	return p.bw.Flush()
}

// dial connects to the peer and installs a fresh buffered writer and gob
// encoder. Runs on the sender goroutine only.
func (p *peerPipe) dial() error {
	p.mu.Lock()
	addr, closed := p.addr, p.closed
	p.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: node %d: %w", p.node.ID, errClosed)
	}
	if addr == "" {
		return fmt.Errorf("transport: node %d has no address for peer %d", p.node.ID, p.id)
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		err = fmt.Errorf("transport: dial peer %d: %w", p.id, err)
		p.mu.Lock()
		p.lastErr = err
		p.mu.Unlock()
		p.node.opts.Logger.Debug("dial failed", "peer", p.id, "addr", addr, "err", err)
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		//lint:errdrop the dial raced the shutdown and is discarded unused
		_ = conn.Close()
		return fmt.Errorf("transport: node %d: %w", p.node.ID, errClosed)
	}
	p.conn = conn
	p.connected = true
	p.lastErr = nil
	p.mu.Unlock()
	p.bw = bufio.NewWriterSize(conn, sendBufSize)
	p.enc = gob.NewEncoder(p.bw)
	p.node.opts.Logger.Debug("peer connected", "peer", p.id, "addr", addr)
	return nil
}

// evictConn drops the current connection (if any): a failed write poisons
// the gob stream, so the next attempt must start a fresh one.
func (p *peerPipe) evictConn() {
	p.mu.Lock()
	conn := p.conn
	p.conn = nil
	p.connected = false
	p.mu.Unlock()
	p.bw, p.enc = nil, nil
	if conn != nil {
		//lint:errdrop the write error is the one surfaced; closing the poisoned conn is disposal, not I/O
		_ = conn.Close()
	}
}

// close marks the pipe dead, wakes every waiter (blocked control enqueuers,
// the idle sender, Flush) and severs the live connection so a
// sender stuck mid-write errors out instead of pinning Close.
func (p *peerPipe) close() {
	p.mu.Lock()
	p.closed = true
	conn := p.conn
	p.conn = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	if conn != nil {
		//lint:errdrop best-effort teardown: the node is closing
		_ = conn.Close()
	}
}

// drain blocks until the pipe's queue is empty and no batch is in flight
// (or the pipe closes). Part of Node.Flush's contract.
func (p *peerPipe) drain() {
	p.mu.Lock()
	for (p.n > 0 || p.sending) && !p.closed {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

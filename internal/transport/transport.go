package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/pubsub"
	"repro/internal/stream"
	"repro/internal/topology"
)

var errClosed = errors.New("transport: node closed")

// MsgKind discriminates wire envelopes.
type MsgKind int

// Envelope kinds.
const (
	MsgAdvert MsgKind = iota + 1
	MsgSubscribe
	MsgData
	MsgUnsubscribe
	// MsgUnadvertise withdraws an advertisement: the (StreamName, Origin)
	// advert at epoch Seq or older is pruned along the advert paths.
	MsgUnadvertise
	// MsgBatch carries a coalesced run of envelopes from one sender's
	// pipeline (Batch, in enqueue order). Batches never nest.
	MsgBatch
)

// String names the kind for logs and loss reports.
func (k MsgKind) String() string {
	switch k {
	case MsgAdvert:
		return "advert"
	case MsgSubscribe:
		return "subscribe"
	case MsgData:
		return "data"
	case MsgUnsubscribe:
		return "unsubscribe"
	case MsgUnadvertise:
		return "unadvertise"
	case MsgBatch:
		return "batch"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Envelope is one protocol message in a peer's send queue, written as one
// envelope of a frame (frame.go). From, Tuple and Batch never reach a link:
// they stay for the benchmark's wire microbenchmark, which gob-encodes
// envelopes (cmd/cosmos-bench/micro.go).
type Envelope struct {
	Kind MsgKind
	From topology.NodeID //lint:deadcode read by gob in the benchmark's wire microbenchmark (cmd/cosmos-bench/micro.go microWire)
	// Advert / Unadvertise: the stream, the broker whose clients publish
	// it, and the epoch the origin stamped the advertisement with.
	StreamName string
	Origin     topology.NodeID
	// Subscribe: a copy of the broker's subscription that shares its lists,
	// which nothing writes once the subscription is subscribed.
	Sub *pubsub.Subscription
	// Unsubscribe (retraction): the withdrawn subscription's ID. Seq is
	// the epoch being retracted (shared with Advert/Unadvertise).
	SubID string
	Seq   uint64
	Tuple *WireTuple //lint:deadcode read by gob in the benchmark's wire microbenchmark (cmd/cosmos-bench/micro.go microWire)
	Batch []Envelope

	// body is a data envelope's tuple body (tupleBody).
	body []byte
}

// WireTuple is a tuple body's fields, the attribute map flattened to a
// name-sorted slice: what appendTupleBody writes, and what the benchmark's
// wire microbenchmark builds.
type WireTuple struct {
	Stream    string
	Timestamp int64
	Attrs     []WireAttr // sorted by Name
	Size      int
}

// WireAttr is one attribute of a WireTuple.
type WireAttr struct {
	Name string
	Val  stream.Value
}

// GobEncode writes the tuple body (appendTupleBody), which gob carries as
// opaque bytes.
//
//lint:deadcode gob hook of the benchmark's wire microbenchmark (cmd/cosmos-bench/micro.go microWire), which gob-encodes Envelopes
func (w *WireTuple) GobEncode() ([]byte, error) {
	return appendTupleBody(nil, w), nil
}

// GobDecode parses the body GobEncode wrote.
//
//lint:deadcode gob hook of the benchmark's wire microbenchmark (cmd/cosmos-bench/micro.go microWire), which gob-decodes Envelopes
func (w *WireTuple) GobDecode(data []byte) error {
	r := reader{b: data}
	t, _ := r.tuple()
	if r.bad || len(r.b) != 0 {
		return errMalformed
	}
	*w = WireTuple{Stream: t.Stream, Timestamp: t.Timestamp, Size: t.Size, Attrs: sortedAttrs(nil, t)}
	return nil
}

// Node hosts one broker over TCP. Outbound traffic flows through per-peer
// send pipelines (pipeline.go); inbound connections are served by one
// decode goroutine each.
type Node struct {
	ID     topology.NodeID
	Broker *pubsub.Broker

	opts Options
	// The c* counters live in the broker's registry. The pipelines
	// (pipeline.go) count MsgBatch frames, the envelopes they carried
	// (batch_size/batches = mean batch size), all frames written (the
	// syscall proxy), the sum over peers of each send queue's high-water
	// mark, and data tuples shed by the drop-oldest overflow policy.
	cSendFailures, cSendRetries, cUnknownKind, cMalformed      *metrics.Counter
	cBatches, cBatchSize, cWireMsgs, cQueueDepth, cDroppedData *metrics.Counter

	mu       sync.Mutex
	ln       net.Listener
	pipes    map[topology.NodeID]*peerPipe
	inbound  map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
	attached map[topology.NodeID]bool // peers Connect has made broker neighbors
	attach   *sync.Cond               // on mu: attached grew or the node closed (serve waits)

	// pipesSnap is an immutable copy of pipes, swapped on every pipe
	// creation. Per-tuple lookups (deliver, byte accounting) read it
	// lock-free; only a first contact with a new peer takes n.mu.
	pipesSnap atomic.Pointer[map[topology.NodeID]*peerPipe]

	// wrap is the installed PeerWrapper (nil, or a nil one, when there is
	// none): Peer reads it once per forwarded tuple, so it is published, not
	// locked.
	wrap atomic.Pointer[pubsub.PeerWrapper]
}

// NewNode creates a broker node listening on addr (e.g. "127.0.0.1:0") with
// default pipeline options.
func NewNode(id topology.NodeID, addr string) (*Node, error) {
	return NewNodeWith(id, addr, Options{})
}

// NewNodeWith creates a broker node with explicit pipeline options.
func NewNodeWith(id topology.NodeID, addr string, opts Options) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &Node{
		ID:       id,
		opts:     opts.withDefaults(),
		ln:       ln,
		pipes:    make(map[topology.NodeID]*peerPipe),
		inbound:  make(map[net.Conn]bool),
		attached: make(map[topology.NodeID]bool),
	}
	n.attach = sync.NewCond(&n.mu)
	n.Broker = pubsub.NewBroker(n, id)
	r := n.Broker.Metrics()
	n.cSendFailures = r.Counter("transport.send_failures")
	n.cSendRetries = r.Counter("transport.send_retries")
	n.cUnknownKind = r.Counter("transport.unknown_envelope_kind")
	n.cMalformed = r.Counter("transport.malformed_envelope")
	n.cBatches = r.Counter("transport.batches")
	n.cBatchSize = r.Counter("transport.batch_size")
	n.cWireMsgs = r.Counter("transport.wire_msgs")
	n.cQueueDepth = r.Counter("transport.queue_depth")
	n.cDroppedData = r.Counter("transport.dropped_data")
	n.wg.Add(1)
	go n.accept()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Connect registers a neighbor at the given address. Both ends must connect
// to each other (the overlay is built from a static edge list).
func (n *Node) Connect(peer topology.NodeID, addr string) {
	p := n.pipe(peer)
	p.mu.Lock()
	p.addr = addr
	p.mu.Unlock()
	n.Broker.AddNeighbor(peer)
	n.mu.Lock()
	n.attached[peer] = true
	n.mu.Unlock()
	n.attach.Broadcast()
}

// pipe returns the peer's send pipeline, creating it (and starting its
// sender goroutine) on first use. Creation is the only per-peer work that
// touches n.mu; dialing and sending happen on the sender goroutine, so a
// slow peer never stalls another peer's sends, byte accounting, or Close.
func (n *Node) pipe(peer topology.NodeID) *peerPipe {
	if snap := n.pipesSnap.Load(); snap != nil {
		if p, ok := (*snap)[peer]; ok {
			return p
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.pipes[peer]
	if !ok {
		p = newPeerPipe(n, peer)
		n.pipes[peer] = p
		snap := make(map[topology.NodeID]*peerPipe, len(n.pipes))
		for id, pp := range n.pipes {
			snap[id] = pp
		}
		n.pipesSnap.Store(&snap)
		if n.closed {
			p.closed = true
		} else {
			n.wg.Add(1)
			go p.run(n.opts)
		}
	}
	return p
}

// pipesSnapshot returns the live pipes in ascending peer order.
func (n *Node) pipesSnapshot() []*peerPipe {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]topology.NodeID, 0, len(n.pipes))
	for id := range n.pipes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]*peerPipe, len(ids))
	for i, id := range ids {
		out[i] = n.pipes[id]
	}
	return out
}

// Close shuts the node down and waits for its goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.attach.Broadcast()
	err := n.ln.Close()
	pipes := make([]*peerPipe, 0, len(n.pipes))
	for _, p := range n.pipes {
		//lint:maporder each pipe gets one independent close; visit order is unobservable
		pipes = append(pipes, p)
	}
	for c := range n.inbound {
		//lint:errdrop best-effort teardown: the node is closing and the listener error above is the one reported
		_ = c.Close()
	}
	n.mu.Unlock()
	for _, p := range pipes {
		p.close()
	}
	n.wg.Wait()
	return err
}

// Flush blocks until every envelope enqueued before the call has been
// handed to the operating system (or shed/terminally failed by policy) and
// the connection buffers are flushed. It says nothing about the REMOTE
// side having processed the envelopes — drain oracles over an overlay still
// poll the receiving brokers. pubsub.Flusher seam for Quiesce-style oracles.
func (n *Node) Flush() {
	for _, p := range n.pipesSnapshot() {
		p.drain()
	}
}

// accept serves inbound envelope streams.
func (n *Node) accept() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			//lint:errdrop connection raced the shutdown and is discarded unused; nothing to salvage from its close
			_ = conn.Close()
			return
		}
		n.inbound[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serve(conn)
	}
}

func (n *Node) serve(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
		//lint:errdrop the decode loop already ended this stream; close is cleanup, its error changes nothing
		_ = conn.Close()
	}()
	fr := newFrameReader(conn)
	from, err := fr.preamble()
	if err != nil {
		if errors.Is(err, errMalformed) {
			n.cMalformed.Inc() // another magic or wire version: refused
		}
		return
	}
	// A peer that started first may send before Connect has attached it
	// here, and the broker drops a non-neighbor's messages as stragglers
	// of a dead link. Hold the connection until then: TCP flow control
	// bounds what backs up behind it. Detaching does not un-attach, so a
	// dead link's stragglers still meet the broker's guard.
	n.mu.Lock()
	for !n.closed && !n.attached[from] {
		n.attach.Wait()
	}
	n.mu.Unlock()
	names := make(map[string]string)
	for {
		frame, err := fr.next()
		if err != nil {
			if errors.Is(err, errMalformed) {
				n.cMalformed.Inc() // a length above maxFrame: the stream is lost
			}
			return
		}
		// The broker (and anything wrapped around it) sees individual
		// protocol messages, whatever framing they arrived in.
		switch err := decodeFrame(frame, from, names, n.Broker); {
		case errors.Is(err, errUnknownKind):
			n.cUnknownKind.Inc()
		case err != nil:
			n.cMalformed.Inc()
		}
	}
}

// deliver enqueues one envelope on the peer's send pipeline. Non-blocking
// for data (drop-oldest under pressure); control blocks only at the
// configured queue bound (backpressure). Everything downstream — dialing,
// batching, retry backoff, terminal-failure surfacing — runs on the pipe's
// sender goroutine, never on the calling (routing) goroutine.
func (n *Node) deliver(peer topology.NodeID, env Envelope) {
	n.pipe(peer).enqueue(env, n.opts)
}

// SetPeerWrapper installs (or, with nil, removes) a pubsub.PeerWrapper
// around the node's outbound peer endpoints — the same fault-injection seam
// Network.SetPeerWrapper provides in-process. The wrapper sees every
// individual protocol message BEFORE it enters the send pipeline, so a
// chaos fabric's per-message fate draws are batching-agnostic: faults apply
// per envelope, never per batch.
func (n *Node) SetPeerWrapper(w pubsub.PeerWrapper) { n.wrap.Store(&w) }

// remotePeer adapts one neighbor to pubsub.Peer.
type remotePeer struct {
	n  *Node
	id topology.NodeID
}

func (r remotePeer) AdvertFrom(_ topology.NodeID, streamName string, origin topology.NodeID, seq uint64) {
	r.n.deliver(r.id, Envelope{Kind: MsgAdvert, StreamName: streamName, Origin: origin, Seq: seq})
}

func (r remotePeer) UnadvertFrom(_ topology.NodeID, streamName string, origin topology.NodeID, seq uint64) {
	r.n.deliver(r.id, Envelope{Kind: MsgUnadvertise, StreamName: streamName, Origin: origin, Seq: seq})
}

func (r remotePeer) PropagateFrom(sub *pubsub.Subscription, _ topology.NodeID) {
	c := *sub // a later Subscribe of the same value stamps a new Seq
	r.n.deliver(r.id, Envelope{Kind: MsgSubscribe, Sub: &c})
}

func (r remotePeer) RetractFrom(_ topology.NodeID, id string, seq uint64) {
	r.n.deliver(r.id, Envelope{Kind: MsgUnsubscribe, SubID: id, Seq: seq})
}

func (r remotePeer) RouteFrom(t stream.Tuple, _ topology.NodeID) {
	r.n.deliver(r.id, Envelope{Kind: MsgData, body: tupleBody(t)})
}

// Peer implements pubsub.Fabric.
func (n *Node) Peer(id topology.NodeID) pubsub.Peer {
	p := n.pipe(id).peer
	if w := n.wrap.Load(); w != nil && *w != nil {
		return (*w).WrapPeer(id, p)
	}
	return p
}

// CountControl implements pubsub.Fabric. Per-peer atomics: accounting from
// routing goroutines never contends with dials, sends, or Close.
func (n *Node) CountControl(_, to topology.NodeID, size int) {
	n.pipe(to).controlBytes.Add(int64(size))
}

// CountData implements pubsub.Fabric.
func (n *Node) CountData(_, to topology.NodeID, size int) {
	n.pipe(to).dataBytes.Add(int64(size))
}

// SentBytes returns the data and control bytes this node sent per peer.
// Per-peer totals are integers (exact), summed in ascending peer order and
// converted to float last — the float-determinism discipline: were these
// float sums, map order would drift the total bit-for-bit across runs.
func (n *Node) SentBytes() (data, control float64) {
	var d, c int64
	for _, p := range n.pipesSnapshot() {
		d += p.dataBytes.Load()
		c += p.controlBytes.Load()
	}
	return float64(d), float64(c)
}

var _ pubsub.Fabric = (*Node)(nil)
var _ pubsub.Flusher = (*Node)(nil)

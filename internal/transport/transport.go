package transport

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

var errClosed = errors.New("transport: node closed")

var (
	cSendFailures = metrics.GetCounter("transport.send_failures")
	cSendRetries  = metrics.GetCounter("transport.send_retries")
	cUnknownKind  = metrics.GetCounter("transport.unknown_envelope_kind")
	cMalformed    = metrics.GetCounter("transport.malformed_envelope")
	// Pipeline counters (pipeline.go): MsgBatch wire messages, the
	// envelopes they carried (batch_size/batches = mean batch size),
	// total top-level wire messages written (the syscall proxy), the sum
	// of per-peer queue high-water marks, and data tuples shed by the
	// drop-oldest overflow policy.
	cBatches     = metrics.GetCounter("transport.batches")
	cBatchSize   = metrics.GetCounter("transport.batch_size")
	cWireMsgs    = metrics.GetCounter("transport.wire_msgs")
	cQueueDepth  = metrics.GetCounter("transport.queue_depth")
	cDroppedData = metrics.GetCounter("transport.dropped_data")
)

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

// Envelope is the single wire message type.
type Envelope struct {
	Kind MsgKind
	From topology.NodeID
	// Advert / Unadvertise: the stream, the broker whose clients publish
	// it, and the epoch the origin stamped the advertisement with.
	StreamName string
	Origin     topology.NodeID
	// Subscribe
	Sub *WireSubscription
	// Unsubscribe (retraction): the withdrawn subscription's ID. Seq is
	// the epoch being retracted (shared with Advert/Unadvertise).
	SubID string
	Seq   uint64
	// Data
	Tuple *WireTuple
	// Batch (MsgBatch only): the coalesced envelopes, oldest first.
	Batch []Envelope
}

// WireTuple is the wire form of stream.Tuple with the attribute map
// flattened to a name-sorted slice. Two reasons: encode and decode of
// Attrs dominate the data plane's CPU once batching has removed the
// syscalls (so WireTuple carries its own GobEncode/GobDecode below, a flat
// hand-written body instead of gob's per-field reflection), and map
// iteration order would make the encoded bytes of a multi-attribute tuple
// differ run to run — sorting makes every envelope byte-stable, which the
// golden-bytes suite pins.
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

// toWireTuple flattens a tuple. The routing tag has no field in the v1 body:
// it travels as the string attribute stream.TagAttr at its sorted position,
// where it sat while the tag was payload, so the bytes did not move.
func toWireTuple(t stream.Tuple) *WireTuple {
	w := &WireTuple{Stream: t.Stream, Timestamp: t.Timestamp, Size: t.Size}
	n := len(t.Attrs)
	if t.Tag != "" {
		n++
	}
	if n > 0 {
		w.Attrs = make([]WireAttr, 0, n)
		if t.Tag != "" {
			w.Attrs = append(w.Attrs, WireAttr{Name: stream.TagAttr, Val: stream.StringVal(t.Tag)})
		}
		for name, v := range t.Attrs {
			//lint:maporder the slice is sorted below; iteration order is unobservable
			w.Attrs = append(w.Attrs, WireAttr{Name: name, Val: v})
		}
		slices.SortFunc(w.Attrs, func(a, b WireAttr) int { return strings.Compare(a.Name, b.Name) })
	}
	return w
}

// wireTupleVersion tags the hand-written WireTuple body so a future layout
// change can coexist with old bytes instead of silently misparsing them.
const wireTupleVersion = 1

// GobEncode writes the flat WireTuple body: version byte, stream name,
// timestamp, size, then each attribute as (name, value type, float bits,
// string). Data tuples are the transport's hot path — the manual body costs
// one buffer alloc where gob's generic struct walk costs a reflect call per
// field per attribute, and the bytes stay deterministic because Attrs is
// name-sorted.
func (w *WireTuple) GobEncode() ([]byte, error) {
	n := 1 + binary.MaxVarintLen64*3 + len(w.Stream)
	for _, a := range w.Attrs {
		n += 2*binary.MaxVarintLen64 + 1 + 8 + len(a.Name) + len(a.Val.S)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, wireTupleVersion)
	buf = binary.AppendUvarint(buf, uint64(len(w.Stream)))
	buf = append(buf, w.Stream...)
	buf = binary.AppendVarint(buf, w.Timestamp)
	buf = binary.AppendVarint(buf, int64(w.Size))
	buf = binary.AppendUvarint(buf, uint64(len(w.Attrs)))
	for _, a := range w.Attrs {
		buf = binary.AppendUvarint(buf, uint64(len(a.Name)))
		buf = append(buf, a.Name...)
		buf = append(buf, byte(a.Val.Type))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(a.Val.F))
		buf = binary.AppendUvarint(buf, uint64(len(a.Val.S)))
		buf = append(buf, a.Val.S...)
	}
	return buf, nil
}

var errBadWireTuple = errors.New("transport: malformed WireTuple body")

// GobDecode parses the body written by GobEncode.
func (w *WireTuple) GobDecode(data []byte) error {
	if len(data) == 0 || data[0] != wireTupleVersion {
		return errBadWireTuple
	}
	data = data[1:]
	str := func() (string, bool) {
		l, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < l {
			return "", false
		}
		s := string(data[n : n+int(l)])
		data = data[n+int(l):]
		return s, true
	}
	varint := func() (int64, bool) {
		v, n := binary.Varint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	var ok bool
	if w.Stream, ok = str(); !ok {
		return errBadWireTuple
	}
	if w.Timestamp, ok = varint(); !ok {
		return errBadWireTuple
	}
	size, ok := varint()
	if !ok {
		return errBadWireTuple
	}
	w.Size = int(size)
	count, n := binary.Uvarint(data)
	if n <= 0 || count > uint64(len(data)) { // each attr needs ≥1 byte
		return errBadWireTuple
	}
	data = data[n:]
	w.Attrs = nil
	if count > 0 {
		w.Attrs = make([]WireAttr, count)
		for i := range w.Attrs {
			a := &w.Attrs[i]
			if a.Name, ok = str(); !ok {
				return errBadWireTuple
			}
			if len(data) < 9 {
				return errBadWireTuple
			}
			a.Val.Type = stream.AttrType(data[0])
			a.Val.F = math.Float64frombits(binary.BigEndian.Uint64(data[1:9]))
			data = data[9:]
			if a.Val.S, ok = str(); !ok {
				return errBadWireTuple
			}
		}
	}
	if len(data) != 0 {
		return errBadWireTuple
	}
	return nil
}

// fromWireTuple rebuilds the tuple: a map this hop owns, and a non-empty
// string attribute stream.TagAttr lifted back into the header.
func fromWireTuple(w *WireTuple) stream.Tuple {
	// Relay carries the decoded wire form alongside the tuple: if the
	// broker forwards it whole (no projection), the next hop's envelope
	// reuses w instead of re-flattening and re-sorting the attribute map.
	t := stream.Tuple{Stream: w.Stream, Timestamp: w.Timestamp, Size: w.Size, Owned: true, Relay: w}
	if len(w.Attrs) > 0 {
		t.Attrs = make(map[string]stream.Value, len(w.Attrs))
		for _, a := range w.Attrs {
			if a.Name == stream.TagAttr && a.Val.Type == stream.String && a.Val.S != "" {
				t.Tag = a.Val.S
				continue
			}
			t.Attrs[a.Name] = a.Val
		}
	}
	return t
}

// WireSubscription is the gob-friendly form of pubsub.Subscription (the
// Predicate type contains interface-free pointers, so a flat encoding keeps
// the wire format stable).
type WireSubscription struct {
	ID      string
	Seq     uint64
	Streams []string
	Attrs   []string
	Filters []WirePredicate
}

// WirePredicate flattens query.Predicate: each operand is either a column
// name or a literal.
type WirePredicate struct {
	LeftCol   string
	LeftLit   *stream.Value
	Op        query.Op
	RightCol  string
	RightLit  *stream.Value
	LeftAlias string
	RightAls  string
}

// toWire shares the subscription's stream and projection lists and its
// literals: nothing writes them once the subscription is subscribed, and an
// envelope is not written once enqueued. gob sends an empty list as it sends
// nil, so the bytes are those of a copy. The filter lists are sized up front
// (slices.Grow keeps an empty one nil).
func toWire(s *pubsub.Subscription) *WireSubscription {
	w := &WireSubscription{ID: s.ID, Seq: s.Seq, Streams: s.Streams, Attrs: s.Attrs, Filters: slices.Grow([]WirePredicate(nil), len(s.Filters))}
	for _, p := range s.Filters {
		wp := WirePredicate{Op: p.Op, LeftLit: p.Left.Lit, RightLit: p.Right.Lit}
		if p.Left.Col != nil {
			wp.LeftCol = p.Left.Col.Attr
			wp.LeftAlias = p.Left.Col.Alias
		}
		if p.Right.Col != nil {
			wp.RightCol = p.Right.Col.Attr
			wp.RightAls = p.Right.Col.Alias
		}
		w.Filters = append(w.Filters, wp)
	}
	return w
}

// fromWire adopts the decoded lists and literals: the envelope was decoded
// for this hop alone.
func fromWire(w *WireSubscription) *pubsub.Subscription {
	s := &pubsub.Subscription{ID: w.ID, Seq: w.Seq, Streams: w.Streams, Attrs: w.Attrs, Filters: slices.Grow([]query.Predicate(nil), len(w.Filters))}
	for _, wp := range w.Filters {
		p := query.Predicate{Op: wp.Op, Left: query.Operand{Lit: wp.LeftLit}, Right: query.Operand{Lit: wp.RightLit}}
		if wp.LeftCol != "" || wp.LeftAlias != "" {
			p.Left.Col = &query.ColRef{Alias: wp.LeftAlias, Attr: wp.LeftCol}
		}
		if wp.RightCol != "" || wp.RightAls != "" {
			p.Right.Col = &query.ColRef{Alias: wp.RightAls, Attr: wp.RightCol}
		}
		s.Filters = append(s.Filters, p)
	}
	return s
}

// Node hosts one broker over TCP. Outbound traffic flows through per-peer
// send pipelines (pipeline.go); inbound connections are served by one
// decode goroutine each.
type Node struct {
	ID     topology.NodeID
	Broker *pubsub.Broker

	opts Options

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
	dec := gob.NewDecoder(conn)
	for {
		var env Envelope
		if err := dec.Decode(&env); err != nil {
			return
		}
		// A peer that started first may send before Connect has attached it
		// here, and the broker drops a non-neighbor's messages as stragglers
		// of a dead link. Hold the connection until then: TCP flow control
		// bounds what backs up behind it. Detaching does not un-attach, so a
		// dead link's stragglers still meet the broker's guard.
		n.mu.Lock()
		for !n.closed && !n.attached[env.From] {
			n.attach.Wait()
		}
		n.mu.Unlock()
		if env.Kind == MsgBatch {
			if len(env.Batch) == 0 {
				cMalformed.Inc()
				continue
			}
			for i := range env.Batch {
				if env.Batch[i].Kind == MsgBatch {
					cMalformed.Inc() // batches never nest
					continue
				}
				n.dispatch(env.Batch[i])
			}
			continue
		}
		n.dispatch(env)
	}
}

// dispatch hands one protocol envelope to the broker. Called for plain
// envelopes and for each member of a batch — the broker (and anything
// wrapped around it) always sees individual protocol messages, whatever
// framing they arrived in.
func (n *Node) dispatch(env Envelope) {
	switch env.Kind {
	case MsgAdvert:
		n.Broker.AdvertFrom(env.From, env.StreamName, env.Origin, env.Seq)
	case MsgUnadvertise:
		n.Broker.UnadvertFrom(env.From, env.StreamName, env.Origin, env.Seq)
	case MsgSubscribe:
		if env.Sub == nil {
			cMalformed.Inc()
			return
		}
		n.Broker.PropagateFrom(fromWire(env.Sub), env.From)
	case MsgUnsubscribe:
		n.Broker.RetractFrom(env.From, env.SubID, env.Seq)
	case MsgData:
		if env.Tuple == nil {
			cMalformed.Inc()
			return
		}
		n.Broker.RouteFrom(fromWireTuple(env.Tuple), env.From)
	default:
		cUnknownKind.Inc()
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

func (r remotePeer) AdvertFrom(from topology.NodeID, streamName string, origin topology.NodeID, seq uint64) {
	r.n.deliver(r.id, Envelope{Kind: MsgAdvert, From: from, StreamName: streamName, Origin: origin, Seq: seq})
}

func (r remotePeer) UnadvertFrom(from topology.NodeID, streamName string, origin topology.NodeID, seq uint64) {
	r.n.deliver(r.id, Envelope{Kind: MsgUnadvertise, From: from, StreamName: streamName, Origin: origin, Seq: seq})
}

func (r remotePeer) PropagateFrom(sub *pubsub.Subscription, from topology.NodeID) {
	r.n.deliver(r.id, Envelope{Kind: MsgSubscribe, From: from, Sub: toWire(sub)})
}

func (r remotePeer) RetractFrom(from topology.NodeID, id string, seq uint64) {
	r.n.deliver(r.id, Envelope{Kind: MsgUnsubscribe, From: from, SubID: id, Seq: seq})
}

func (r remotePeer) RouteFrom(t stream.Tuple, from topology.NodeID) {
	// A relayed tuple forwarded whole already carries its wire form
	// (fromWireTuple stashed it in Relay; projection would have dropped
	// it). WireTuples are immutable once enqueued, so sharing one across
	// output pipes is safe. The field guard is belt-and-braces against a
	// future caller attaching a stale hint.
	w, ok := t.Relay.(*WireTuple)
	if !ok || w.Stream != t.Stream || w.Timestamp != t.Timestamp ||
		w.Size != t.Size || len(w.Attrs) != len(t.Attrs) {
		w = toWireTuple(t)
	}
	r.n.deliver(r.id, Envelope{Kind: MsgData, From: from, Tuple: w})
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

// Package cosmos is the public API of this COSMOS reproduction — the
// middleware of "Toward Massive Query Optimization in Large-Scale
// Distributed Stream Systems" (Zhou, Aberer, Tan — Middleware 2008).
//
// COSMOS couples a content-based Publish/Subscribe substrate (which
// eliminates duplicate data transfer and filters/projects data as early as
// possible) with a hierarchical query-distribution middleware (which places
// whole continuous queries on processors to balance load and minimize
// weighted communication cost). Queries are written in the paper's CQL
// subset; co-located queries with overlapping results are merged into one
// superset query whose shared result stream is split back per user with
// residual subscriptions (§2.1).
//
// The deployment is dynamic, setup and teardown alike: streams may be
// registered after Start (the source broker joins the running overlay and
// its advertisement re-propagates existing subscriptions toward it) and
// unregistered again (the advert withdrawal floods and every broker prunes
// the routing state the advert justified), queries may be submitted and
// cancelled at any time (cancellation retracts the routing state the
// query's subscriptions installed across the overlay AND removes the
// query's vertex, assignment and load from every level of the coordinator
// tree), and Adapt migrates queries between processors at runtime. The
// Pub/Sub substrate's routing-state lifecycle (internal/pubsub) keeps
// filtering exact under this churn: no ordering of
// advertise/subscribe/unsubscribe/unadvertise loses deliveries or leaves
// stale forwarding state behind — when the last query is cancelled and the
// last stream unregistered, every broker and the coordinator tree drain to
// empty.
//
// Typical use:
//
//	m, _ := cosmos.New(graph, processors, cosmos.Config{})
//	m.RegisterStream(cosmos.StreamDef{Name: "Station1", Source: src, ...})
//	h, _ := m.Submit(`SELECT * FROM Station1 [Now] WHERE snowHeight > 10`,
//		proxy, func(t stream.Tuple) { ... })
//	m.Start()
//	m.Publish(tuple)            // at sources, via the Pub/Sub
//	m.Adapt()                   // periodic runtime re-optimization
//	m.RegisterStream(...)       // late stream: joins the live overlay
//	h.Cancel()                  // done: engine + routing state torn down
package cosmos

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/hierarchy"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/querygraph"
	"repro/internal/stream"
	"repro/internal/topology"
)

// NodeID re-exports the topology node identifier.
type NodeID = topology.NodeID

// Tuple re-exports the stream element type.
type Tuple = stream.Tuple

// Config tunes the middleware.
type Config struct {
	// K is the coordinator-tree cluster-size parameter (default 4).
	K int
	// VMax is the per-coordinator coarsening budget (default 100).
	VMax int
	// Alpha is the load-imbalance slack of Eqn 3.1 (default 0.1).
	Alpha float64
	// Seed drives all randomized decisions (default 1).
	Seed uint64
	// DisableResultSharing turns off §2.1 superset-query merging
	// (used by the sharing ablation).
	DisableResultSharing bool
	// Workers bounds the goroutines used by the hierarchical
	// distribution passes — both the initial Distribute and Adapt's
	// current-placement descent (0 selects GOMAXPROCS, 1 runs
	// sequentially; placements are identical for any value).
	Workers int
}

// StreamDef declares a source stream.
type StreamDef struct {
	Name   string
	Schema stream.Schema
	// Source is the node publishing the stream.
	Source NodeID
	// Substreams is the number of interest partitions (default 1).
	Substreams int
	// RatePerSubstream is the estimated data rate of each substream in
	// bytes/sec, used by the optimizer.
	RatePerSubstream float64
	// AvgTupleBytes sizes tuples for traffic accounting (default 56).
	AvgTupleBytes int
}

// Middleware is a COSMOS instance over a network of processors.
type Middleware struct {
	cfg    Config
	oracle *topology.Oracle
	procs  []NodeID

	mu       sync.Mutex
	registry *stream.Registry
	defs     map[string]StreamDef
	net      *pubsub.Network
	tree     *hierarchy.Tree
	engines  map[NodeID]*engine.Engine
	handles  map[string]*QueryHandle
	started  bool
	nextID   int

	subRates    []float64
	sourceOfSub []NodeID
	// optDim freezes the optimizer's interest-vector dimension at Start:
	// substreams registered later are routed by the Pub/Sub but carry no
	// interest bits until a future full redistribution.
	optDim int

	// crashed tracks source brokers removed by CrashBroker and not yet
	// rejoined; streams they publish are unreachable meanwhile.
	crashed map[NodeID]bool

	// wiring is what each processor runs: sharing groups and input
	// subscriptions (wire.go).
	wiring map[NodeID]*procWiring
	// residuals maps query name -> how to split its result from the
	// shared result stream.
	residuals map[string]residualInfo
}

// New creates a middleware over the given topology and processor set.
func New(g *topology.Graph, processors []NodeID, cfg Config) (*Middleware, error) {
	if len(processors) == 0 {
		return nil, fmt.Errorf("cosmos: no processors")
	}
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.VMax == 0 {
		cfg.VMax = 100
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Middleware{
		cfg:       cfg,
		oracle:    topology.NewOracle(g),
		procs:     append([]NodeID(nil), processors...),
		registry:  stream.NewRegistry(),
		defs:      make(map[string]StreamDef),
		engines:   make(map[NodeID]*engine.Engine),
		handles:   make(map[string]*QueryHandle),
		crashed:   make(map[NodeID]bool),
		wiring:    make(map[NodeID]*procWiring),
		residuals: make(map[string]residualInfo),
	}, nil
}

// RegisterStream declares a source stream. Streams registered before Start
// are batch-wired by it; a stream registered on a running middleware joins
// dynamically: its source broker attaches to the live overlay (a new MST
// leaf link) and the advertisement floods, re-propagating any existing
// subscriptions toward the new publisher, so queries submitted afterwards —
// or already waiting on the stream name — route correctly. Substreams
// registered after Start are routed exactly by the Pub/Sub but do not
// contribute optimizer interest bits until the next full redistribution
// (the coordinator tree's interest dimension is frozen at Start).
// Re-registering a name withdrawn by UnregisterStream revives it (original
// schema and substream slots, possibly a new source); re-registering a live
// name is an error.
func (m *Middleware) RegisterStream(def StreamDef) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, live := m.defs[def.Name]; live {
		return fmt.Errorf("cosmos: stream %q already registered", def.Name)
	}
	if m.started && m.crashed[def.Source] {
		return fmt.Errorf("cosmos: source broker %d is crashed (rejoin it first)", def.Source)
	}
	if prev, ok := m.registry.Lookup(def.Name); ok {
		// Reviving a previously unregistered stream: its substream slots
		// (and their recorded rates) are fixed in the frozen interest
		// space, so the original schema and partitioning stay; the
		// source may move — the (possibly new) source broker joins the
		// live overlay and the re-advertisement replays the waiting
		// subscriptions toward it. A revival that tries to CHANGE the
		// frozen shape (an explicitly supplied schema or substream count
		// differing from the original) is rejected, not silently ignored.
		if len(def.Schema.Attrs) > 0 && !reflect.DeepEqual(def.Schema, prev.Schema) {
			return fmt.Errorf("cosmos: stream %q revival changes the schema (unregister keeps the original)", def.Name)
		}
		if def.Substreams > 0 && def.Substreams != prev.SubCount {
			return fmt.Errorf("cosmos: stream %q revival changes substreams %d -> %d (slots are frozen)",
				def.Name, prev.SubCount, def.Substreams)
		}
		if def.AvgTupleBytes > 0 && def.AvgTupleBytes != prev.AvgTuple {
			return fmt.Errorf("cosmos: stream %q revival changes avg tuple bytes %d -> %d (frozen with the slots)",
				def.Name, prev.AvgTuple, def.AvgTupleBytes)
		}
		// RatePerSubstream is advisory only here: the optimizer's rate
		// vector is frozen with the interest space, so the recorded
		// original rates keep applying until a full redistribution.
		def.Schema = prev.Schema
		def.Substreams = prev.SubCount
		def.AvgTupleBytes = prev.AvgTuple
		m.defs[def.Name] = def
		if m.started {
			b := m.net.AddBroker(def.Source)
			b.Advertise(def.Name)
		}
		return nil
	}
	if def.Substreams <= 0 {
		def.Substreams = 1
	}
	if def.AvgTupleBytes <= 0 {
		def.AvgTupleBytes = 56
	}
	s, err := m.registry.Register(def.Name, def.Schema, def.Substreams, def.AvgTupleBytes)
	if err != nil {
		return err
	}
	m.defs[def.Name] = def
	_, count := s.SubstreamRange()
	for range count {
		m.subRates = append(m.subRates, def.RatePerSubstream)
		m.sourceOfSub = append(m.sourceOfSub, def.Source)
	}
	if m.started {
		b := m.net.AddBroker(def.Source)
		b.Advertise(def.Name)
	}
	return nil
}

// UnregisterStream withdraws a registered stream: its advertisement floods
// off the overlay (pruning, at every broker, the advert state and the
// subscription records it alone justified — see pubsub.Broker.Unadvertise),
// and tuples can no longer be published on it. Queries referencing the
// stream stay submitted; their input subscriptions simply receive nothing
// until the stream is registered again, which re-advertises it and replays
// the waiting subscriptions toward the publisher. The optimizer statistics
// are frozen like registration-after-Start: the stream's substream rates
// keep their slots in the interest space until the next full
// redistribution. Unregistering an unknown stream is an error; a second
// unregistration of the same stream is therefore also an error (the first
// already removed it).
func (m *Middleware) UnregisterStream(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	def, ok := m.defs[name]
	if !ok {
		return fmt.Errorf("cosmos: unknown stream %q", name)
	}
	delete(m.defs, name)
	if m.started {
		m.net.RemoveStream(def.Source, name)
	}
	return nil
}

// QueryHandle tracks one submitted query.
type QueryHandle struct {
	Name  string
	Query *query.Query
	Proxy NodeID

	m    *Middleware
	sink func(Tuple)
	info querygraph.QueryInfo

	delivered atomic.Int64

	mu        sync.Mutex
	processor NodeID
}

// Processor returns the processor currently evaluating the query.
func (h *QueryHandle) Processor() NodeID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.processor
}

// Delivered returns how many result tuples reached the user.
func (h *QueryHandle) Delivered() int64 { return h.delivered.Load() }

// Cancel withdraws the query from the middleware: the user-side result
// subscription is unsubscribed at the proxy (retracting its routing state
// across the overlay); the query leaves its sharing group, which is refolded
// from the members that remain or dropped with the last, while every other
// group keeps running with its windows; the union filters of the streams the
// group reads are recomputed and sent where they changed; and the
// coordinator tree removes the query's graph vertex, assignment entry and
// load contribution at every level (hierarchy.Tree.Remove). Cancelling a
// handle that was already cancelled is a no-op and reports success, as does
// cancelling before Start (the query simply leaves the pending batch).
func (h *QueryHandle) Cancel() error {
	m := h.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.handles[h.Name]; !ok {
		return nil // already cancelled: idempotent
	}
	delete(m.handles, h.Name)
	delete(m.residuals, h.Name)
	h.mu.Lock()
	proc := h.processor
	h.processor = -1
	h.mu.Unlock()
	if !m.started {
		return nil
	}
	m.tree.Remove(h.Name)
	if pb, ok := m.net.Broker(h.Proxy); ok {
		pb.Unsubscribe("user/" + h.Name)
	}
	if proc >= 0 {
		return m.rewireWithUsers(proc)
	}
	return nil
}

// Cancelled reports whether the query has been withdrawn.
func (h *QueryHandle) Cancelled() bool {
	m := h.m
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.handles[h.Name]
	return !ok
}

// Submit parses and registers a continuous query whose results are
// delivered to sink at the given proxy processor. Queries submitted before
// Start are batch-distributed by Start; later submissions are routed online
// through the coordinator tree (§3.6). The tuple a sink receives is
// read-only: its attribute map may be the one other users of the same result
// receive (§2.1 result sharing hands out the engine's own map), so a sink
// that wants to change it copies it first (Tuple.Clone). Keeping it is fine.
func (m *Middleware) Submit(cql string, proxy NodeID, sink func(Tuple)) (*QueryHandle, error) {
	q, err := query.Parse(cql)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.isProcessor(proxy) {
		return nil, fmt.Errorf("cosmos: proxy %d is not a processor", proxy)
	}
	q.Name = fmt.Sprintf("Q%d", m.nextID)
	m.nextID++
	info, err := m.compile(q, proxy)
	if err != nil {
		return nil, err
	}
	h := &QueryHandle{
		Name:      q.Name,
		Query:     q,
		Proxy:     proxy,
		m:         m,
		sink:      sink,
		info:      info,
		processor: -1,
	}
	m.handles[q.Name] = h

	if m.started {
		proc, err := m.tree.Insert(info)
		if err != nil {
			return nil, err
		}
		h.processor = proc
		if err := m.rewireWithUsers(proc); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// compile derives the optimizer's view of a query: substream interest over
// its FROM streams, load and result-rate estimates.
func (m *Middleware) compile(q *query.Query, proxy NodeID) (querygraph.QueryInfo, error) {
	dim := len(m.subRates)
	if m.started {
		dim = m.optDim
	}
	interest := bitvec.New(dim)
	var inputRate float64
	for _, name := range q.StreamNames() {
		s, ok := m.registry.Lookup(name)
		if !ok {
			return querygraph.QueryInfo{}, fmt.Errorf("cosmos: query references unknown stream %q", name)
		}
		first, count := s.SubstreamRange()
		for i := 0; i < count; i++ {
			interest.Set(first + i)
			inputRate += m.subRates[first+i]
		}
		// Validate attribute references against the schema.
		for _, p := range q.Where {
			for _, col := range []*query.ColRef{p.Left.Col, p.Right.Col} {
				if col == nil {
					continue
				}
				ref, ok := q.RefByAlias(col.Alias)
				if !ok || ref.Stream != name {
					continue
				}
				if !s.Schema.HasAttr(col.Attr) {
					return querygraph.QueryInfo{}, fmt.Errorf(
						"cosmos: stream %q has no attribute %q", name, col.Attr)
				}
			}
		}
	}
	return querygraph.QueryInfo{
		Name:       q.Name,
		Proxy:      proxy,
		Load:       0.001 * inputRate,
		Interest:   interest,
		ResultRate: 0.1 * inputRate,
		StateSize:  inputRate,
	}, nil
}

// Start distributes the pending queries, builds the Pub/Sub overlay and the
// per-processor engines, and wires all subscriptions.
func (m *Middleware) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return fmt.Errorf("cosmos: already started")
	}
	if len(m.defs) == 0 {
		return fmt.Errorf("cosmos: no streams registered")
	}

	// Broker overlay spans processors and source nodes.
	nodeSet := make(map[NodeID]bool, len(m.procs)+len(m.defs))
	for _, p := range m.procs {
		nodeSet[p] = true
	}
	for _, def := range m.defs {
		nodeSet[def.Source] = true
	}
	nodes := make([]NodeID, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	net, err := pubsub.NewNetwork(m.oracle, nodes)
	if err != nil {
		return err
	}
	m.net = net
	// Sources advertise their streams; processors advertise the result
	// streams they may create.
	for _, def := range m.defs {
		b, _ := net.Broker(def.Source)
		b.Advertise(def.Name)
	}
	for _, p := range m.procs {
		b, _ := net.Broker(p)
		b.Advertise(resultStreamName(p))
		m.engines[p] = engine.New()
		m.wiring[p] = &procWiring{eng: m.engines[p], broker: b, groups: query.NewGroups(!m.cfg.DisableResultSharing), inputs: make(map[string]*pubsub.Subscription)}
	}

	// Distribute the batch.
	m.optDim = len(m.subRates)
	tree, err := hierarchy.Build(m.oracle, m.procs, nil, hierarchy.Config{
		K: m.cfg.K, VMax: m.cfg.VMax, Alpha: m.cfg.Alpha, Seed: m.cfg.Seed,
		Workers: m.cfg.Workers,
	})
	if err != nil {
		return err
	}
	m.tree = tree
	infos := make([]querygraph.QueryInfo, 0, len(m.handles))
	names := make([]string, 0, len(m.handles))
	for name := range m.handles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		infos = append(infos, m.handles[name].info)
	}
	if len(infos) > 0 {
		if _, err := tree.Distribute(infos, m.subRates, m.sourceOfSub); err != nil {
			return err
		}
	} else if _, err := tree.Distribute(nil, m.subRates, m.sourceOfSub); err != nil {
		return err
	}
	for name, proc := range tree.Placement() {
		if h, ok := m.handles[name]; ok {
			h.processor = proc
		}
	}
	m.started = true

	// Wire every processor and every user: the change from empty.
	return m.rewireWithUsers(m.procs...)
}

// Publish injects a source tuple at its stream's source broker.
func (m *Middleware) Publish(t Tuple) error {
	m.mu.Lock()
	def, ok := m.defs[t.Stream]
	net := m.net
	down := ok && m.crashed[def.Source]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("cosmos: unknown stream %q", t.Stream)
	}
	if net == nil {
		return fmt.Errorf("cosmos: not started")
	}
	if down {
		return fmt.Errorf("cosmos: stream %q source broker %d is crashed", t.Stream, def.Source)
	}
	if t.Size == 0 {
		t.Size = def.AvgTupleBytes
	}
	b, ok := net.Broker(def.Source)
	if !ok {
		return fmt.Errorf("cosmos: no broker at source %d", def.Source)
	}
	b.Publish(t)
	return nil
}

// Adapt runs one hierarchical adaptation round and migrates queries whose
// processor changed. Only the processors a migration left or reached are
// rewired, in ascending order, and only the users whose split changed
// subscribe again; a group no migration changed keeps its windows.
func (m *Middleware) Adapt() (migrations int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		return 0, fmt.Errorf("cosmos: not started")
	}
	rep, err := m.tree.Adapt(nil)
	if err != nil {
		return 0, err
	}
	touched := make(map[NodeID]bool)
	for name, proc := range m.tree.Placement() {
		h, ok := m.handles[name]
		if !ok {
			continue
		}
		if h.processor != proc {
			touched[h.processor] = true
			touched[proc] = true
			h.processor = proc
		}
	}
	return rep.Migrations, m.rewireWithUsers(slices.Sorted(maps.Keys(touched))...)
}

// CrashBroker simulates the ungraceful failure of a source broker: the
// broker vanishes without unadvertising or retracting anything. Its former
// neighbors detach the dead link — withdrawing every advert and
// subscription record learned through it, exactly as if the withdrawals had
// been sent — and the overlay re-attaches around the gap
// (pubsub.Network.RemoveBroker). Streams published at the crashed broker
// become unreachable (Publish errors, RegisterStream at that source is
// refused) until RejoinBroker. Crashing a processor node is refused:
// processor failure would orphan engine state and query placements, whose
// recovery is a separate concern (see ROADMAP).
func (m *Middleware) CrashBroker(n NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		return fmt.Errorf("cosmos: not started")
	}
	if m.isProcessor(n) {
		return fmt.Errorf("cosmos: broker %d hosts a processor (processor crash recovery is not supported)", n)
	}
	if m.crashed[n] {
		return fmt.Errorf("cosmos: broker %d already crashed", n)
	}
	if !m.net.RemoveBroker(n) {
		return fmt.Errorf("cosmos: no broker at node %d", n)
	}
	m.crashed[n] = true
	return nil
}

// RejoinBroker brings a crashed source broker back: a fresh broker attaches
// to the live overlay (its attach link resyncs the surviving advert state
// and replays waiting subscriptions — pubsub.Network.AddBroker) and every
// stream still registered at that source re-advertises under a new epoch,
// re-propagating existing subscriptions toward the publisher. The healed
// overlay is state-equivalent to one where the broker never crashed.
func (m *Middleware) RejoinBroker(n NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.crashed[n] {
		return fmt.Errorf("cosmos: broker %d is not crashed", n)
	}
	delete(m.crashed, n)
	b := m.net.AddBroker(n)
	names := make([]string, 0, 2)
	for name, def := range m.defs {
		if def.Source == n {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b.Advertise(name)
	}
	return nil
}

// Traffic returns the Pub/Sub substrate's traffic report.
func (m *Middleware) Traffic() pubsub.TrafficReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.net == nil {
		return pubsub.TrafficReport{}
	}
	return m.net.Traffic()
}

// EngineStats sums engine counters across processors.
func (m *Middleware) EngineStats() engine.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total engine.Stats
	for _, e := range m.engines {
		s := e.Stats()
		total.Consumed += s.Consumed
		total.Emitted += s.Emitted
		total.Dropped += s.Dropped
	}
	return total
}

// Placement returns the current query→processor map.
func (m *Middleware) Placement() map[string]NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]NodeID, len(m.handles))
	for name, h := range m.handles {
		out[name] = h.processor
	}
	return out
}

func (m *Middleware) isProcessor(n NodeID) bool {
	for _, p := range m.procs {
		if p == n {
			return true
		}
	}
	return false
}

func resultStreamName(p NodeID) string { return fmt.Sprintf("results@%d", p) }

package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/nodeconfig"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/transport"
)

// service is one deployable cosmos-node: a transport node plus the ops
// surface (HTTP listener, readiness, graceful drain) wrapped around it.
// newService binds every listener, so addresses are known before Start;
// Start wires the overlay and begins publishing; Shutdown drains and closes.
type service struct {
	cfg *nodeconfig.Config
	log *slog.Logger

	node *transport.Node
	ops  *opsServer // nil when ops-listen is empty

	// ready flips true once startup has observed the overlay state it was
	// waiting for: configured peers reachable and, for a subscriber, the
	// subscribed stream's advert flood arrived (the condition the old
	// hard-coded sleeps approximated). Readiness is observational — the
	// subscription itself is installed immediately, since
	// subscribe-before-advertise re-propagates correctly.
	ready atomic.Bool

	sub      *pubsub.Subscription // parsed subscription, nil if none
	stopCh   chan struct{}
	doneCh   chan struct{} // publisher/watcher goroutines exited
	shutDown atomic.Bool
}

func newService(cfg *nodeconfig.Config, log *slog.Logger) (*service, error) {
	node, err := transport.NewNodeWith(topology.NodeID(cfg.NodeID), cfg.Listen, transport.Options{
		BatchSize:         cfg.BatchSize,
		ControlQueueDepth: cfg.QueueDepth,
		DataQueueDepth:    cfg.QueueDepth,
		Logger:            log,
	})
	if err != nil {
		return nil, err
	}
	node.Broker.SetLogger(log)
	s := &service{
		cfg:    cfg,
		log:    log,
		node:   node,
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	if cfg.Subscribe != "" {
		s.sub, err = parseSubscription(fmt.Sprintf("n%d", cfg.NodeID), cfg.Subscribe)
		if err != nil {
			_ = node.Close() //lint:errdrop constructor failure path; the config error is the one reported
			return nil, err
		}
	}
	if cfg.OpsListen != "" {
		s.ops, err = newOpsServer(s, cfg.OpsListen)
		if err != nil {
			_ = node.Close() //lint:errdrop constructor failure path; the listen error is the one reported
			return nil, err
		}
	}
	return s, nil
}

// Addr is the overlay listen address (resolved, so ":0" works in tests).
func (s *service) Addr() string { return s.node.Addr() }

// OpsAddr is the ops HTTP address, or "" when the ops server is disabled.
func (s *service) OpsAddr() string {
	if s.ops == nil {
		return ""
	}
	return s.ops.addr()
}

// Start wires the overlay and begins the node's work: connect configured
// peers, wait (bounded) for their listeners, install the subscription,
// advertise, start the synthetic publisher and the readiness watcher. It
// returns once the node is operational; readiness may still be pending.
func (s *service) Start() error {
	if s.ops != nil {
		s.ops.serve()
		s.log.Info("ops listening", "addr", s.ops.addr())
	}
	s.log.Info("node listening", "addr", s.node.Addr())

	for _, p := range s.cfg.Peers {
		s.node.Connect(topology.NodeID(p.ID), p.Addr)
		s.log.Info("peer configured", "peer", p.ID, "addr", p.Addr)
	}

	s.waitForPeers()

	// Subscribe before advertising: correct since advert arrival replays
	// recorded subscriptions toward the publisher (re-propagation), which
	// is exactly what the removed startup sleeps used to paper over.
	if s.sub != nil {
		err := s.node.Broker.Subscribe(s.sub, func(_ *pubsub.Subscription, t stream.Tuple) {
			s.log.Info("delivery", "stream", t.Stream, "ts", t.Timestamp, "attrs", formatAttrs(t))
		})
		if err != nil {
			return err
		}
		s.log.Info("subscribed", "expr", s.cfg.Subscribe)
	}

	streams := append([]string(nil), s.cfg.Advertise...)
	if s.cfg.Publish != "" && len(streams) == 0 {
		streams = []string{s.cfg.Publish}
	}
	for _, name := range streams {
		s.node.Broker.Advertise(name)
		s.log.Info("advertised", "stream", name)
	}

	go s.background()
	return nil
}

// waitForPeers probes each configured peer's TCP listener until reachable,
// bounded by peer-wait overall. Replaces the old fixed 500ms sleep: the node
// proceeds the moment its neighbors actually accept connections, and a peer
// that stays down only costs the bound (the send pipelines retry dialing on
// their own, so startup order never deadlocks).
func (s *service) waitForPeers() {
	if s.cfg.PeerWait <= 0 || len(s.cfg.Peers) == 0 {
		return
	}
	deadline := time.Now().Add(s.cfg.PeerWait)
	for _, p := range s.cfg.Peers {
		for {
			conn, err := net.DialTimeout("tcp", p.Addr, time.Second)
			if err == nil {
				//lint:errdrop reachability probe; the connection is discarded unused
				_ = conn.Close()
				s.log.Info("peer reachable", "peer", p.ID, "addr", p.Addr)
				break
			}
			if time.Now().After(deadline) {
				s.log.Warn("peer wait timed out, continuing", "peer", p.ID, "addr", p.Addr, "err", err)
				return
			}
			select {
			case <-s.stopCh:
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}
}

// background runs the readiness watcher and the synthetic publisher until
// Shutdown. One goroutine: the publisher tick doubles as the readiness poll
// interval's upper bound, and a subscriber-only node just polls.
func (s *service) background() {
	defer close(s.doneCh)

	var gen *trace.Generator
	var tick *time.Ticker
	if s.cfg.Publish != "" {
		g, err := trace.New(trace.Config{
			Stations:     4,
			Deployments:  1,
			PeriodMillis: s.cfg.Period.Milliseconds(),
			Seed:         uint64(s.cfg.NodeID) + 1,
		})
		if err != nil {
			s.log.Error("trace generator failed, not publishing", "err", err)
		} else {
			gen = g
			tick = time.NewTicker(s.cfg.Period)
			defer tick.Stop()
			s.log.Info("publishing", "stream", s.cfg.Publish, "period", s.cfg.Period.String())
		}
	}

	readyPoll := time.NewTicker(25 * time.Millisecond)
	defer readyPoll.Stop()
	readyCh := readyPoll.C
	var tickCh <-chan time.Time
	if tick != nil {
		tickCh = tick.C
	}
	for {
		select {
		case <-s.stopCh:
			return
		case <-readyCh:
			if s.updateReady() {
				readyPoll.Stop()
				readyCh = nil // done: a nil channel never fires
			}
		case <-tickCh:
			for _, t := range gen.Next() {
				t.Stream = s.cfg.Publish
				s.node.Broker.Publish(t)
			}
			if s.log.Enabled(context.Background(), slog.LevelDebug) {
				data, ctrl := s.node.SentBytes()
				s.log.Debug("tick", "data_bytes", int64(data), "control_bytes", int64(ctrl))
			}
		}
	}
}

// updateReady computes and records readiness; returns true once ready so the
// poll can stop. Ready means: every subscribed stream's advert has arrived
// (subscriber nodes), which is the overlay state data delivery depends on.
// Nodes with no subscription are ready as soon as startup finished.
func (s *service) updateReady() bool {
	if s.ready.Load() {
		return true
	}
	if s.sub != nil {
		for _, name := range s.sub.Streams {
			if !s.node.Broker.StreamAdvertised(name) {
				return false
			}
		}
		s.log.Info("ready", "reason", "subscribed streams advertised")
	} else {
		s.log.Info("ready", "reason", "startup complete")
	}
	s.ready.Store(true)
	return true
}

// Shutdown drains the node off the overlay and closes it: stop publishing,
// retract local subscriptions and withdraw adverts (Broker.Drain — the
// retraction/withdrawal floods remove this node's routing state from every
// survivor), flush the send pipelines so those floods are on the wire, then
// close sockets. The whole drain is bounded by drain-timeout; on timeout the
// node closes anyway (crash-equivalent, the overlay's chaos path handles it).
func (s *service) Shutdown() {
	if !s.shutDown.CompareAndSwap(false, true) {
		return
	}
	close(s.stopCh)
	<-s.doneCh

	done := make(chan struct{})
	go func() {
		s.node.Broker.Drain()
		s.node.Flush()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drained")
	case <-time.After(s.cfg.DrainTimeout):
		s.log.Warn("drain timed out, closing anyway", "timeout", s.cfg.DrainTimeout.String())
	}
	s.Close()
}

// Close releases listeners and connections without draining (Shutdown calls
// it last; tests use it directly for teardown).
func (s *service) Close() {
	if s.ops != nil {
		s.ops.close()
	}
	if err := s.node.Close(); err != nil {
		s.log.Warn("close", "err", err)
	}
}

// formatAttrs renders a delivered tuple's attributes name-sorted, so log
// lines are stable across runs.
func formatAttrs(t stream.Tuple) string {
	names := make([]string, 0, len(t.Attrs))
	for name := range t.Attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		v := t.Attrs[name]
		b.WriteString(name)
		b.WriteByte('=')
		if v.Type == stream.String {
			b.WriteString(v.S)
		} else {
			b.WriteString(strconv.FormatFloat(v.F, 'g', -1, 64))
		}
	}
	return b.String()
}

// parseSubscription reads a CQL query over exactly one stream, e.g.
// "SELECT * FROM Station1 WHERE snowHeight >= 0", as a subscription: its
// selections become the filters (alias stripped, column on the left), its
// select list the projection (nil for *). The projection also keeps every
// filtered column, as the middleware's neededAttrs does: brokers cut a
// forwarded tuple down to it and filter again at the next hop. A
// column-vs-column predicate has no filter form and is rejected; a window
// is ignored, since delivery keeps no state.
func parseSubscription(id, s string) (*pubsub.Subscription, error) {
	q, err := query.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("bad subscription %q: %w", s, err)
	}
	if len(q.From) != 1 {
		return nil, fmt.Errorf("bad subscription %q: want one stream, got %d", s, len(q.From))
	}
	sub := &pubsub.Subscription{ID: id, Streams: []string{q.From[0].Stream}}
	for _, p := range q.Where {
		if !p.IsSelection() {
			return nil, fmt.Errorf("bad subscription %q: %s does not compare a column with a literal", s, p)
		}
		p = p.Normalize()
		p.Left.Col = &query.ColRef{Attr: p.Left.Col.Attr}
		sub.Filters = append(sub.Filters, p)
	}
	for _, p := range q.Select {
		if p.Star {
			sub.Attrs = nil
			break
		}
		sub.Attrs = append(sub.Attrs, p.Col.Attr)
	}
	if sub.Attrs != nil {
		for _, f := range sub.Filters {
			if a := f.Left.Col.Attr; a != "timestamp" && !slices.Contains(sub.Attrs, a) {
				sub.Attrs = append(sub.Attrs, a)
			}
		}
	}
	return sub, nil
}

package pubsub

import (
	"io"
	"log/slog"
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/topology"
)

// Operational counters, registered in the process-wide metrics registry so
// the node's /metrics endpoint (and the soak harnesses) can read them back.
// All are send-side accounted like the fabric byte counters: a suppressed
// subscription is one that covering suppression kept OFF a link, so
// subscriptions_suppressed/(subscriptions_sent+subscriptions_suppressed) is
// the control-plane savings ratio the paper's Fig 5 measures. Every
// propagation decision counts once, wherever it is made — a new
// subscription's, an advert replay's, an un-suppression's — and every
// retraction at every hop it crosses, so the counts do not depend on whether
// subscriptions or adverts arrived first. Each site adds after unlocking
// (sendPends, sendRetractions).
var (
	cRoutedTuples    = metrics.GetCounter("pubsub.routed_tuples")
	cLocalDeliveries = metrics.GetCounter("pubsub.local_deliveries")
	cForwardedTuples = metrics.GetCounter("pubsub.forwarded_tuples")
	cSubscribes      = metrics.GetCounter("pubsub.subscribes")
	cUnsubscribes    = metrics.GetCounter("pubsub.unsubscribes")
	cAdvertises      = metrics.GetCounter("pubsub.advertises")
	cUnadvertises    = metrics.GetCounter("pubsub.unadvertises")
	cSubsSent        = metrics.GetCounter("pubsub.subscriptions_sent")
	cSubsSuppressed  = metrics.GetCounter("pubsub.subscriptions_suppressed")
	cRetractionsSent = metrics.GetCounter("pubsub.retractions_sent")
)

// DiscardLogger is the broker's logger until SetLogger installs one, and the
// transport's when Options.Logger is nil: a handler gated above every level,
// so no record is ever formatted.
var DiscardLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// SetLogger installs a structured logger for the broker's lifecycle events
// (drain, neighbor attach/detach); a nil l discards them again. The broker
// does not stamp lines with its own identity — pass l.With("node", ...) to
// get one, as cmd/cosmos-node does. Safe to call concurrently with broker
// operation — the logger is read with a single atomic load at each logging
// site and is only ever invoked outside the broker mutex.
func (b *Broker) SetLogger(l *slog.Logger) { b.log.Store(l) }

// logger returns the broker's current logger (DiscardLogger before SetLogger).
func (b *Broker) logger() *slog.Logger {
	if l := b.log.Load(); l != nil {
		return l
	}
	return DiscardLogger
}

// Drain gracefully withdraws everything this broker's clients own: every
// local subscription is unsubscribed (retractions chase its records off the
// overlay, covered subscriptions un-suppress) and every own advertisement is
// withdrawn (the withdrawal floods the advert paths and remote brokers prune
// the entries plus the subscription state they alone justified). After Drain
// returns, the rest of the overlay holds no residual routing state for this
// node — the drain-to-empty invariant the lifecycle tests pin down — so a
// SIGTERM'd node can close its links without stranding state. Neighbor links
// themselves are left up; the transport owns flushing and closing them.
func (b *Broker) Drain() {
	b.mu.Lock()
	ids := make([]string, 0, len(b.idx.locals.subs))
	for _, c := range b.idx.locals.subs {
		ids = append(ids, c.sub.ID)
	}
	streams := make([]string, 0, len(b.ownAdverts))
	for s := range b.ownAdverts {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	b.mu.Unlock()
	log := b.logger()
	log.Info("drain begin", "local_subs", len(ids), "own_adverts", len(streams))
	for _, id := range ids {
		b.Unsubscribe(id)
	}
	for _, s := range streams {
		b.Unadvertise(s)
	}
	log.Info("drain done")
}

// StreamAdvertised reports whether anyone — this broker's own clients or any
// origin learned from a neighbor — currently advertises the stream. The
// node's readiness watcher polls this for its subscribed streams: true means
// the advert flood has arrived, so the subscription has a direction to
// propagate toward and data can flow.
func (b *Broker) StreamAdvertised(streamName string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.ownAdverts[streamName]; ok {
		return true
	}
	for _, set := range b.adverts {
		if origins, ok := set[streamName]; ok && len(origins) > 0 {
			return true
		}
	}
	return false
}

// DirState summarizes the routing state recorded for one overlay link — the
// per-link lines of /debug/overlay.dot and the residual-state check the
// node-smoke drain assertion reads.
type DirState struct {
	Neighbor topology.NodeID
	// Subs counts the subscriptions recorded from this direction (the
	// interests living behind the link).
	Subs int
	// Adverts counts the (stream, origin) advertisement entries learned
	// from this direction.
	Adverts int
}

// DirStates reports the per-neighbor routing-state summary in ascending
// neighbor order. A direction's counts drop to zero when everything behind
// it has been withdrawn — after a peer drains, its row reads 0/0.
func (b *Broker) DirStates() []DirState {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]DirState, 0, len(b.neighbors))
	for _, n := range b.neighbors {
		st := DirState{Neighbor: n}
		if d, ok := b.idx.dirs[n]; ok {
			st.Subs = len(d.subs)
		}
		for _, origins := range b.adverts[n] {
			st.Adverts += len(origins)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Neighbor < out[j].Neighbor })
	return out
}

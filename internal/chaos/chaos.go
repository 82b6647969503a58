package chaos //lint:deadcode fault-injection fabric of the chaos tests and the fault-injected churn soak (TestChurnSoakFaults via runSoak)

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/pubsub"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Kind identifies one of the five protocol message types.
type Kind int

const (
	KindAdvert Kind = iota
	KindUnadvert
	KindPropagate
	KindRetract
	KindRoute
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindAdvert:
		return "advert"
	case KindUnadvert:
		return "unadvert"
	case KindPropagate:
		return "propagate"
	case KindRetract:
		return "retract"
	case KindRoute:
		return "route"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ControlKinds returns the four control-plane message kinds — the default
// fault target. Data tuples (KindRoute) are deliberately excluded: the data
// plane makes no idempotence claim, so duplicating a route message would
// (correctly) double a delivery and break equivalence oracles.
func ControlKinds() []Kind {
	return []Kind{KindAdvert, KindUnadvert, KindPropagate, KindRetract}
}

// AllKinds returns every message kind, including data tuples.
func AllKinds() []Kind {
	return []Kind{KindAdvert, KindUnadvert, KindPropagate, KindRetract, KindRoute}
}

// Config parameterises a fault schedule. Drop, Dup and Delay are
// probabilities (their sum must be <= 1); the remainder delivers cleanly.
type Config struct {
	// Seed drives the single PCG stream behind every fate draw.
	Seed uint64
	// Drop is the probability a message is silently lost. Unsound without
	// a following teardown+resync — see the package comment.
	Drop float64
	// Dup is the probability a message is delivered twice back to back
	// (a retransmit burst).
	Dup float64
	// Delay is the probability a message is held back and released only
	// after 1..MaxHold later fabric events — a reordering.
	Delay float64
	// MaxHold bounds how many subsequent events a delayed message can be
	// held past. Zero means 1.
	MaxHold int
	// Kinds selects which message kinds are faulted; nil means
	// ControlKinds(). Crash and partition blackholes apply to ALL kinds
	// regardless — a dead link loses data tuples too.
	Kinds []Kind
}

// Stats counts fate outcomes since the fabric was created.
type Stats struct {
	Delivered  int64 // clean deliveries, including both halves of a duplicate
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Released   int64 // delayed messages that eventually delivered
	Blackholed int64 // lost to a crash or partition window
}

type heldMsg struct {
	deliver func()
	from    topology.NodeID
	to      topology.NodeID
	left    int
}

// Fabric is a pubsub.PeerWrapper implementing the fault schedule. Install
// it with Network.SetPeerWrapper. The zero value is not usable; use New.
type Fabric struct {
	// cosmoslint:guards — fault decisions happen under mu, but held or
	// duplicated messages are delivered to Peers only after release.
	mu      sync.Mutex
	rng     *rand.Rand
	cfg     Config
	kinds   [numKinds]bool
	active  bool
	crashed map[topology.NodeID]bool
	cut     map[[2]topology.NodeID]bool
	held    []heldMsg
	stats   Stats
}

// New builds a fabric from cfg. The fabric starts active (injecting).
func New(cfg Config) *Fabric {
	if cfg.Drop+cfg.Dup+cfg.Delay > 1 {
		panic("chaos: Drop+Dup+Delay exceeds 1")
	}
	if cfg.MaxHold <= 0 {
		cfg.MaxHold = 1
	}
	f := &Fabric{
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15)),
		cfg:     cfg,
		active:  true,
		crashed: make(map[topology.NodeID]bool),
		cut:     make(map[[2]topology.NodeID]bool),
	}
	kinds := cfg.Kinds
	if kinds == nil {
		kinds = ControlKinds()
	}
	for _, k := range kinds {
		if k >= 0 && k < numKinds {
			f.kinds[k] = true
		}
	}
	return f
}

// WrapPeer implements pubsub.PeerWrapper: every protocol message bound for
// broker `to` passes through the fault schedule first.
func (f *Fabric) WrapPeer(to topology.NodeID, p pubsub.Peer) pubsub.Peer {
	return &link{f: f, to: to, p: p}
}

func linkKey(a, b topology.NodeID) [2]topology.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

func (f *Fabric) blackholedLocked(from, to topology.NodeID) bool {
	return f.crashed[from] || f.crashed[to] || f.cut[linkKey(from, to)]
}

// tickLocked advances every held message by one fabric event and removes
// the ones that came due. Due messages whose endpoints died while held are
// blackholed here.
func (f *Fabric) tickLocked() []func() {
	if len(f.held) == 0 {
		return nil
	}
	var due []func()
	kept := f.held[:0]
	for _, m := range f.held {
		m.left--
		if m.left > 0 {
			kept = append(kept, m)
			continue
		}
		if f.blackholedLocked(m.from, m.to) {
			f.stats.Blackholed++
			continue
		}
		f.stats.Released++
		f.stats.Delivered++
		due = append(due, m.deliver)
	}
	f.held = kept
	return due
}

// apply runs one message through the schedule. deliver is invoked outside
// the fabric mutex — broker entry points send synchronously to further
// peers, which re-enters apply.
func (f *Fabric) apply(kind Kind, from, to topology.NodeID, deliver func()) {
	f.mu.Lock()
	if !f.active {
		f.mu.Unlock()
		deliver()
		return
	}
	if f.blackholedLocked(from, to) {
		f.stats.Blackholed++
		f.mu.Unlock()
		return
	}
	if !f.kinds[kind] {
		f.mu.Unlock()
		deliver()
		return
	}
	due := f.tickLocked()
	copies := 1
	fate := f.rng.Float64()
	switch {
	case fate < f.cfg.Drop:
		copies = 0
		f.stats.Dropped++
	case fate < f.cfg.Drop+f.cfg.Dup:
		copies = 2
		f.stats.Duplicated++
	case fate < f.cfg.Drop+f.cfg.Dup+f.cfg.Delay:
		copies = 0
		hold := 1 + f.rng.IntN(f.cfg.MaxHold)
		f.held = append(f.held, heldMsg{deliver: deliver, from: from, to: to, left: hold})
		f.stats.Delayed++
	}
	f.stats.Delivered += int64(copies)
	f.mu.Unlock()
	for i := 0; i < copies; i++ {
		deliver()
	}
	for _, d := range due {
		d()
	}
}

// Flush releases every held message immediately (in hold order) without
// deactivating the schedule. Call before a probe whose oracle assumes all
// control traffic has landed.
func (f *Fabric) Flush() {
	// Loop: delivering a held message re-enters the broker, whose cascade
	// sends pass through the schedule again and may be delayed anew.
	for {
		f.mu.Lock()
		if len(f.held) == 0 {
			f.mu.Unlock()
			return
		}
		held := f.held
		f.held = nil
		var due []func()
		for _, m := range held {
			if f.blackholedLocked(m.from, m.to) {
				f.stats.Blackholed++
				continue
			}
			f.stats.Released++
			f.stats.Delivered++
			due = append(due, m.deliver)
		}
		f.mu.Unlock()
		for _, d := range due {
			d()
		}
	}
}

// Pause flushes held messages and switches the fabric to passthrough.
// Membership repairs (FailLink, RemoveBroker, AddBroker) must run paused so
// the teardown/resync floods are not themselves faulted.
func (f *Fabric) Pause() {
	f.mu.Lock()
	f.active = false
	f.mu.Unlock()
	f.Flush()
}

// Resume re-enables the schedule after a Pause.
func (f *Fabric) Resume() {
	f.mu.Lock()
	f.active = true
	f.mu.Unlock()
}

// Crash blackholes every link incident to n until Heal(n). Messages already
// held for those links are blackholed at release time.
func (f *Fabric) Crash(n topology.NodeID) {
	f.mu.Lock()
	f.crashed[n] = true
	f.mu.Unlock()
}

// Heal lifts a Crash.
func (f *Fabric) Heal(n topology.NodeID) {
	f.mu.Lock()
	delete(f.crashed, n)
	f.mu.Unlock()
}

// PartitionLink blackholes the a-b link in both directions until HealLink.
func (f *Fabric) PartitionLink(a, b topology.NodeID) {
	f.mu.Lock()
	f.cut[linkKey(a, b)] = true
	f.mu.Unlock()
}

// HealLink lifts a PartitionLink.
func (f *Fabric) HealLink(a, b topology.NodeID) {
	f.mu.Lock()
	delete(f.cut, linkKey(a, b))
	f.mu.Unlock()
}

// Stats returns a snapshot of the fate counters.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// link applies the fabric's schedule to one directed peer endpoint.
type link struct {
	f  *Fabric
	to topology.NodeID
	p  pubsub.Peer
}

func (l *link) AdvertFrom(from topology.NodeID, streamName string, origin topology.NodeID, seq uint64) {
	l.f.apply(KindAdvert, from, l.to, func() { l.p.AdvertFrom(from, streamName, origin, seq) })
}

func (l *link) UnadvertFrom(from topology.NodeID, streamName string, origin topology.NodeID, seq uint64) {
	l.f.apply(KindUnadvert, from, l.to, func() { l.p.UnadvertFrom(from, streamName, origin, seq) })
}

func (l *link) PropagateFrom(sub *pubsub.Subscription, from topology.NodeID) {
	l.f.apply(KindPropagate, from, l.to, func() { l.p.PropagateFrom(sub, from) })
}

func (l *link) RetractFrom(from topology.NodeID, id string, seq uint64) {
	l.f.apply(KindRetract, from, l.to, func() { l.p.RetractFrom(from, id, seq) })
}

func (l *link) RouteFrom(t stream.Tuple, from topology.NodeID) {
	l.f.apply(KindRoute, from, l.to, func() { l.p.RouteFrom(t, from) })
}

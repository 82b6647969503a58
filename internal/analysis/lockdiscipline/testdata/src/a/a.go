// Package a is the lockdiscipline fixture: a miniature broker with the
// repo's lock-mutate-unlock-send shape. Sends and Handler callbacks under
// the annotated mutex are flagged, directly and through same-package
// helpers; the compliant entry points and the unannotated mutex stay
// quiet.
package a

import "sync"

type NodeID int

type Peer interface {
	RouteFrom(v int, from NodeID)
	PropagateFrom(sub *int, from NodeID)
}

type Fabric interface {
	Peer(n NodeID) Peer
}

type Handler func(v int)

type Broker struct {
	// mu guards all routing state below. cosmoslint:guards
	mu        sync.Mutex
	net       Fabric
	neighbors []NodeID
	handlers  []Handler
	state     int
}

// Publish is the compliant shape: decide under the lock, send after.
func (b *Broker) Publish(v int) {
	b.mu.Lock()
	b.state = v
	targets := append([]NodeID(nil), b.neighbors...)
	b.mu.Unlock()
	for _, n := range targets {
		b.net.Peer(n).RouteFrom(v, 0)
	}
}

// BadSend sends while holding the mutex: a synchronous neighbor re-entry
// deadlocks right here.
func (b *Broker) BadSend(v int) {
	b.mu.Lock()
	for _, n := range b.neighbors {
		b.net.Peer(n).RouteFrom(v, 0) // want `Peer send RouteFrom while mu is held`
	}
	b.mu.Unlock()
}

// BadDeliver invokes user handlers under a deferred unlock: handlers may
// call back into the broker.
func (b *Broker) BadDeliver(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, h := range b.handlers {
		h(v) // want `callback through Handler while mu is held`
	}
}

// flood reaches a Peer send; calling it under the lock is as bad as
// sending directly.
func (b *Broker) flood(v int) {
	for _, n := range b.neighbors {
		b.net.Peer(n).RouteFrom(v, 0)
	}
}

func (b *Broker) BadTransitive(v int) {
	b.mu.Lock()
	b.state = v
	b.flood(v) // want `call to flood while mu is held .* can reach a send`
	b.mu.Unlock()
}

// BranchUnlock is the unlock-and-return branch pattern: the fall-through
// path still holds the mutex until the explicit Unlock, and the send
// after it is fine.
func (b *Broker) BranchUnlock(v int) {
	b.mu.Lock()
	if v == 0 {
		b.mu.Unlock()
		return
	}
	b.state = v
	b.mu.Unlock()
	b.flood(v)
}

// AsyncRefresh hands the send to a goroutine: the goroutine does not
// inherit the critical section, so nothing is flagged.
func (b *Broker) AsyncRefresh(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = v
	go func(x int) {
		b.flood(x)
	}(v)
}

// Annotated is the escape hatch for a proven-safe site.
func (b *Broker) Annotated(v int) {
	b.mu.Lock()
	//lint:lockdiscipline loopback stub peer, cannot re-enter
	b.net.Peer(0).RouteFrom(v, 0)
	b.mu.Unlock()
}

// ResultSink is the engine's callback shape: a named func type whose name
// contains Sink is a callback exactly as a Handler is.
type ResultSink func(v int)

type Query struct {
	// mu guards window. cosmoslint:guards
	mu     sync.Mutex
	window []int
	sink   ResultSink
}

// BadEmit calls the sink while the query's mutex is held: a sink that feeds
// the result back into the query deadlocks.
func (q *Query) BadEmit(v int) {
	q.mu.Lock()
	q.window = append(q.window, v)
	q.sink(v) // want `callback through ResultSink while mu is held`
	q.mu.Unlock()
}

// Emit detaches the result under the mutex and calls the sink after Unlock.
func (q *Query) Emit(v int) {
	q.mu.Lock()
	q.window = append(q.window, v)
	out := len(q.window)
	q.mu.Unlock()
	q.sink(out)
}

// Quiet has an unannotated mutex: out of scope, nothing is flagged even
// though it sends under lock.
type Quiet struct {
	mu   sync.Mutex
	peer Peer
}

func (q *Quiet) Send(v int) {
	q.mu.Lock()
	q.peer.RouteFrom(v, 0)
	q.mu.Unlock()
}

// Package seeded violates every cosmoslint analyzer exactly once. The
// cmd/cosmoslint test runs the real multichecker over this package and
// asserts each analyzer fires — the executable proof that a freshly
// introduced violation fails the CI lint step.
//
//cosmoslint:deterministic
package seeded // deadcode: no non-test file imports this package

import (
	"encoding/gob"
	"math/rand"
	"sync"
)

type NodeID int

type Peer interface {
	RouteFrom(v int, from NodeID)
}

type Broker struct {
	// cosmoslint:guards
	mu    sync.Mutex
	peers map[NodeID]Peer
}

// maporder + lockdiscipline: a Peer send inside a map range, under the
// guarded mutex.
func (b *Broker) FloodUnderLock(v int) {
	b.mu.Lock()
	for _, p := range b.peers {
		p.RouteFrom(v, 0)
	}
	b.mu.Unlock()
}

var bufPool = sync.Pool{New: func() any { return new([]byte) }}
var keep *[]byte

// poolescape: the pooled buffer outlives the Put via a package variable.
func Borrow() {
	buf := bufPool.Get().(*[]byte)
	keep = buf
	bufPool.Put(buf)
}

// errdrop: a discarded gob encode error.
func Encode(enc *gob.Encoder, v any) {
	_ = enc.Encode(v)
}

// nondeterminism: a draw from the process-global rand source.
func Jitter() int {
	return rand.Intn(100)
}

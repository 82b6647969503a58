// Package clean exercises the same machinery as the seeded fixture —
// map ranges, a guarded mutex, a pool, wire encoding, randomness — in the
// compliant shapes. The cmd/cosmoslint test asserts zero findings.
//
//cosmoslint:deterministic
package clean //lint:deadcode fixture: only TestCleanFixturePasses loads it

import (
	"encoding/gob"
	"fmt"
	"math/rand/v2"
	"sort"
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

// Flood decides under the lock and sends after, in sorted peer order.
func (b *Broker) Flood(v int) {
	b.mu.Lock()
	ids := make([]int, 0, len(b.peers))
	for id := range b.peers {
		ids = append(ids, int(id))
	}
	targets := make([]Peer, 0, len(ids))
	sort.Ints(ids)
	for _, id := range ids {
		targets = append(targets, b.peers[NodeID(id)])
	}
	b.mu.Unlock()
	for i, p := range targets {
		p.RouteFrom(v, NodeID(ids[i]))
	}
}

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// Borrow copies out of the pooled buffer before returning it.
func Borrow() []byte {
	buf := bufPool.Get().(*[]byte)
	out := make([]byte, len(*buf))
	copy(out, *buf)
	bufPool.Put(buf)
	return out
}

// Encode surfaces the encode error.
func Encode(enc *gob.Encoder, v any) error {
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	return nil
}

// Jitter draws from a seeded source.
func Jitter(seed uint64) int {
	rng := rand.New(rand.NewPCG(seed, 41))
	return rng.IntN(100)
}

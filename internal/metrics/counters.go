package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing operational counter of one
// Registry. Every add also lands on the same-named counter in Default.
type Counter struct {
	v      atomic.Int64
	rollup *Counter // the same-named counter in Default; nil in Default
	_      [48]byte // pads to a cache line: adds from other cores land apart
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (d must be >= 0; counters only go up).
func (c *Counter) Add(d int64) {
	c.v.Add(d)
	if c.rollup != nil {
		c.rollup.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry holds one instance's counters by name. Each pubsub.Broker owns
// one, and a transport node registers its counters in its broker's, so one
// node is one registry. The zero value is empty and ready to use.
type Registry struct {
	counters sync.Map // name → *Counter
}

// Default sums every other registry's counters over the process, for
// Counters() alone. Only the roll-up in Counter.Add writes it.
var Default = new(Registry)

// Counter returns the registry's counter with the given name, creating it at
// zero on first use. Safe for concurrent use; the returned pointer is
// stable, so hot paths look it up once and keep it.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	if r != Default {
		c.rollup = Default.Counter(name)
	}
	got, _ := r.counters.LoadOrStore(name, c)
	return got.(*Counter)
}

// Snapshot reads every counter of the registry by name.
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	r.counters.Range(func(name, c any) bool {
		out[name.(string)] = c.(*Counter).Value()
		return true
	})
	return out
}

// Counters snapshots Default: each counter name summed over every registry
// the process has created. Counters never reset.
func Counters() map[string]int64 { return Default.Snapshot() }

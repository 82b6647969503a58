package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing operational counter. Counters exist
// so fault-injection runs can account for every message a component dropped,
// retried or failed to deliver instead of losing them silently: the chaos
// and transport layers increment them on each such event and the soak
// harnesses read them back through Counters().
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registry name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be >= 0; counters only go up).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

var (
	countersMu sync.Mutex
	counters   = make(map[string]*Counter)
)

// GetCounter returns the process-wide counter with the given name, creating
// it on first use. Safe for concurrent use; the returned pointer is stable,
// so hot paths should look it up once and keep it.
func GetCounter(name string) *Counter {
	countersMu.Lock()
	defer countersMu.Unlock()
	c, ok := counters[name]
	if !ok {
		c = &Counter{name: name}
		counters[name] = c
	}
	return c
}

// Counters snapshots every registered counter, sorted by name. Counters are
// process-wide and never reset; tests assert on deltas.
func Counters() map[string]int64 {
	countersMu.Lock()
	defer countersMu.Unlock()
	out := make(map[string]int64, len(counters))
	for name, c := range counters {
		out[name] = c.Value()
	}
	return out
}

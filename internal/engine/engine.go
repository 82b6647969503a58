// Package engine is the continuous-query execution engine that plays the
// role GSN plays in the paper's prototype (§4.2): it runs the CQL-subset
// queries — selections, projections, and sliding-window joins — over live
// tuples and emits result streams. COSMOS places queries on processors;
// each processor runs one Engine fed by the Pub/Sub substrate.
//
// A query is compiled once, at AddQuery, into a plan (plan.go): aliases
// become slice positions, predicates (position, attribute) tests — each join
// predicate placed at the shallowest probe level where both sides are bound
// — and the select list starred positions plus columns carrying their
// qualified output name. Process runs the plan under the query's own mutex;
// there is no engine-wide lock on the data path, so the queries of one
// processor evaluate in parallel (CONCURRENCY.md, "The engines").
package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/stream"
)

// ResultSink receives the result tuples of one query. It is called outside
// every engine lock and may call back into the engine.
type ResultSink func(t stream.Tuple)

// Stats counts an engine's activity.
type Stats struct {
	Consumed int64 // input tuples processed
	Emitted  int64 // result tuples produced
	// Dropped counts (tuple, alias) pairs that failed the alias's
	// selections: a tuple is counted once per alias of every interested
	// query that rejects it, so Dropped may exceed Consumed.
	Dropped int64
}

// Engine hosts running continuous queries.
type Engine struct {
	// mu serialises AddQuery/RemoveQuery and guards queries; not for Process.
	mu      sync.Mutex
	queries map[string]*running
	// byInput maps a stream name to the queries reading it, copy-on-write:
	// Process ranges over a frozen slice; AddQuery/RemoveQuery publish a
	// fresh map under mu. A stream's key goes with its last query.
	byInput atomic.Pointer[map[string][]*running]

	consumed, emitted, dropped atomic.Int64
}

// New returns an empty engine.
func New() *Engine {
	e := &Engine{queries: make(map[string]*running)}
	e.byInput.Store(&map[string][]*running{})
	return e
}

// AddQuery compiles a query into its plan and starts it. resultName names
// the emitted result stream; sink receives result tuples (may be nil to
// discard). The query must be valid and must not be registered already. q is
// read during the call only.
func (e *Engine) AddQuery(q *query.Query, resultName string, sink ResultSink) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if q.Name == "" {
		return fmt.Errorf("engine: query needs a name")
	}
	r, err := compile(q, resultName, sink)
	if err != nil {
		return err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.queries[q.Name]; dup {
		return fmt.Errorf("engine: query %q already running", q.Name)
	}
	e.queries[q.Name] = r
	e.retable(r, true)
	return nil
}

// RemoveQuery stops a query and discards its window state. It returns the
// total operator state (tuples buffered) released, which models the
// migration payload of §3.7. A Process call running concurrently may still
// deliver the results it had computed before the removal; none starts on the
// query afterwards.
func (e *Engine) RemoveQuery(name string) (stateTuples int, err error) {
	e.mu.Lock()
	r, ok := e.queries[name]
	if ok {
		delete(e.queries, name)
		e.retable(r, false)
	}
	e.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("engine: query %q not running", name)
	}
	return r.state(true), nil
}

// retable publishes the input table with r added to (or removed from) the
// streams it reads. Caller holds e.mu.
func (e *Engine) retable(r *running, add bool) {
	old := *e.byInput.Load()
	next := make(map[string][]*running, len(old)+len(r.streams))
	for name, lst := range old {
		next[name] = lst
	}
	for _, name := range r.streams {
		var kept []*running // fresh: published slices are never written
		for _, x := range old[name] {
			if x != r {
				kept = append(kept, x)
			}
		}
		if add {
			kept = append(kept, r)
		}
		if next[name] = kept; len(kept) == 0 {
			delete(next, name)
		}
	}
	e.byInput.Store(&next)
}

// QueryState returns the buffered tuple count of a running query.
func (e *Engine) QueryState(name string) int {
	e.mu.Lock()
	r, ok := e.queries[name]
	e.mu.Unlock()
	if !ok {
		return 0
	}
	return r.state(false)
}

// Stats returns the engine counters, each read atomically on its own.
func (e *Engine) Stats() Stats {
	return Stats{Consumed: e.consumed.Load(), Emitted: e.emitted.Load(), Dropped: e.dropped.Load()}
}

// QueryNames lists running queries, sorted.
func (e *Engine) QueryNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.queries))
	for n := range e.queries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Process feeds one input tuple to every interested query, in the order the
// queries were added. Each query runs its plan under its own mutex and its
// result tuples are delivered to its sink synchronously, after the mutex is
// released. Process takes no engine-wide lock: calls for different queries
// run in parallel, calls reaching the same query serialise on it.
func (e *Engine) Process(t stream.Tuple) {
	e.consumed.Add(1)
	var batch [4]stream.Tuple // most arrivals emit at most a few results: keep them off the heap
	for _, r := range (*e.byInput.Load())[t.Stream] {
		results, dropped := r.process(t, batch[:0])
		if dropped > 0 {
			e.dropped.Add(int64(dropped))
		}
		if len(results) == 0 {
			continue
		}
		e.emitted.Add(int64(len(results)))
		if r.sink != nil {
			for _, res := range results {
				r.sink(res)
			}
		}
	}
}

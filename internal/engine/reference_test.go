package engine

// The seed's interpreting engine, moved here verbatim (types renamed ref*)
// when the production engine became a compiled plan: the oracle the
// differential test in differential_test.go holds Engine to — identical
// emission sequences, QueryState after every arrival and Stats at the end.
// It is not reachable from any non-test binary.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/query"
	"repro/internal/stream"
)

// refEngine hosts running continuous queries.
type refEngine struct {
	mu      sync.Mutex
	queries map[string]*refRunning
	byInput map[string][]*refRunning // stream name -> interested queries
	stats   Stats
}

// newRefEngine returns an empty reference engine.
func newRefEngine() *refEngine {
	return &refEngine{
		queries: make(map[string]*refRunning),
		byInput: make(map[string][]*refRunning),
	}
}

type refAliasState struct {
	ref        query.StreamRef
	spanMillis int64
	selections []query.Predicate
	window     []stream.Tuple // ascending by timestamp
}

type refRunning struct {
	q          *query.Query
	resultName string
	sink       ResultSink
	aliases    []string
	state      map[string]*refAliasState
	joins      []query.Predicate
	emitted    int64
}

// AddQuery starts a query. resultName names the emitted result stream; sink
// receives result tuples (may be nil to discard). The query must be valid
// and must not be registered already.
func (e *refEngine) AddQuery(q *query.Query, resultName string, sink ResultSink) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if q.Name == "" {
		return fmt.Errorf("engine: query needs a name")
	}
	r := &refRunning{
		q:          q,
		resultName: resultName,
		sink:       sink,
		state:      make(map[string]*refAliasState, len(q.From)),
		joins:      q.JoinPredicates(),
	}
	for _, ref := range q.From {
		r.aliases = append(r.aliases, ref.Alias)
		r.state[ref.Alias] = &refAliasState{
			ref:        ref,
			spanMillis: refSpanMillis(ref.Window),
			selections: q.SelectionsFor(ref.Alias),
		}
	}
	sort.Strings(r.aliases)

	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.queries[q.Name]; dup {
		return fmt.Errorf("engine: query %q already running", q.Name)
	}
	e.queries[q.Name] = r
	for _, name := range q.StreamNames() {
		e.byInput[name] = append(e.byInput[name], r)
	}
	return nil
}

// RemoveQuery stops a query and discards its window state. It returns the
// total operator state (tuples buffered) released, which models the
// migration payload of §3.7.
func (e *refEngine) RemoveQuery(name string) (stateTuples int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.queries[name]
	if !ok {
		return 0, fmt.Errorf("engine: query %q not running", name)
	}
	delete(e.queries, name)
	for streamName, lst := range e.byInput {
		kept := lst[:0]
		for _, x := range lst {
			if x != r {
				kept = append(kept, x)
			}
		}
		e.byInput[streamName] = kept
	}
	for _, st := range r.state {
		stateTuples += len(st.window)
	}
	return stateTuples, nil
}

// QueryState returns the buffered tuple count of a running query.
func (e *refEngine) QueryState(name string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.queries[name]
	if !ok {
		return 0
	}
	total := 0
	for _, st := range r.state {
		total += len(st.window)
	}
	return total
}

// Stats returns a snapshot of the engine counters.
func (e *refEngine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// QueryNames lists running queries, sorted.
func (e *refEngine) QueryNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.queries))
	for n := range e.queries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Process feeds one input tuple to every interested query. Result tuples
// are delivered to sinks synchronously.
func (e *refEngine) Process(t stream.Tuple) {
	e.mu.Lock()
	interested := append([]*refRunning(nil), e.byInput[t.Stream]...)
	e.stats.Consumed++
	e.mu.Unlock()

	for _, r := range interested {
		e.processFor(r, t)
	}
}

func (e *refEngine) processFor(r *refRunning, t stream.Tuple) {
	e.mu.Lock()
	var results []stream.Tuple
	for _, alias := range r.aliases {
		st := r.state[alias]
		if st.ref.Stream != t.Stream {
			continue
		}
		// Early selection.
		pass := true
		for _, p := range st.selections {
			if !query.EvalSelection(p, t) {
				pass = false
				break
			}
		}
		if !pass {
			e.stats.Dropped++
			continue
		}
		// Evict expired tuples everywhere relative to the new arrival.
		for _, other := range r.state {
			other.evict(t.Timestamp)
		}
		// Probe the other aliases' windows.
		results = append(results, e.probe(r, alias, t)...)
		// Insert into this alias's window.
		st.insert(t)
	}
	emitted := len(results)
	r.emitted += int64(emitted)
	e.stats.Emitted += int64(emitted)
	sink := r.sink
	e.mu.Unlock()

	if sink != nil {
		for _, res := range results {
			sink(res)
		}
	}
}

// probe joins the arriving tuple (bound to alias) against every combination
// of tuples from the other aliases' windows, in a left-deep nested loop.
func (e *refEngine) probe(r *refRunning, alias string, t stream.Tuple) []stream.Tuple {
	others := make([]string, 0, len(r.aliases)-1)
	for _, a := range r.aliases {
		if a != alias {
			others = append(others, a)
		}
	}
	binding := map[string]stream.Tuple{alias: t}
	var out []stream.Tuple
	var rec func(i int)
	rec = func(i int) {
		if i == len(others) {
			if r.joinsSatisfied(binding) {
				out = append(out, r.project(binding, t.Timestamp))
			}
			return
		}
		a := others[i]
		for _, w := range r.state[a].window {
			binding[a] = w
			rec(i + 1)
		}
		delete(binding, a)
	}
	// A query over a single stream emits directly.
	if len(others) == 0 {
		out = append(out, r.project(binding, t.Timestamp))
		return out
	}
	rec(0)
	return out
}

// joinsSatisfied evaluates every join predicate under the current binding.
func (r *refRunning) joinsSatisfied(binding map[string]stream.Tuple) bool {
	for _, p := range r.joins {
		lt, ok := binding[p.Left.Col.Alias]
		if !ok {
			return false
		}
		rt, ok := binding[p.Right.Col.Alias]
		if !ok {
			return false
		}
		lv, ok := lt.Get(p.Left.Col.Attr)
		if !ok {
			return false
		}
		rv, ok := rt.Get(p.Right.Col.Attr)
		if !ok {
			return false
		}
		if !p.Op.Eval(lv.Compare(rv)) {
			return false
		}
	}
	return true
}

// project builds the result tuple under the query's SELECT list, qualifying
// attributes as alias.attr so results from different input streams cannot
// collide.
func (r *refRunning) project(binding map[string]stream.Tuple, ts int64) stream.Tuple {
	out := stream.Tuple{
		Stream:    r.resultName,
		Timestamp: ts,
		Attrs:     make(map[string]stream.Value, 8),
	}
	add := func(alias, attr string) {
		if t, ok := binding[alias]; ok {
			if v, okV := t.Get(attr); okV {
				out.Attrs[alias+"."+attr] = v
			}
		}
	}
	for _, p := range r.q.Select {
		switch {
		case p.Star && p.Col.Alias == "":
			for alias, t := range binding {
				for attr := range t.Attrs {
					add(alias, attr)
				}
				add(alias, "timestamp")
			}
		case p.Star:
			if t, ok := binding[p.Col.Alias]; ok {
				for attr := range t.Attrs {
					add(p.Col.Alias, attr)
				}
				add(p.Col.Alias, "timestamp")
			}
		default:
			add(p.Col.Alias, p.Col.Attr)
		}
	}
	out.Size = 16 + 8*len(out.Attrs)
	return out
}

// insert appends in timestamp order (inputs are near-ordered; a binary
// search keeps the window sorted under jitter).
func (st *refAliasState) insert(t stream.Tuple) {
	n := len(st.window)
	if n == 0 || st.window[n-1].Timestamp <= t.Timestamp {
		st.window = append(st.window, t)
		return
	}
	i := sort.Search(n, func(i int) bool { return st.window[i].Timestamp > t.Timestamp })
	st.window = append(st.window, stream.Tuple{})
	copy(st.window[i+1:], st.window[i:])
	st.window[i] = t
}

// evict drops tuples older than the window span relative to now.
func (st *refAliasState) evict(now int64) {
	cut := 0
	for cut < len(st.window) && now-st.window[cut].Timestamp > st.spanMillis {
		cut++
	}
	if cut > 0 {
		st.window = append(st.window[:0], st.window[cut:]...)
	}
}

func refSpanMillis(w query.Window) int64 {
	switch w.Kind {
	case query.Now:
		return 0
	case query.Unbounded:
		return 1<<62 - 1
	default:
		return w.Span.Milliseconds()
	}
}

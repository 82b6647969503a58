package engine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/query"
	"repro/internal/stream"
)

// running is one query's compiled plan and its window state. compile writes
// the plan once; what Process mutates is marked and guarded by mu.
type running struct {
	resultName string
	sink       ResultSink
	streams    []string // distinct input streams
	// aliases holds one plan per FROM entry, sorted by alias name. The
	// index is the alias's position: its slot in binding, and the order in
	// which the aliases of one stream (a self-join) take an arrival.
	aliases []aliasPlan
	cols    []outCol // explicit select-list columns no star covers

	// mu guards binding, stopped and the aliases' window and names;
	// nothing is called while it is held. cosmoslint:guards
	mu      sync.Mutex
	binding []stream.Tuple // per position: the combination being probed
	stopped bool
}

// aliasPlan is what happens to a tuple arriving for one alias.
type aliasPlan struct {
	name, stream, tsName string // tsName is "alias.timestamp"
	spanMillis           int64
	selections           []selection
	// probe binds the other positions in ascending order; each step tests
	// the join predicates whose two sides are bound once its position is.
	probe []probeStep
	star  bool // the select list projects every attribute and timestamp

	window []stream.Tuple    // ascending by timestamp (under running.mu)
	names  map[string]string // attr -> "alias.attr" met by star expansion (under running.mu)
}

// selection is a normalised column-versus-literal predicate; joinTest a join
// predicate resolved to binding positions; outCol an explicit output column.
type (
	selection struct {
		attr string
		op   query.Op
		lit  stream.Value
	}
	probeStep struct {
		pos   int
		joins []joinTest
	}
	joinTest struct {
		lpos, rpos   int
		lattr, rattr string
		op           query.Op
	}
	outCol struct {
		pos        int
		attr, name string
	}
)

// compile builds the plan of a validated query.
func compile(q *query.Query, resultName string, sink ResultSink) (*running, error) {
	n := len(q.From)
	r := &running{
		resultName: resultName, sink: sink, streams: q.StreamNames(),
		aliases: make([]aliasPlan, n), binding: make([]stream.Tuple, n),
	}
	refs := append([]query.StreamRef(nil), q.From...)
	sort.Slice(refs, func(i, j int) bool { return refs[i].Alias < refs[j].Alias })
	pos := make(map[string]int, n)
	for i, ref := range refs {
		pos[ref.Alias] = i
		a := &r.aliases[i]
		a.name, a.stream, a.spanMillis = ref.Alias, ref.Stream, spanMillis(ref.Window)
		a.tsName, a.names = ref.Alias+".timestamp", make(map[string]string)
		for _, p := range q.SelectionsFor(ref.Alias) {
			if p.Right.Lit == nil {
				return nil, fmt.Errorf("engine: query %s: selection %s has no literal", q.Name, p)
			}
			a.selections = append(a.selections, selection{p.Left.Col.Attr, p.Op, *p.Right.Lit})
		}
		for o := 0; o < n; o++ {
			if o != i {
				a.probe = append(a.probe, probeStep{pos: o})
			}
		}
	}
	for _, p := range q.JoinPredicates() {
		lpos, lok := pos[p.Left.Col.Alias]
		rpos, rok := pos[p.Right.Col.Alias]
		if !lok || !rok { // Validate admits the empty alias
			return nil, fmt.Errorf("engine: query %s: join predicate %s names no FROM alias", q.Name, p)
		}
		j := joinTest{lpos, rpos, p.Left.Col.Attr, p.Right.Col.Attr, p.Op}
		// Testable at the deeper of its two sides' steps; the arriving
		// alias is bound before step 0.
		for i := range r.aliases {
			steps, at := r.aliases[i].probe, 0
			for s := range steps {
				if steps[s].pos == lpos || steps[s].pos == rpos {
					at = s
				}
			}
			steps[at].joins = append(steps[at].joins, j)
		}
	}
	for _, p := range q.Select {
		for i := range r.aliases {
			a := &r.aliases[i]
			a.star = a.star || p.Star && (p.Col.Alias == "" || p.Col.Alias == a.name)
		}
	}
	for _, p := range q.Select {
		// An unqualified column (Validate admits it) names no alias and
		// projects nothing; a starred alias already carries its columns.
		if i, ok := pos[p.Col.Alias]; !p.Star && ok && !r.aliases[i].star {
			r.cols = append(r.cols, outCol{i, p.Col.Attr, p.Col.Alias + "." + p.Col.Attr})
		}
	}
	return r, nil
}

// process runs one arrival through the plan: per alias over the tuple's
// stream, in position order — early selection, eviction of every window
// against the arrival, probe of the other windows, insertion. The results
// are appended to the caller's batch (the query keeps no reference to them);
// dropped counts the aliases whose selections rejected the tuple.
func (r *running) process(t stream.Tuple, results []stream.Tuple) (_ []stream.Tuple, dropped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return results, 0
	}
arrival:
	for i := range r.aliases {
		a := &r.aliases[i]
		if a.stream != t.Stream {
			continue
		}
		for _, s := range a.selections {
			if v, ok := t.Get(s.attr); !ok || !s.op.Eval(v.Compare(s.lit)) {
				dropped++
				continue arrival
			}
		}
		for o := range r.aliases {
			r.aliases[o].evict(t.Timestamp)
		}
		r.binding[i] = t
		results = r.probe(a.probe, t.Timestamp, results)
		a.insert(t)
	}
	return results, dropped
}

// probe extends the binding over the remaining steps' windows in a left-deep
// nested loop, abandoning a combination at the first step whose join tests
// fail, and appends one result per complete combination. Caller holds r.mu.
func (r *running) probe(steps []probeStep, ts int64, out []stream.Tuple) []stream.Tuple {
	if len(steps) == 0 {
		return append(out, r.project(ts))
	}
	st := &steps[0]
next:
	for _, w := range r.aliases[st.pos].window {
		r.binding[st.pos] = w
		for k := range st.joins {
			j := &st.joins[k]
			lv, lok := r.binding[j.lpos].Get(j.lattr)
			rv, rok := r.binding[j.rpos].Get(j.rattr)
			if !lok || !rok || !j.op.Eval(lv.Compare(rv)) {
				continue next
			}
		}
		out = r.probe(steps[1:], ts, out)
	}
	return out
}

// project builds the result tuple of the current binding, qualifying
// attributes as alias.attr so results from different input streams cannot
// collide. The map is sized for every projected attribute (exactly, when
// none is missing or listed twice). Caller holds r.mu.
func (r *running) project(ts int64) stream.Tuple {
	size := len(r.cols)
	for i := range r.aliases {
		if r.aliases[i].star {
			size += len(r.binding[i].Attrs) + 1
		}
	}
	attrs := make(map[string]stream.Value, size)
	for i := range r.aliases {
		a, t := &r.aliases[i], r.binding[i]
		if !a.star {
			continue
		}
		for attr, v := range t.Attrs {
			name, ok := a.names[attr]
			if !ok {
				name = a.name + "." + attr
				a.names[attr] = name
			}
			attrs[name] = v
		}
		attrs[a.tsName] = stream.IntVal(t.Timestamp)
	}
	for _, c := range r.cols {
		if v, ok := r.binding[c.pos].Get(c.attr); ok {
			attrs[c.name] = v
		}
	}
	return stream.Tuple{Stream: r.resultName, Timestamp: ts, Attrs: attrs, Size: 16 + 8*len(attrs)}
}

// state returns how many tuples the query's windows hold. With stop it also
// ends the query: the windows are released and later arrivals ignored.
func (r *running) state(stop bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := range r.aliases {
		n += len(r.aliases[i].window)
		if stop {
			r.aliases[i].window = nil
		}
	}
	r.stopped = r.stopped || stop
	return n
}

// insert appends in timestamp order (inputs are near-ordered; a binary
// search keeps the window sorted under jitter).
func (a *aliasPlan) insert(t stream.Tuple) {
	n := len(a.window)
	if n == 0 || a.window[n-1].Timestamp <= t.Timestamp {
		a.window = append(a.window, t)
		return
	}
	i := sort.Search(n, func(i int) bool { return a.window[i].Timestamp > t.Timestamp })
	a.window = append(a.window, stream.Tuple{})
	copy(a.window[i+1:], a.window[i:])
	a.window[i] = t
}

// evict drops tuples older than the window span relative to now.
func (a *aliasPlan) evict(now int64) {
	cut := 0
	for cut < len(a.window) && now-a.window[cut].Timestamp > a.spanMillis {
		cut++
	}
	if cut > 0 {
		a.window = append(a.window[:0], a.window[cut:]...)
	}
}

func spanMillis(w query.Window) int64 {
	switch w.Kind {
	case query.Now:
		return 0
	case query.Unbounded:
		return 1<<62 - 1
	default:
		return w.Span.Milliseconds()
	}
}

// This file wires a placed query into the pub/sub overlay: subscribing its
// processor to the union of the input filters it needs (early filtering and
// projection, §2), tagging and splitting shared superset result streams,
// and rewiring when Submit, Cancel or Adapt changes what a processor runs.
// Everything here is middleware-internal; the public API lives in cosmos.go.
//
// Each processor keeps its sharing groups (query.Groups) between calls, and
// a rewire applies only what changed since the last one: the engine query of
// a group no query joined or left keeps running with its windows, and only
// the input streams a changed group reads, and only the users whose result
// tag or residual changed, are subscribed again. Start is the change from
// empty.
//
// A result costs one attribute map from the engine to the user's sink. The
// processor's sink names the producing superset query in the tuple header
// (stream.Tuple.Tag: routing metadata, so no broker looks into the map to
// split the stream and no user has an entry to get rid of) and marks the map
// Owned (the engine built it for this result alone, so brokers deliver it as
// it is). A user whose columns and aliases are the superset's receives that
// very map, read-only and shared; any other a map of its own.

package cosmos

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
)

// residualInfo records how a user recovers its exact result from the
// (possibly shared) result stream of its processor: a QueryHandle's split.
type residualInfo struct {
	proc     NodeID
	super    *query.Query    // superset query evaluated at the processor
	cols     map[string]bool // its result columns (resultColumns)
	residual query.Residual
}

// procWiring is what a processor runs: its sharing groups, each an engine
// query named after its group, and one input subscription per stream.
type procWiring struct {
	eng    *engine.Engine
	broker *pubsub.Broker
	groups *query.Groups
	inputs map[string]*pubsub.Subscription
}

// rewire applies one processor's delta and returns the users whose split
// changed: a changed group's engine query is replaced, an emptied one's
// removed, and every other keeps running with its windows. Only the input
// subscriptions of the streams a changed group reads are recomputed, and
// sent only where they differ.
func (m *Middleware) rewire(proc NodeID, local []*QueryHandle, d query.Delta) ([]*QueryHandle, error) {
	w := m.wiring[proc]
	eng, broker := w.eng, w.broker
	live := make(map[string]bool) // streams the local queries read
	for _, h := range local {
		for _, ref := range h.Query.From {
			live[ref.Stream] = true
		}
	}

	reads := make(map[string]bool) // streams a changed group reads
	for _, super := range d.Dropped {
		if _, err := eng.RemoveQuery(super.Name); err != nil {
			return nil, err
		}
		for _, ref := range super.From {
			reads[ref.Stream] = true
		}
	}
	var users []*QueryHandle
	for _, g := range d.Changed {
		super := g.Super
		sink := func(t stream.Tuple) {
			t.Tag, t.Owned = super.Name, true
			t.Size += 16
			broker.Publish(t)
		}
		if err := eng.AddQuery(super, resultStreamName(proc), sink); err != nil {
			return nil, err
		}
		cols := m.resultColumns(super.Select, super.From)
		for _, r := range g.Residuals {
			// Same stream, tag, columns and residual: the subscription stays.
			h := m.handles[r.Query.Name]
			if old := h.split; old.super == nil || old.proc != proc || old.super.Name != super.Name || !maps.Equal(old.cols, cols) || !reflect.DeepEqual(old.residual, r) {
				users = append(users, h)
			}
			h.split = residualInfo{proc: proc, super: super, cols: cols, residual: r}
		}
		for _, ref := range super.From {
			reads[ref.Stream] = true
		}
	}

	for _, streamName := range slices.Sorted(maps.Keys(reads)) {
		old := w.inputs[streamName]
		if !live[streamName] {
			if old != nil {
				broker.Unsubscribe(old.ID)
				delete(w.inputs, streamName)
			}
			continue
		}
		sub := &pubsub.Subscription{
			ID:      fmt.Sprintf("in@%d/%s", proc, streamName),
			Streams: []string{streamName},
			Filters: unionFilters(local, streamName),
			Attrs:   neededAttrs(local, streamName),
		}
		if old != nil && reflect.DeepEqual(old.Filters, sub.Filters) && reflect.DeepEqual(old.Attrs, sub.Attrs) {
			continue
		}
		if err := broker.Subscribe(sub, func(_ *pubsub.Subscription, t stream.Tuple) {
			eng.Process(t)
		}); err != nil {
			return nil, err
		}
		w.inputs[streamName] = sub
	}
	return users, nil
}

// rewireWithUsers regroups the processors, rewires them in the order given,
// and then subscribes again, by name, every user whose split changed: a
// newcomer, a query that moved, a member whose superset's columns or whose
// residual changed. Start passes every processor, Adapt the ones it touched,
// Submit and Cancel the one they changed.
func (m *Middleware) rewireWithUsers(procs ...NodeID) error {
	placed := make(map[NodeID][]*QueryHandle, len(procs))
	for _, h := range m.handles {
		placed[h.processor] = append(placed[h.processor], h) //lint:maporder regroup sorts each list by name
	}
	// Regrouping reads the placement and writes only each processor's own
	// groups, so the processors regroup in parallel.
	deltas := make([]query.Delta, len(procs))
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deltas[i] = m.regroup(p, placed[p])
		}()
	}
	wg.Wait()
	var users []*QueryHandle
	for i, p := range procs {
		us, err := m.rewire(p, placed[p], deltas[i])
		if err != nil {
			return err
		}
		users = append(users, us...)
	}
	sort.Slice(users, func(i, j int) bool { return users[i].Name < users[j].Name })
	for _, h := range users {
		if err := m.wireUserSide(h); err != nil {
			return err
		}
	}
	return nil
}

// regroup sorts the queries placed at a processor by name, takes those that
// left out of its groups and adds the newcomers, and returns the delta.
func (m *Middleware) regroup(proc NodeID, local []*QueryHandle) query.Delta {
	gs := m.wiring[proc].groups
	sort.Slice(local, func(i, j int) bool { return local[i].Name < local[j].Name })
	for _, name := range gs.Names() {
		if h, ok := m.handles[name]; !ok || h.processor != proc {
			gs.Remove(name)
		}
	}
	for _, h := range local {
		gs.Add(h.Query)
	}
	return gs.Delta()
}

// unionFilters computes the filters safe to push into the Pub/Sub for one
// input stream at a processor: a column filter is kept only when EVERY
// local query reading the stream constrains that column, and then with the
// union (weakest) interval, so no query loses tuples it needs.
func unionFilters(hs []*QueryHandle, streamName string) []query.Predicate {
	var union map[string]query.Interval // over the readers so far
	for _, h := range hs {
		for _, ref := range h.Query.From {
			if ref.Stream != streamName {
				continue
			}
			ivs := query.SelectionIntervalsByAttr(h.Query.SelectionsFor(ref.Alias))
			if union == nil {
				union = ivs
				continue
			}
			for attr, u := range union {
				if iv, ok := ivs[attr]; ok {
					union[attr] = u.Union(iv)
				} else {
					delete(union, attr)
				}
			}
			if len(union) == 0 {
				return nil // no column every reader constrains
			}
		}
	}
	var out []query.Predicate
	for _, attr := range slices.Sorted(maps.Keys(union)) {
		out = append(out, union[attr].Predicates(query.ColRef{Attr: attr})...)
	}
	return out
}

// neededAttrs returns the attribute projection to request for one input
// stream: nil (all) when any local query selects a star over it, else the
// union of projected and referenced attributes.
func neededAttrs(hs []*QueryHandle, streamName string) []string {
	want := make(map[string]bool)
	for _, h := range hs {
		for _, ref := range h.Query.From {
			if ref.Stream != streamName {
				continue
			}
			for _, p := range h.Query.Select {
				switch {
				case p.Star && (p.Col.Alias == "" || p.Col.Alias == ref.Alias):
					return nil
				case !p.Star && p.Col.Alias == ref.Alias:
					want[p.Col.Attr] = true
				}
			}
			for _, p := range h.Query.Where {
				for _, col := range []*query.ColRef{p.Left.Col, p.Right.Col} {
					if col != nil && col.Alias == ref.Alias {
						want[col.Attr] = true
					}
				}
			}
		}
	}
	out := make([]string, 0, len(want)+1)
	for a := range want {
		if a != "timestamp" {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// wireUserSide (re)subscribes a user's proxy to its query's result stream,
// applying the residual filters and window re-checks that split a shared
// superset result back into the exact per-user result (§2.1).
func (m *Middleware) wireUserSide(h *QueryHandle) error {
	if h.processor < 0 {
		return fmt.Errorf("cosmos: query %s is not placed", h.Name)
	}
	proxyBroker := m.wiring[h.Proxy].broker
	ri := h.split
	if ri.super == nil {
		return fmt.Errorf("cosmos: query %s has no residual record", h.Name)
	}

	subID := "user/" + h.Name
	proxyBroker.Unsubscribe(subID)

	// The split (§2.1): only the results its superset query produced.
	tag := stream.StringVal(ri.super.Name)
	filters := []query.Predicate{{Left: query.Operand{Col: &query.ColRef{Attr: stream.TagAttr}}, Op: query.Eq, Right: query.Operand{Lit: &tag}}}
	for _, f := range ri.residual.Filters {
		filters = append(filters, qualifyFilter(f))
	}
	// A user whose own columns are the superset's subscribes to whole tuples
	// and is handed the engine's map; one with fewer — an explicit list, or
	// stars over a wider superset — its own projection, cut at the first hop.
	var attrs, hidden []string
	if !slices.Equal(ri.residual.Projection, ri.super.Select) {
		if own := m.resultColumns(ri.residual.Projection, ri.super.From); !maps.Equal(own, ri.cols) {
			attrs, hidden = residualAttrs(ri.residual, own)
		}
	}
	sub := &pubsub.Subscription{
		ID:      subID,
		Streams: []string{resultStreamName(h.processor)},
		Filters: filters,
		Attrs:   attrs,
	}
	windows := ri.residual.Windows
	var rename map[string]string // set when the user names an alias differently
	for from, to := range ri.residual.AliasToSub {
		if from != to {
			rename = ri.residual.AliasToSub
		}
	}
	sink := h.sink
	handler := func(_ *pubsub.Subscription, t stream.Tuple) {
		// Re-enforce the windows the superset widened.
		for alias, w := range windows {
			v, ok := t.Get(alias + ".timestamp")
			if !ok {
				return
			}
			age := t.Timestamp - int64(v.F)
			if age < 0 || age > w.Span.Milliseconds() {
				return
			}
		}
		// Only a projecting subscription hides anything, and its map is the
		// broker's per-delivery projection: private, so written in place. A
		// map under the superset's aliases is rebuilt under the user's.
		if rename != nil {
			t.Attrs = renameAttrs(t.Attrs, rename, hidden)
		} else {
			for _, a := range hidden {
				delete(t.Attrs, a)
			}
		}
		t.Tag = ""
		h.delivered.Add(1)
		if sink != nil {
			sink(t)
		}
	}
	return proxyBroker.Subscribe(sub, handler)
}

// qualifyFilter rewrites a residual predicate (over superset aliases) to
// the flat qualified-attribute space of result tuples.
func qualifyFilter(p query.Predicate) query.Predicate {
	q := func(o query.Operand) query.Operand {
		if o.Col == nil {
			return o
		}
		return query.Operand{Col: &query.ColRef{Attr: o.Col.Alias + "." + o.Col.Attr}}
	}
	return query.Predicate{Left: q(p.Left), Op: p.Op, Right: q(p.Right)}
}

// resultColumns is the set of qualified attribute names a result tuple of
// the select list carries: every explicit column, and for a star every
// attribute of the alias's registered schema plus alias.timestamp.
func (m *Middleware) resultColumns(sel []query.Projection, from []query.StreamRef) map[string]bool {
	cols := make(map[string]bool)
	for _, p := range sel {
		if !p.Star {
			if p.Col.Alias != "" { // an unqualified column projects nothing
				cols[p.Col.Alias+"."+p.Col.Attr] = true
			}
			continue
		}
		for _, ref := range from {
			if p.Col.Alias != "" && p.Col.Alias != ref.Alias {
				continue
			}
			if rec, ok := m.streams[ref.Stream]; ok {
				for _, a := range rec.def.Schema.Attrs {
					cols[ref.Alias+"."+a.Name] = true
				}
			}
			cols[ref.Alias+".timestamp"] = true
		}
	}
	return cols
}

// residualAttrs converts a residual into the qualified attribute list to
// request from the result stream — the user's own columns plus what the
// residual filters and window re-checks read (every hop must keep that for
// the proxy to evaluate them) — and the part of the list the user did not
// select (hidden), which the handler deletes before the sink.
func residualAttrs(r query.Residual, own map[string]bool) (attrs, hidden []string) {
	hide := func(name string) {
		if !own[name] {
			own[name] = true
			hidden = append(hidden, name)
		}
	}
	for _, f := range r.Filters {
		for _, col := range []*query.ColRef{f.Left.Col, f.Right.Col} {
			if col != nil {
				hide(col.Alias + "." + col.Attr)
			}
		}
	}
	for alias := range r.Windows {
		hide(alias + ".timestamp")
	}
	return slices.Sorted(maps.Keys(own)), hidden
}

// renameAttrs copies a result map, leaving out the hidden attributes and
// renaming each "alias.attr" through the superset-to-user alias map.
func renameAttrs(attrs map[string]stream.Value, rename map[string]string, hidden []string) map[string]stream.Value {
	out := make(map[string]stream.Value, len(attrs))
	for k, v := range attrs {
		if slices.Contains(hidden, k) {
			continue
		}
		if alias, attr, ok := strings.Cut(k, "."); ok && rename[alias] != "" {
			k = rename[alias] + "." + attr
		}
		out[k] = v
	}
	return out
}

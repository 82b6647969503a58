// This file wires a placed query into the pub/sub overlay: subscribing its
// processor to the union of the input filters it needs (early filtering and
// projection, §2), tagging and splitting shared superset result streams,
// and rewiring when Adapt moves the placement. Everything here is
// middleware-internal; the public API lives in cosmos.go.
//
// A result costs one attribute map from the engine to the user's sink. The
// processor's sink names the producing superset query in the tuple header
// (stream.Tuple.Tag: routing metadata, so no broker looks into the map to
// split the stream and no user has an entry to get rid of) and marks the map
// Owned (the engine built it for this result alone, so brokers deliver it as
// it is). A user whose columns are the superset's receives that very map,
// read-only and shared; any other its subscription's private projection.

package cosmos

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
)

// residualInfo records how a user recovers its exact result from the
// (possibly shared) result stream of its processor.
type residualInfo struct {
	super    *query.Query    // superset query evaluated at the processor
	cols     map[string]bool // its result columns (resultColumns)
	residual query.Residual
}

// group is one superset query evaluated at a processor and the residuals of
// the user queries it serves.
type group struct {
	super     *query.Query
	residuals map[string]query.Residual
}

// rewire rebuilds the engine content and input subscriptions of one
// processor from the queries currently placed there: co-located queries
// with compatible structure are merged into superset queries (§2.1), the
// processor subscribes to its input streams with union filters (early
// filtering in the Pub/Sub), and each user's residual is recorded.
func (m *Middleware) rewire(proc NodeID) error {
	eng, ok := m.engines[proc]
	if !ok {
		return fmt.Errorf("cosmos: no engine at processor %d", proc)
	}
	broker, ok := m.net.Broker(proc)
	if !ok {
		return fmt.Errorf("cosmos: no broker at processor %d", proc)
	}

	// Tear down previous state.
	for _, name := range eng.QueryNames() {
		if _, err := eng.RemoveQuery(name); err != nil {
			return err
		}
	}
	for _, id := range m.inSubs[proc] {
		broker.Unsubscribe(id)
	}
	m.inSubs[proc] = nil

	// Queries placed here, deterministically ordered.
	var local []*QueryHandle
	for _, h := range m.handles {
		if h.processor == proc {
			local = append(local, h)
		}
	}
	sort.Slice(local, func(i, j int) bool { return local[i].Name < local[j].Name })
	if len(local) == 0 {
		return nil
	}

	// Group queries for result-stream sharing.
	var groups []group
	if m.cfg.DisableResultSharing {
		for _, h := range local {
			groups = append(groups, soloGroup(h.Query))
		}
	} else {
		asts := make([]*query.Query, len(local))
		for i, h := range local {
			asts[i] = h.Query
		}
		merged, leftovers := query.MergeAll(asts)
		for _, mr := range merged {
			g := group{super: mr.Super, residuals: make(map[string]query.Residual, len(mr.Residuals))}
			for _, r := range mr.Residuals {
				g.residuals[r.Query.Name] = r
			}
			groups = append(groups, g)
		}
		for _, q := range leftovers {
			groups = append(groups, soloGroup(q))
		}
	}

	resultStream := resultStreamName(proc)
	for _, g := range groups {
		super := g.super
		cols := m.resultColumns(super.Select, super.From)
		sink := func(t stream.Tuple) {
			t.Tag, t.Owned = super.Name, true
			t.Size += 16
			broker.Publish(t)
		}
		if err := eng.AddQuery(super, resultStream, sink); err != nil {
			return err
		}
		for name, r := range g.residuals {
			m.residuals[name] = residualInfo{super: super, cols: cols, residual: r}
		}
	}

	// Input subscriptions: one per input stream with union filters.
	for _, streamName := range inputStreams(local) {
		sub := &pubsub.Subscription{
			ID:      fmt.Sprintf("in@%d/%s", proc, streamName),
			Streams: []string{streamName},
			Filters: unionFilters(local, streamName),
			Attrs:   neededAttrs(local, streamName),
		}
		if err := broker.Subscribe(sub, func(_ *pubsub.Subscription, t stream.Tuple) {
			eng.Process(t)
		}); err != nil {
			return err
		}
		m.inSubs[proc] = append(m.inSubs[proc], sub.ID)
	}
	return nil
}

// rewireWithUsers rewires one processor after a query joined or left it, and
// then every user placed there, by name. Rewiring regroups the queries at the
// processor: one that shares a superset with the newcomer, or shared one with
// the query that left, now feeds from a different merged query (different
// result tag and residual), so its user-side subscription must be rebuilt —
// exactly as Adapt does after migrations.
func (m *Middleware) rewireWithUsers(proc NodeID) error {
	if err := m.rewire(proc); err != nil {
		return err
	}
	names := make([]string, 0, len(m.handles))
	for name, h := range m.handles {
		if h.processor == proc {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if err := m.wireUserSide(m.handles[name]); err != nil {
			return err
		}
	}
	return nil
}

// soloGroup wraps an unmergeable query as its own group: its residual keeps
// the whole select list and re-applies nothing (it recovers its result with
// only the query-tag filter).
func soloGroup(q *query.Query) group {
	return group{super: q, residuals: map[string]query.Residual{q.Name: {Query: q, Projection: q.Select}}}
}

// inputStreams returns the distinct input stream names of the handles.
func inputStreams(hs []*QueryHandle) []string {
	seen := make(map[string]bool)
	var out []string
	for _, h := range hs {
		for _, name := range h.Query.StreamNames() {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// unionFilters computes the filters safe to push into the Pub/Sub for one
// input stream at a processor: a column filter is kept only when EVERY
// local query reading the stream constrains that column, and then with the
// union (weakest) interval, so no query loses tuples it needs.
func unionFilters(hs []*QueryHandle, streamName string) []query.Predicate {
	var perQuery []map[string]query.Interval
	for _, h := range hs {
		for _, ref := range h.Query.From {
			if ref.Stream != streamName {
				continue
			}
			perQuery = append(perQuery, query.SelectionIntervalsByAttr(h.Query.SelectionsFor(ref.Alias)))
		}
	}
	if len(perQuery) == 0 {
		return nil
	}
	// Columns constrained by every reader.
	common := make([]string, 0, len(perQuery[0]))
	for attr := range perQuery[0] {
		inAll := true
		for _, ivs := range perQuery[1:] {
			if _, ok := ivs[attr]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			common = append(common, attr)
		}
	}
	sort.Strings(common)
	var out []query.Predicate
	for _, attr := range common {
		u := perQuery[0][attr]
		for _, ivs := range perQuery[1:] {
			u = u.Union(ivs[attr])
		}
		out = append(out, u.Predicates(query.ColRef{Attr: attr})...)
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
	proxyBroker, ok := m.net.Broker(h.Proxy)
	if !ok {
		return fmt.Errorf("cosmos: no broker at proxy %d", h.Proxy)
	}
	ri, ok := m.residuals[h.Name]
	if !ok {
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
	if own := m.resultColumns(ri.residual.Projection, ri.super.From); !maps.Equal(own, ri.cols) {
		attrs, hidden = residualAttrs(ri.residual, own)
	}
	sub := &pubsub.Subscription{
		ID:      subID,
		Streams: []string{resultStreamName(h.processor)},
		Filters: filters,
		Attrs:   attrs,
	}
	windows := ri.residual.Windows
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
		// broker's per-delivery projection: private, so written in place.
		for _, a := range hidden {
			delete(t.Attrs, a)
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
			if s, ok := m.registry.Lookup(ref.Stream); ok {
				for _, a := range s.Schema.Attrs {
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

// This file wires a placed query into the pub/sub overlay: subscribing its
// processor to the union of the input filters it needs (early filtering and
// projection, §2), tagging and splitting shared superset result streams,
// and rewiring when Adapt moves the placement. Everything here is
// middleware-internal; the public API lives in cosmos.go.

package cosmos

import (
	"fmt"
	"sort"

	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
)

// queryTag is the result-tuple attribute carrying the producing (superset)
// query's name, letting proxies split a shared result stream (§2.1).
const queryTag = "__q"

// residualInfo records how a user recovers its exact result from the
// (possibly shared) result stream of its processor.
type residualInfo struct {
	super    string // superset query name evaluated at the processor
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
	if m.inSubs == nil {
		m.inSubs = make(map[NodeID][]string)
	}
	m.inSubs[proc] = nil
	if m.residuals == nil {
		m.residuals = make(map[string]residualInfo)
	}

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
		superName := super.Name
		sink := func(t stream.Tuple) {
			t.Attrs[queryTag] = stream.StringVal(superName)
			t.Size += 16
			broker.Publish(t)
		}
		if err := eng.AddQuery(super, resultStream, sink); err != nil {
			return err
		}
		for name, r := range g.residuals {
			m.residuals[name] = residualInfo{super: superName, residual: r}
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

// soloGroup wraps an unmergeable query as its own group with an empty
// residual (it recovers its result with only the query-tag filter).
func soloGroup(q *query.Query) group {
	return group{super: q, residuals: map[string]query.Residual{q.Name: {Query: q}}}
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

	filters := []query.Predicate{tagFilter(ri.super)}
	for _, f := range ri.residual.Filters {
		filters = append(filters, qualifyFilter(f))
	}
	attrs, hidden := residualAttrs(ri.residual)
	sub := &pubsub.Subscription{
		ID:      subID,
		Streams: []string{resultStreamName(h.processor)},
		Filters: filters,
		Attrs:   attrs,
	}
	windows := ri.residual.Windows
	sink := h.sink
	// A projected (non-star) subscription receives a private per-delivery
	// map from the broker's projection, so the routing tag and the hidden
	// attributes can be stripped in place; only star subscriptions get the
	// shared full-tuple map (the pubsub.Handler read-only contract) and must
	// copy before mutating.
	sharedAttrs := attrs == nil
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
		if sharedAttrs {
			attrs := make(map[string]stream.Value, len(t.Attrs))
			for a, v := range t.Attrs {
				if a != queryTag {
					attrs[a] = v
				}
			}
			t.Attrs = attrs
		} else {
			delete(t.Attrs, queryTag)
			for _, a := range hidden {
				delete(t.Attrs, a)
			}
		}
		h.delivered.Add(1)
		if sink != nil {
			sink(t)
		}
	}
	return proxyBroker.Subscribe(sub, handler)
}

// tagFilter matches the producing superset query's tag.
func tagFilter(superName string) query.Predicate {
	col := &query.ColRef{Attr: queryTag}
	lit := stream.StringVal(superName)
	return query.Predicate{Left: query.Operand{Col: col}, Op: query.Eq, Right: query.Operand{Lit: &lit}}
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

// residualAttrs converts a residual into the qualified attribute list to
// request from the result stream — the user's projection, the routing tag,
// and what the residual filters and window re-checks read (every hop must
// keep that for the proxy to evaluate them) — and the part of the list the
// user did not select (hidden), which the handler deletes before the sink.
// Both are nil (request all) when the projection contains a star.
func residualAttrs(r query.Residual) (attrs, hidden []string) {
	if len(r.Projection) == 0 {
		return nil, nil
	}
	hide := map[string]bool{queryTag: false} // requested name -> hidden from the user
	for _, f := range r.Filters {
		for _, col := range []*query.ColRef{f.Left.Col, f.Right.Col} {
			if col != nil {
				hide[col.Alias+"."+col.Attr] = true
			}
		}
	}
	for alias := range r.Windows {
		hide[alias+".timestamp"] = true
	}
	for _, p := range r.Projection {
		if p.Star {
			return nil, nil
		}
		hide[p.Col.Alias+"."+p.Col.Attr] = false
	}
	for name, hid := range hide {
		attrs = append(attrs, name)
		if hid {
			hidden = append(hidden, name)
		}
	}
	sort.Strings(attrs)
	sort.Strings(hidden)
	return attrs, hidden
}

package pubsub

import (
	"fmt"
	"strings"

	"repro/internal/query"
	"repro/internal/stream"
)

// Subscription is the content-based interest profile of §2.1: the streams
// wanted, the attributes to retain (nil = all), and conjunctive filters
// over attribute values.
type Subscription struct {
	// ID is the subscription's identity ACROSS THE OVERLAY: routing
	// records, covering suppression, epoch supersession and retraction
	// all key on it. Callers must keep IDs globally unique (the cosmos
	// middleware derives them from the owning node or query name); two
	// distinct subscriptions reusing an ID are treated as incarnations
	// of one subscription, and the newer epoch silently supersedes the
	// older everywhere.
	ID string
	// Seq is the epoch the subscription was issued in, stamped by the
	// origin broker on Subscribe and carried along propagation. Brokers
	// drop re-deliveries that are not newer than their recorded epoch
	// (duplicate-flood suppression) and ignore retractions older than
	// it, so a re-subscribe of a reused ID cleanly supersedes the
	// previous incarnation everywhere.
	Seq uint64
	// Streams lists the stream names of interest.
	Streams []string
	// Attrs is the projection list; nil keeps every attribute.
	Attrs []string
	// Filters are conjunctive selection predicates applied to message
	// attributes. Column references use only the Attr field (messages
	// are flat attribute/value sets, §1.2).
	Filters []query.Predicate
}

// Matches reports whether a tuple satisfies the subscription: its stream is
// listed and every filter passes.
func (s *Subscription) Matches(t stream.Tuple) bool {
	if !s.hasStream(t.Stream) {
		return false
	}
	for _, f := range s.Filters {
		if !evalFilter(f, t) {
			return false
		}
	}
	return true
}

func (s *Subscription) hasStream(name string) bool {
	for _, st := range s.Streams {
		if st == name {
			return true
		}
	}
	return false
}

// evalFilter evaluates a predicate against a flat tuple, resolving column
// operands by attribute name only.
func evalFilter(p query.Predicate, t stream.Tuple) bool {
	resolve := func(o query.Operand) (stream.Value, bool) {
		if o.Col != nil {
			return t.Get(o.Col.Attr)
		}
		if o.Lit != nil {
			return *o.Lit, true
		}
		return stream.Value{}, false
	}
	lv, ok := resolve(p.Left)
	if !ok {
		return false
	}
	rv, ok := resolve(p.Right)
	if !ok {
		return false
	}
	return p.Op.Eval(lv.Compare(rv))
}

// String renders the subscription for logs and tests.
func (s *Subscription) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sub(%s: S=%v", s.ID, s.Streams)
	if s.Attrs != nil {
		fmt.Fprintf(&b, " P=%v", s.Attrs)
	}
	if len(s.Filters) > 0 {
		parts := make([]string, len(s.Filters))
		for i, f := range s.Filters {
			parts[i] = f.String()
		}
		fmt.Fprintf(&b, " F=%s", strings.Join(parts, " AND "))
	}
	b.WriteByte(')')
	return b.String()
}

// Clone returns an independent copy.
func (s *Subscription) Clone() *Subscription {
	c := &Subscription{ID: s.ID, Seq: s.Seq}
	c.Streams = append([]string(nil), s.Streams...)
	if s.Attrs != nil {
		c.Attrs = append([]string(nil), s.Attrs...)
	}
	c.Filters = append([]query.Predicate(nil), s.Filters...)
	return c
}

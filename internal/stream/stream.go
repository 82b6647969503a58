// Package stream defines the data model shared by the whole system: named
// streams with typed attributes, their partitioning into substreams, per-
// substream rate statistics, and the tuples that flow through the processing
// engine.
//
// Substreams are the unit of data interest in COSMOS (§3.2): every stream is
// partitioned into a number of substreams and a query's interest is a bit
// vector over the global substream space, so overlap estimation between
// queries is a bit operation rather than semantic reasoning.
package stream

import (
	"fmt"
	"sort"
	"sync"
)

// AttrType is the type of a stream attribute.
type AttrType int

// Supported attribute types.
const (
	Float AttrType = iota + 1
	Int
	String
)

func (t AttrType) String() string {
	switch t {
	case Float:
		return "float"
	case Int:
		return "int"
	case String:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Attribute is one column of a stream schema.
type Attribute struct {
	Name string
	Type AttrType
}

// Schema describes the attributes of a stream. The implicit "timestamp"
// attribute is always present on every stream.
type Schema struct {
	Attrs []Attribute
}

// HasAttr reports whether the schema (or the implicit timestamp) contains
// the named attribute.
func (s Schema) HasAttr(name string) bool {
	if name == "timestamp" {
		return true
	}
	for _, a := range s.Attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}

// AttrNames returns the schema's attribute names plus the implicit
// timestamp, sorted.
func (s Schema) AttrNames() []string {
	out := make([]string, 0, len(s.Attrs)+1)
	for _, a := range s.Attrs {
		out = append(out, a.Name)
	}
	out = append(out, "timestamp")
	sort.Strings(out)
	return out
}

// Stream is a named source stream whose data is partitioned into a
// contiguous range of global substream indices.
type Stream struct {
	Name      string
	Schema    Schema
	Source    int // node ID of the origin processor
	FirstSub  int // first global substream index
	SubCount  int // number of substreams
	AvgTuple  int // average tuple size, bytes
	Partition func(Tuple) int
}

// SubstreamRange returns the half-open global substream index range
// [first, first+count).
func (s *Stream) SubstreamRange() (first, count int) {
	return s.FirstSub, s.SubCount
}

// SubstreamOf maps a tuple to its global substream index using the stream's
// partition function, defaulting to hashing the tuple's timestamp when none
// is set.
func (s *Stream) SubstreamOf(t Tuple) int {
	if s.SubCount <= 0 {
		return s.FirstSub
	}
	if s.Partition != nil {
		local := s.Partition(t) % s.SubCount
		if local < 0 {
			local += s.SubCount
		}
		return s.FirstSub + local
	}
	return s.FirstSub + int(uint64(t.Timestamp)%uint64(s.SubCount))
}

// Value is a dynamically typed attribute value carried by tuples.
type Value struct {
	Type AttrType
	F    float64
	S    string
}

// FloatVal wraps a float64.
func FloatVal(f float64) Value { return Value{Type: Float, F: f} }

// IntVal wraps an integer (stored as float64 for uniform comparison).
func IntVal(i int64) Value { return Value{Type: Int, F: float64(i)} }

// StringVal wraps a string.
func StringVal(s string) Value { return Value{Type: String, S: s} }

// Compare returns -1, 0, or +1 comparing v with o. Numeric types compare by
// value; strings lexicographically; mixed numeric/string compares by type.
func (v Value) Compare(o Value) int {
	vn, on := v.Type != String, o.Type != String
	switch {
	case vn && on:
		switch {
		case v.F < o.F:
			return -1
		case v.F > o.F:
			return 1
		}
		return 0
	case !vn && !on:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	case vn:
		return -1
	default:
		return 1
	}
}

func (v Value) String() string {
	if v.Type == String {
		return fmt.Sprintf("%q", v.S)
	}
	return fmt.Sprintf("%g", v.F)
}

// TagAttr is the attribute name under which a tuple's routing tag (Tuple.Tag)
// is visible to filters and written to the wire. Like "timestamp" it names a
// header field, not a payload attribute: Attrs must not use it.
const TagAttr = "__q"

// Tuple is one stream element: a timestamp (milliseconds since the stream
// epoch), the producing stream's name, and attribute values.
type Tuple struct {
	Stream    string
	Timestamp int64
	// Tag is routing metadata beside the payload: the middleware names the
	// (superset) query that produced a result in it, and the Pub/Sub splits
	// a shared result stream on it (§2.1) without looking into Attrs. Empty
	// means untagged. Filters read it as the TagAttr attribute, projections
	// always carry it, and on the wire it travels as that attribute.
	Tag   string
	Attrs map[string]Value
	Size  int // encoded size in bytes, for traffic accounting

	// Owned says that no publisher aliases Attrs, so none will write the map
	// after handing the tuple over. Whoever builds a fresh map sets it (a
	// query result, a projection, a decode, a copy), and a broker delivers
	// the map itself where it would otherwise copy it first. Receivers
	// share an owned map and treat it as read-only all the same.
	Owned bool

	// Relay is an opaque hint the transport layer attaches to tuples that
	// arrived off the wire: the already-decoded wire form, reused verbatim
	// when the tuple is forwarded whole to the next hop instead of being
	// rebuilt and re-flattened. Matching and delivery ignore it, and any
	// transformation that copies the tuple (projection) drops it, so a
	// non-nil Relay always describes exactly this tuple.
	Relay any
}

// Get returns the named attribute. Two names resolve to the tuple header and
// never to Attrs: "timestamp" is the tuple timestamp as an Int value, and
// TagAttr the routing tag as a String value, absent on an untagged tuple.
func (t Tuple) Get(name string) (Value, bool) {
	switch name {
	case "timestamp":
		return IntVal(t.Timestamp), true
	case TagAttr:
		return StringVal(t.Tag), t.Tag != ""
	}
	v, ok := t.Attrs[name]
	return v, ok
}

// Clone returns a deep copy of the tuple, which owns its attribute map.
func (t Tuple) Clone() Tuple {
	attrs := make(map[string]Value, len(t.Attrs))
	for k, v := range t.Attrs {
		attrs[k] = v
	}
	return Tuple{Stream: t.Stream, Timestamp: t.Timestamp, Tag: t.Tag, Attrs: attrs, Size: t.Size, Owned: true}
}

// Registry is a concurrency-safe catalogue of streams and the global
// substream space. Streams register once; substream indices are assigned
// contiguously in registration order.
type Registry struct {
	mu      sync.RWMutex
	streams map[string]*Stream
	order   []string
	nextSub int
	rates   []float64 // per-substream rate, bytes/sec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{streams: make(map[string]*Stream)}
}

// Register adds a stream with the given number of substreams and returns the
// stored stream with its substream range assigned. Registering a duplicate
// name is an error.
func (r *Registry) Register(name string, schema Schema, source, subCount, avgTuple int) (*Stream, error) {
	if name == "" {
		return nil, fmt.Errorf("stream: empty stream name")
	}
	if subCount < 1 {
		return nil, fmt.Errorf("stream: stream %q needs >= 1 substream, got %d", name, subCount)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.streams[name]; dup {
		return nil, fmt.Errorf("stream: stream %q already registered", name)
	}
	s := &Stream{
		Name:     name,
		Schema:   schema,
		Source:   source,
		FirstSub: r.nextSub,
		SubCount: subCount,
		AvgTuple: avgTuple,
	}
	r.streams[name] = s
	r.order = append(r.order, name)
	r.nextSub += subCount
	r.rates = append(r.rates, make([]float64, subCount)...)
	return s, nil
}

// Lookup returns the stream with the given name.
func (r *Registry) Lookup(name string) (*Stream, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.streams[name]
	return s, ok
}

// Names returns stream names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// SubstreamCount returns the size of the global substream space.
func (r *Registry) SubstreamCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nextSub
}

// SetRate records the data rate (bytes/sec) of a global substream index.
func (r *Registry) SetRate(sub int, rate float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sub < 0 || sub >= r.nextSub {
		return fmt.Errorf("stream: substream %d out of range [0,%d)", sub, r.nextSub)
	}
	r.rates[sub] = rate
	return nil
}

// Rate returns the recorded rate of a global substream index.
func (r *Registry) Rate(sub int) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if sub < 0 || sub >= r.nextSub {
		return 0
	}
	return r.rates[sub]
}

// Rates returns a copy of the per-substream rate vector.
func (r *Registry) Rates() []float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]float64, len(r.rates))
	copy(out, r.rates)
	return out
}

// ScaleRate multiplies the rate of substream sub by factor — the primitive
// behind the rate-perturbation experiment (Fig 10).
func (r *Registry) ScaleRate(sub int, factor float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sub < 0 || sub >= r.nextSub {
		return fmt.Errorf("stream: substream %d out of range [0,%d)", sub, r.nextSub)
	}
	r.rates[sub] *= factor
	return nil
}

// Package stream defines the data model shared by the whole system: stream
// schemas with typed attributes, and the tuples that flow through the
// processing engine.
package stream

import "fmt"

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
	Type AttrType //lint:deadcode read by reflection: RegisterStream's reflect.DeepEqual rejects a re-registration whose schema differs
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

package stream

import (
	"testing"
)

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{FloatVal(1), FloatVal(2), -1},
		{FloatVal(2), FloatVal(2), 0},
		{FloatVal(3), FloatVal(2), 1},
		{IntVal(5), FloatVal(5), 0},
		{StringVal("a"), StringVal("b"), -1},
		{StringVal("b"), StringVal("b"), 0},
		{FloatVal(1), StringVal("a"), -1}, // numeric sorts before string
		{StringVal("a"), FloatVal(1), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTupleGet(t *testing.T) {
	tp := Tuple{
		Timestamp: 42,
		Attrs:     map[string]Value{"a": FloatVal(1)},
	}
	if v, ok := tp.Get("a"); !ok || v.F != 1 {
		t.Errorf("Get(a) = %v %v", v, ok)
	}
	if v, ok := tp.Get("timestamp"); !ok || v.F != 42 {
		t.Errorf("Get(timestamp) = %v %v", v, ok)
	}
	if _, ok := tp.Get("missing"); ok {
		t.Error("Get(missing) succeeded")
	}
	clone := tp.Clone()
	clone.Attrs["a"] = FloatVal(99)
	if tp.Attrs["a"].F != 1 {
		t.Error("Clone shares attribute map")
	}
}

func TestRegistryRegisterAndRanges(t *testing.T) {
	r := NewRegistry()
	s1, err := r.Register("A", Schema{}, 3, 32)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Register("B", Schema{}, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if f, c := s1.SubstreamRange(); f != 0 || c != 3 {
		t.Errorf("A range = %d,%d", f, c)
	}
	if f, c := s2.SubstreamRange(); f != 3 || c != 2 {
		t.Errorf("B range = %d,%d", f, c)
	}
	if _, err := r.Register("A", Schema{}, 1, 32); err == nil {
		t.Error("duplicate stream accepted")
	}
	if _, err := r.Register("", Schema{}, 1, 32); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := r.Register("C", Schema{}, 0, 32); err == nil {
		t.Error("zero substreams accepted")
	}
	if s, ok := r.Lookup("B"); !ok || s != s2 {
		t.Errorf("Lookup(B) = %v, %v", s, ok)
	}
}

func TestSchemaHasAttr(t *testing.T) {
	s := Schema{Attrs: []Attribute{{Name: "a", Type: Float}}}
	if !s.HasAttr("a") || !s.HasAttr("timestamp") {
		t.Error("HasAttr missed existing attributes")
	}
	if s.HasAttr("zzz") {
		t.Error("HasAttr found phantom attribute")
	}
}

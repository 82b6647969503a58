package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// The wire. A connection opens with wireMagic, wireVersion and the sender's
// node ID (8 bytes, big-endian), which every envelope on it shares. Frames
// follow: a 4-byte big-endian length, then one envelope (a kind byte and its
// body) or MsgBatch, a uvarint count and that many envelopes. In a body a
// string is a uvarint length and its bytes, a seq a uvarint, any other
// integer a varint, and a stream.Value its type byte, float bits (8 bytes,
// big-endian) and string. Advert and unadvertise carry stream, origin and
// seq; unsubscribe id and seq; data the tuple body (appendTupleBody);
// subscribe id, seq, streams, attrs and the filters (a count, then per filter
// its op and two operands). A name list is 0 for nil, else its length + 1 and
// the names, so an empty projection stays apart from keep-all; an operand is
// a flags byte (1 column, 2 literal), the column's alias and attr, the value.
const (
	wireMagic   = "CSMS"
	wireVersion = 2 // 1 was the gob envelope stream
	preambleLen = len(wireMagic) + 1 + 8
	// maxFrame caps a frame; a longer length is refused unread.
	maxFrame = 16 << 20
	// readBufSize is a connection's receive buffer. It grows only for a
	// longer frame, by no more than the bytes that arrived.
	readBufSize = 4 << 10
	maxInterned = 4096 // names one connection interns
	// The fewest bytes an envelope, a tuple attribute and a filter take: a
	// count the input cannot hold is refused before it is allocated for.
	minEnvelopeLen, minAttrLen, minPredLen = 3, 11, 3
	wireTupleVersion                       = 1 // leads every tuple body
)

var (
	errMalformed   = errors.New("transport: malformed frame")
	errUnknownKind = errors.New("transport: unknown envelope kind")
)

func appendPreamble(buf []byte, id topology.NodeID) []byte {
	return binary.BigEndian.AppendUint64(append(append(buf, wireMagic...), wireVersion), uint64(id))
}

// appendFrame appends one frame carrying batch, which is never empty: a lone
// envelope as itself, more as one MsgBatch.
func appendFrame(buf []byte, batch []Envelope) []byte {
	at := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	if len(batch) > 1 {
		buf = binary.AppendUvarint(append(buf, byte(MsgBatch)), uint64(len(batch)))
	}
	for i := range batch {
		buf = appendEnvelope(buf, &batch[i])
	}
	binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	return buf
}

func appendEnvelope(buf []byte, env *Envelope) []byte {
	buf = append(buf, byte(env.Kind))
	switch env.Kind {
	case MsgAdvert, MsgUnadvertise:
		buf = binary.AppendVarint(appendString(buf, env.StreamName), int64(env.Origin))
		return binary.AppendUvarint(buf, env.Seq)
	case MsgSubscribe:
		s := env.Sub
		buf = binary.AppendUvarint(appendString(buf, s.ID), s.Seq)
		buf = binary.AppendUvarint(appendList(appendList(buf, s.Streams), s.Attrs), uint64(len(s.Filters)))
		for _, p := range s.Filters {
			buf = binary.AppendVarint(buf, int64(p.Op))
			buf = appendOperand(appendOperand(buf, p.Left), p.Right)
		}
		return buf
	case MsgUnsubscribe:
		return binary.AppendUvarint(appendString(buf, env.SubID), env.Seq)
	}
	return append(buf, env.body...)
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

func appendList(buf []byte, l []string) []byte {
	if l == nil {
		return append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(l))+1)
	for _, s := range l {
		buf = appendString(buf, s)
	}
	return buf
}

func appendOperand(buf []byte, o query.Operand) []byte {
	flags := len(buf)
	buf = append(buf, 0)
	if o.Col != nil {
		buf[flags] |= 1
		buf = appendString(appendString(buf, o.Col.Alias), o.Col.Attr)
	}
	if o.Lit != nil {
		buf[flags] |= 2
		buf = appendValue(buf, *o.Lit)
	}
	return buf
}

func appendValue(buf []byte, v stream.Value) []byte {
	buf = binary.BigEndian.AppendUint64(append(buf, byte(v.Type)), math.Float64bits(v.F))
	return appendString(buf, v.S)
}

// appendTupleBody appends a data body: wireTupleVersion, the stream, the
// timestamp, the size, the attribute count and each attribute's name and
// value. Attrs is name-sorted, so a tuple's bytes do not depend on map order.
func appendTupleBody(buf []byte, w *WireTuple) []byte {
	buf = appendString(append(buf, wireTupleVersion), w.Stream)
	buf = binary.AppendVarint(binary.AppendVarint(buf, w.Timestamp), int64(w.Size))
	buf = binary.AppendUvarint(buf, uint64(len(w.Attrs)))
	for _, a := range w.Attrs {
		buf = appendValue(appendString(buf, a.Name), a.Val)
	}
	return buf
}

// tupleBody returns t's data body: the bytes it arrived in when it is
// forwarded whole (a projection drops Relay), else a fresh encoding that
// owns its bytes. It reads t's map before returning, so a publisher that
// does not own the map may reuse it afterwards.
func tupleBody(t stream.Tuple) []byte {
	if relay, ok := t.Relay.(*[]byte); ok {
		return *relay
	}
	var attrs [8]WireAttr // on the stack, like scratch: the body's copy is the one allocation
	var scratch [256]byte
	w := WireTuple{Stream: t.Stream, Timestamp: t.Timestamp, Size: t.Size, Attrs: sortedAttrs(attrs[:0], t)}
	return bytes.Clone(appendTupleBody(scratch[:0], &w))
}

// sortedAttrs appends t's attributes to dst sorted by name, the routing tag
// among them as the string attribute stream.TagAttr: the body has no field
// for it.
func sortedAttrs(dst []WireAttr, t stream.Tuple) []WireAttr {
	if t.Tag != "" {
		dst = append(dst, WireAttr{Name: stream.TagAttr, Val: stream.StringVal(t.Tag)})
	}
	for name, v := range t.Attrs {
		//lint:maporder the slice is sorted below; iteration order is unobservable
		dst = append(dst, WireAttr{Name: name, Val: v})
	}
	slices.SortFunc(dst, func(a, b WireAttr) int { return strings.Compare(a.Name, b.Name) })
	return dst
}

// decodeFrame parses one frame and hands each envelope it carries to the
// peer, in order, as sent by from. It stops at the first fault: the
// envelopes before it have been handed over. A data tuple's Relay is its
// body, in one copy of the frame all the frame's tuples share, so a tuple
// forwarded whole is written as it arrived.
func decodeFrame(frame []byte, from topology.NodeID, names map[string]string, to pubsub.Peer) error {
	r := reader{b: frame, names: names}
	n := 1
	if len(frame) > 0 && MsgKind(frame[0]) == MsgBatch {
		r.byte()
		if n = r.count(minEnvelopeLen); n == 0 {
			return errMalformed
		}
	}
	var relays [][]byte
	for i := range n {
		switch kind := MsgKind(r.byte()); kind {
		case MsgAdvert, MsgUnadvertise:
			name, origin, seq := r.name(), topology.NodeID(r.varint()), r.uvarint()
			switch {
			case r.bad:
			case kind == MsgAdvert:
				to.AdvertFrom(from, name, origin, seq)
			default:
				to.UnadvertFrom(from, name, origin, seq)
			}
		case MsgSubscribe:
			if sub := r.subscription(); !r.bad {
				to.PropagateFrom(sub, from)
			}
		case MsgUnsubscribe:
			if id, seq := r.str(), r.uvarint(); !r.bad {
				to.RetractFrom(from, id, seq)
			}
		case MsgData:
			if relays == nil {
				relays = make([][]byte, 0, n-i)
				r.b = bytes.Clone(r.b)
			}
			if t, body := r.tuple(); !r.bad {
				relays = append(relays, body)
				t.Relay = &relays[len(relays)-1]
				to.RouteFrom(t, from)
			}
		case MsgBatch: // batches never nest
			r.fail()
		default:
			if !r.bad {
				return errUnknownKind
			}
		}
		if r.bad {
			return errMalformed
		}
	}
	if len(r.b) != 0 {
		return errMalformed
	}
	return nil
}

// reader is a cursor over received bytes. A read past the end or of a
// malformed field marks it bad, and every later read returns a zero value:
// a parse checks bad once, before it uses what it read.
type reader struct {
	b     []byte
	bad   bool
	names map[string]string // the connection's interned names; nil interns none
}

func (r *reader) fail() { r.b, r.bad = nil, true }

// take returns the next n bytes, aliasing the input, or nil past the end.
func (r *reader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

func (r *reader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 { // zigzag, as binary.AppendVarint writes it
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) count(itemLen int) int { // of items itemLen bytes long at least
	if n := r.uvarint(); n <= uint64(len(r.b)/itemLen) {
		return int(n)
	}
	r.fail()
	return 0
}

func (r *reader) str() string { return string(r.take(r.uvarint())) }

// name reads a stream or attribute name. A connection carries few distinct
// ones, so each is interned: a name seen before costs no allocation.
func (r *reader) name() string {
	b := r.take(r.uvarint())
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if r.names != nil && len(r.names) < maxInterned {
		r.names[s] = s
	}
	return s
}

func (r *reader) value() stream.Value {
	b := r.take(9)
	if b == nil {
		return stream.Value{}
	}
	return stream.Value{Type: stream.AttrType(b[0]), F: math.Float64frombits(binary.BigEndian.Uint64(b[1:])), S: r.str()}
}

// list reads a name list, keeping nil and empty apart. Its length + 1 fits
// the input: each name takes a byte at least, and more of the body follows.
func (r *reader) list() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	l := make([]string, n-1)
	for i := range l {
		l[i] = r.name()
	}
	return l
}

func (r *reader) operand() (o query.Operand) {
	flags := r.byte()
	if flags > 3 {
		r.fail()
	}
	if flags&1 != 0 {
		o.Col = &query.ColRef{Alias: r.name(), Attr: r.name()}
	}
	if flags&2 != 0 {
		v := r.value()
		o.Lit = &v
	}
	return o
}

// subscription reads a subscription body into a subscription this hop owns.
func (r *reader) subscription() *pubsub.Subscription {
	s := &pubsub.Subscription{ID: r.str(), Seq: r.uvarint(), Streams: r.list(), Attrs: r.list()}
	if n := r.count(minPredLen); n > 0 {
		s.Filters = make([]query.Predicate, n)
		for i := range s.Filters {
			s.Filters[i] = query.Predicate{Op: query.Op(r.varint()), Left: r.operand(), Right: r.operand()}
		}
	}
	return s
}

// tuple reads a tuple body into a tuple with a map of its own, a non-empty
// string stream.TagAttr lifted into the header, and returns the body's bytes
// too. Attribute names must be strictly ascending: a body has one encoding,
// so the bytes a tuple is relayed in are the bytes it would be encoded in.
func (r *reader) tuple() (stream.Tuple, []byte) {
	body := r.b
	if r.byte() != wireTupleVersion {
		r.fail()
	}
	t := stream.Tuple{Stream: r.name(), Timestamp: r.varint(), Size: int(r.varint()), Owned: true}
	n := r.count(minAttrLen)
	if n > 0 {
		t.Attrs = make(map[string]stream.Value, n)
	}
	for i, prev := 0, ""; i < n && !r.bad; i++ {
		name, v := r.name(), r.value()
		switch {
		case i > 0 && name <= prev:
			r.fail()
		case name == stream.TagAttr && v.Type == stream.String && v.S != "":
			t.Tag = v.S
		default:
			t.Attrs[name] = v
		}
		prev = name
	}
	used := len(body) - len(r.b)
	return t, body[:used:used]
}

// frameReader reads one connection's frames through one buffer.
type frameReader struct {
	src  io.Reader
	buf  []byte
	r, w int // buf[r:w] arrived and is not parsed yet
}

func newFrameReader(src io.Reader) *frameReader {
	return &frameReader{src: src, buf: make([]byte, readBufSize)}
}

// preamble reads the connection's preamble and returns the sender's ID. A
// preamble of another magic or version is errMalformed.
func (fr *frameReader) preamble() (topology.NodeID, error) {
	if err := fr.fill(preambleLen); err != nil {
		return 0, err
	}
	p := fr.buf[fr.r : fr.r+preambleLen]
	fr.r += preambleLen
	if string(p[:len(wireMagic)]) != wireMagic || p[len(wireMagic)] != wireVersion {
		return 0, errMalformed
	}
	return topology.NodeID(int64(binary.BigEndian.Uint64(p[len(wireMagic)+1:]))), nil
}

// next returns the next frame's bytes, valid until the following call. A
// length above maxFrame is errMalformed.
func (fr *frameReader) next() ([]byte, error) {
	if err := fr.fill(4); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(fr.buf[fr.r:])
	if n > maxFrame {
		return nil, errMalformed
	}
	if err := fr.fill(4 + int(n)); err != nil {
		return nil, err
	}
	fr.r += 4 + int(n)
	return fr.buf[fr.r-int(n) : fr.r], nil
}

// fill reads until k unparsed bytes are buffered. A frame that does not fit
// moves to the front of the buffer, and the buffer doubles, up to k, each
// time the arrived bytes fill it.
func (fr *frameReader) fill(k int) error {
	if fr.r+k > len(fr.buf) {
		fr.w, fr.r = copy(fr.buf, fr.buf[fr.r:fr.w]), 0
	}
	for fr.w-fr.r < k {
		if fr.w == len(fr.buf) {
			grown := make([]byte, min(2*len(fr.buf), k))
			copy(grown, fr.buf)
			fr.buf = grown
		}
		m, err := fr.src.Read(fr.buf[fr.w:])
		if fr.w += m; err != nil && fr.w-fr.r < k {
			return err
		}
	}
	return nil
}

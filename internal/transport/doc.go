// Package transport runs the Pub/Sub broker protocol over TCP, turning the
// in-process overlay into a genuinely distributed one: each process hosts
// one broker and exchanges envelopes (advertisements, subscriptions, data
// tuples) with its overlay neighbors. It implements pubsub.Fabric, so the
// routing logic is byte-for-byte the same code that the simulation and the
// embedded middleware run.
//
// The wire (frame.go) is one hand-written, versioned framing: a connection
// opens with a preamble naming the wire version and the sender, then carries
// length-prefixed frames of one envelope or a batch of them. All nodes of an
// overlay run one wire version; a connection that opens with another is
// refused and counted in transport.malformed_envelope. A tuple a broker
// forwards whole is written in the bytes it arrived in.
//
// Failure handling: each link is one TCP stream, delivered FIFO — which is
// why the epoch machinery's duplication/reorder tolerance only needs to
// absorb retransmit bursts and cross-link races (see internal/chaos). A
// failed write evicts and closes the cached connection so the next send
// redials; control-plane envelopes retry with capped exponential backoff
// under a bounded in-flight budget, data tuples are at-most-once. Terminal
// failures surface through internal/metrics counters and a Warn record on
// Options.Logger, naming the peer and the message kind. Transport and
// encode errors must never be silently discarded — cosmoslint's errdrop
// analyzer enforces this (LINT.md).
package transport

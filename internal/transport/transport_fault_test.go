package transport

import (
	"encoding/binary"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/pubsub"
	"repro/internal/stream"
	"repro/internal/topology"
)

// TestSenderRetriesAfterPeerRestart: a neighbor restarts while the sender
// holds a connection to its previous incarnation. The next write fails
// (a stream cannot resume mid-frame), the sender must evict the
// poisoned connection, redial and retry — the control envelope arrives and
// no terminal failure is surfaced.
func TestSenderRetriesAfterPeerRestart(t *testing.T) {
	a, err := NewNode(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() }) //lint:errdrop test teardown is best-effort
	b, err := NewNode(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bAddr := b.Addr()
	a.Connect(1, bAddr)
	b.Connect(0, a.Addr())

	// Prime the pipeline: the sender dials and caches a connection.
	a.Broker.Advertise("R")
	waitFor(t, "advert at original peer", func() bool {
		_, learned := b.Broker.AdvertStateSize()
		return learned == 1
	})

	// Restart: same identity, same address, empty state. a's cached
	// connection now points at a dead socket.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := NewNode(1, bAddr)
	if err != nil {
		t.Fatalf("rebind restarted peer at %s: %v", bAddr, err)
	}
	t.Cleanup(func() { _ = b2.Close() }) //lint:errdrop test teardown is best-effort
	b2.Connect(0, a.Addr())

	// The resync rides whatever connection state a has; a write into the
	// dead socket's kernel buffer can vanish without an error, so drive
	// the resend until the restarted peer has caught up (each envelope
	// that DOES error is retried over a fresh dial by the sender).
	waitFor(t, "restarted peer resynced", func() bool {
		a.Peer(1).AdvertFrom(0, "R", 0, 1)
		a.Flush()
		_, learned := b2.Broker.AdvertStateSize()
		return learned == 1
	})
	if got := a.cSendFailures.Value(); got != 0 {
		t.Errorf("retryable write failure surfaced as terminal: %d failures", got)
	}
}

// TestSendErrorHandlerSurfacesTerminalFailures: when every retry is
// exhausted (peer gone, nothing listening), the loss is counted and the
// node's logger is told which peer and kind died — no more silent `_ =`
// drops.
func TestSendErrorHandlerSurfacesTerminalFailures(t *testing.T) {
	var buf logBuf
	n, err := NewNodeWith(0, "127.0.0.1:0", Options{Logger: slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() }) //lint:errdrop test teardown is best-effort
	// A listener we immediately close: dialing its address now fails.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	_ = dead.Close() //lint:errdrop deliberately killing the listener so the dial target is dead
	n.Connect(1, deadAddr)

	n.Broker.Advertise("R") // floods to peer 1, which is unreachable

	waitFor(t, "the terminal loss to be logged", func() bool {
		return strings.Contains(buf.String(), `msg="envelope lost" peer=1 kind=advert`)
	})
	if n.cSendFailures.Value() == 0 {
		t.Error("terminal loss did not move transport.send_failures")
	}
}

// TestMalformedEnvelopesCounted: unknown kinds and envelopes missing their
// payload are dropped and counted, not crashed on — the decode loop accepts
// unauthenticated inbound connections. A nested batch is malformed too.
func TestMalformedEnvelopesCounted(t *testing.T) {
	nodes := line3(t)

	conn := rawConn(t, nodes[1].Addr(), 0)
	advert := appendFrame(nil, []Envelope{{Kind: MsgAdvert, StreamName: "X", Origin: 0, Seq: 9}})[4:]
	for _, body := range [][]byte{
		{99},
		{byte(MsgSubscribe)}, // no subscription
		{byte(MsgData)},      // no tuple
		{byte(MsgBatch), 0},  // empty batch
		append([]byte{byte(MsgBatch), 1, byte(MsgBatch), 1}, advert...), // nested batch
	} {
		writeRaw(t, conn, binary.BigEndian.AppendUint32(nil, uint32(len(body))), body)
	}
	waitFor(t, "malformed envelopes counted", func() bool {
		return nodes[1].cUnknownKind.Value() == 1 && nodes[1].cMalformed.Value() == 4
	})
	if remote, _ := nodes[1].Broker.RoutingStateSize(); remote != 0 {
		t.Errorf("malformed envelopes installed routing state: %d records", remote)
	}
	if _, learned := nodes[1].Broker.AdvertStateSize(); learned != 0 {
		t.Errorf("nested batch content was dispatched: learned=%d adverts", learned)
	}
	if got := nodes[1].Broker.Metrics().Snapshot()["transport.unknown_envelope_kind"]; got != 1 {
		t.Errorf("node 1's registry reads transport.unknown_envelope_kind = %d, want 1", got)
	}
}

// TestWireIdempotenceUnderDupAndReorder: a rogue connection impersonating a
// legitimate neighbor replays duplicated and reordered control envelopes at
// a broker in the middle of a real TCP chain. The epoch machinery must
// leave the overlay in exactly the state of a clean run: no ghost routing
// records, no resurrected adverts, and probe traffic delivering once.
func TestWireIdempotenceUnderDupAndReorder(t *testing.T) {
	nodes := line3(t)
	nodes[0].Broker.Advertise("R")
	waitFor(t, "advert reaches the far end", func() bool {
		_, learned := nodes[2].Broker.AdvertStateSize()
		return learned == 1
	})

	// Rogue conn to node 1 impersonating neighbor 2 — a valid direction,
	// so the messages exercise the epoch machinery, not the membership
	// guards. "R" is advertised at node 1 via direction 0, so absent the
	// tombstone the ghost subscription WOULD install. Half the replay
	// rides MsgBatch framing: batched and plain envelopes must hit the
	// same idempotence machinery.
	conn := rawConn(t, nodes[1].Addr(), 2)
	ghost := &pubsub.Subscription{ID: "ghost", Seq: 5, Streams: []string{"R"}}
	for _, frame := range [][]Envelope{
		// Retraction overtakes its propagation, which then lands TWICE
		// (once plain, once inside a batch).
		{{Kind: MsgUnsubscribe, SubID: "ghost", Seq: 5}},
		{{Kind: MsgSubscribe, Sub: ghost}},
		{
			{Kind: MsgSubscribe, Sub: ghost},
			// Withdrawal overtakes its advert, which then lands twice.
			{Kind: MsgUnadvertise, StreamName: "X", Origin: 2, Seq: 3},
			{Kind: MsgAdvert, StreamName: "X", Origin: 2, Seq: 3},
		},
		{{Kind: MsgAdvert, StreamName: "X", Origin: 2, Seq: 3}},
		// Adjacent duplicate of a well-formed retraction for a record that
		// never existed: must be absorbed without residue.
		{{Kind: MsgUnsubscribe, SubID: "never", Seq: 1}},
		{{Kind: MsgUnsubscribe, SubID: "never", Seq: 1}},
	} {
		writeRaw(t, conn, appendFrame(nil, frame))
	}
	// The replay is absorbed asynchronously; settle, then assert nothing
	// stuck. (The per-link stream is FIFO, so a later probe flowing
	// 2->1 would also fence the rogue stream — but the rogue conn is its
	// own stream, hence the sleep.)
	time.Sleep(100 * time.Millisecond)
	if remote, _ := nodes[1].Broker.RoutingStateSize(); remote != 0 {
		t.Fatalf("ghost subscription installed: %d remote records at node 1", remote)
	}
	if _, learned := nodes[1].Broker.AdvertStateSize(); learned != 1 {
		t.Fatalf("replayed advert resurrected state: learned=%d at node 1, want 1 (just R)", learned)
	}

	// The overlay still behaves exactly like a clean run.
	delivered := 0
	done := make(chan struct{}, 8)
	if err := nodes[2].Broker.Subscribe(&pubsub.Subscription{ID: "s", Streams: []string{"R"}},
		func(*pubsub.Subscription, stream.Tuple) { delivered++; done <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "probe subscription recorded at source", func() bool {
		remote, _ := nodes[0].Broker.RoutingStateSize()
		return remote == 1
	})
	nodes[0].Broker.Publish(stream.Tuple{Stream: "R", Timestamp: 1,
		Attrs: map[string]stream.Value{"a": stream.FloatVal(1)}, Size: 24})
	<-done
	time.Sleep(50 * time.Millisecond)
	if delivered != 1 {
		t.Fatalf("probe delivered %d times, want exactly 1", delivered)
	}

	nodes[2].Broker.Unsubscribe("s")
	nodes[0].Broker.Unadvertise("R")
	waitFor(t, "overlay drains after teardown", func() bool {
		for _, n := range nodes {
			remote, local := n.Broker.RoutingStateSize()
			own, learned := n.Broker.AdvertStateSize()
			if remote+local+own+learned != 0 {
				return false
			}
		}
		return true
	})
}

// rawConn dials addr and opens the connection as node from's, preamble and
// all, so the test writes frames by hand.
func rawConn(t *testing.T, addr string, from topology.NodeID) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() }) //lint:errdrop test teardown is best-effort
	writeRaw(t, conn, appendPreamble(nil, from))
	return conn
}

func writeRaw(t *testing.T, conn net.Conn, parts ...[]byte) {
	t.Helper()
	for _, b := range parts {
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
}

package transport

import (
	"bytes"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pubsub"
	"repro/internal/stream"
)

// logBuf is a goroutine-safe sink: the logger writes from the sender
// goroutines while the test polls String.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestPipeStatusHealthy: after real traffic crosses a link, its status row
// reports connected with no error and nonzero byte accounting.
func TestPipeStatusHealthy(t *testing.T) {
	nodes := line3(t)
	nodes[0].Broker.Advertise("S")
	var got atomic.Int64
	err := nodes[2].Broker.Subscribe(&pubsub.Subscription{ID: "s", Streams: []string{"S"}},
		func(*pubsub.Subscription, stream.Tuple) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription to reach the publisher", func() bool {
		remote, _ := nodes[0].Broker.RoutingStateSize()
		return remote > 0
	})
	nodes[0].Broker.Publish(stream.Tuple{Stream: "S", Size: 24})
	waitFor(t, "delivery", func() bool { return got.Load() > 0 })

	st := nodes[0].PipeStatus()
	if len(st) != 1 || st[0].Peer != 1 {
		t.Fatalf("PipeStatus = %+v, want one row for peer 1", st)
	}
	if !st[0].Healthy() || !st[0].Connected || st[0].LastErr != nil {
		t.Fatalf("link should be healthy and connected: %+v", st[0])
	}
	if st[0].ControlBytes == 0 || st[0].DataBytes == 0 {
		t.Fatalf("byte accounting empty: %+v", st[0])
	}

	// The middle node has pipes to both ends, ascending order.
	mid := nodes[1].PipeStatus()
	if len(mid) != 2 || mid[0].Peer != 0 || mid[1].Peer != 2 {
		t.Fatalf("middle PipeStatus = %+v, want rows for peers 0 and 2", mid)
	}
}

// TestPipeStatusDeadPeer: a link whose peer is gone goes unhealthy once a
// send fails, and the failure is logged through the Options.Logger seam.
func TestPipeStatusDeadPeer(t *testing.T) {
	// Reserve an address with nothing listening on it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}

	var buf logBuf
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	n, err := NewNodeWith(5, "127.0.0.1:0", Options{Logger: log})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() }) //lint:errdrop test teardown is best-effort
	n.Connect(9, deadAddr)

	// Before any traffic the pipe is pending: not connected, but healthy.
	st := n.PipeStatus()
	if len(st) != 1 || !st[0].Healthy() || st[0].Connected {
		t.Fatalf("pre-traffic status = %+v, want pending-healthy", st)
	}

	n.Broker.Advertise("S") // forces a send toward the dead peer
	waitFor(t, "link to report unhealthy", func() bool {
		st := n.PipeStatus()
		return len(st) == 1 && !st[0].Healthy()
	})
	st = n.PipeStatus()
	if st[0].Connected || st[0].LastErr == nil {
		t.Fatalf("dead link status = %+v, want disconnected with error", st[0])
	}
	waitFor(t, "dial failure to be logged", func() bool {
		return strings.Contains(buf.String(), "msg=\"dial failed\"")
	})
	if out := buf.String(); !strings.Contains(out, "peer=9") {
		t.Fatalf("log line missing peer field:\n%s", out)
	}
}

// TestMsgKindString pins the names the loss logs and handlers report.
func TestMsgKindString(t *testing.T) {
	for _, c := range []struct {
		k MsgKind
		s string
	}{
		{MsgAdvert, "advert"},
		{MsgSubscribe, "subscribe"},
		{MsgData, "data"},
		{MsgUnsubscribe, "unsubscribe"},
		{MsgUnadvertise, "unadvertise"},
		{MsgBatch, "batch"},
		{MsgKind(99), "kind(99)"},
	} {
		if c.k.String() != c.s {
			t.Errorf("MsgKind(%d).String() = %q, want %q", int(c.k), c.k.String(), c.s)
		}
	}
}

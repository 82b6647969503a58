package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nodeconfig"
)

// syncBuf is a goroutine-safe log sink the test can read while the services
// write.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func loadCfg(t *testing.T, args ...string) *nodeconfig.Config {
	t.Helper()
	cfg, err := nodeconfig.Load(args, func(string) (string, bool) { return "", false }, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServiceEndToEnd boots the compose topology in-process — publisher 0,
// forwarder 1, subscriber 2 on a line — and walks the node-smoke script's
// assertions: filtered delivery, healthz/metrics/overlay.dot on every node,
// then a graceful shutdown of the publisher and the survivors' residual
// routing state draining to empty.
func TestServiceEndToEnd(t *testing.T) {
	common := []string{"-listen", "127.0.0.1:0", "-ops-listen", "127.0.0.1:0",
		"-log-level", "debug", "-peer-wait", "5s", "-drain-timeout", "5s"}
	cfgs := [3]*nodeconfig.Config{
		loadCfg(t, append([]string{"-id", "0", "-advertise", "Station1", "-publish", "Station1", "-period", "20ms"}, common...)...),
		loadCfg(t, append([]string{"-id", "1"}, common...)...),
		loadCfg(t, append([]string{"-id", "2", "-subscribe", "SELECT * FROM Station1 WHERE snowHeight >= 0"}, common...)...),
	}

	var logs [3]*syncBuf
	var svcs [3]*service
	for i, cfg := range cfgs {
		logs[i] = &syncBuf{}
		svc, err := newService(cfg, newLogger(logs[i], slog.LevelDebug).With("node", cfg.NodeID))
		if err != nil {
			t.Fatalf("newService %d: %v", i, err)
		}
		svcs[i] = svc
	}
	defer func() {
		for _, s := range svcs {
			s.Close()
		}
	}()

	// Line topology 0–1–2, wired with the runtime-resolved addresses.
	cfgs[0].Peers = []nodeconfig.Peer{{ID: 1, Addr: svcs[1].Addr()}}
	cfgs[1].Peers = []nodeconfig.Peer{{ID: 0, Addr: svcs[0].Addr()}, {ID: 2, Addr: svcs[2].Addr()}}
	cfgs[2].Peers = []nodeconfig.Peer{{ID: 1, Addr: svcs[1].Addr()}}
	for i, svc := range svcs {
		if err := svc.Start(); err != nil {
			t.Fatalf("Start %d: %v", i, err)
		}
	}

	// End-to-end filtered delivery: the subscriber logs msg=delivery once
	// tuples flow 0 → 1 → 2 through the filter.
	waitFor(t, "filtered delivery at the subscriber", func() bool {
		return strings.Contains(logs[2].String(), "msg=delivery")
	})
	if !strings.Contains(logs[2].String(), "stream=Station1") {
		t.Fatalf("delivery log missing stream field:\n%s", logs[2].String())
	}

	// The subscriber reaches readiness via advert arrival, not sleeps.
	waitFor(t, "subscriber readiness", func() bool { return svcs[2].ready.Load() })
	if !strings.Contains(logs[2].String(), "msg=ready") {
		t.Fatalf("readiness not logged:\n%s", logs[2].String())
	}

	// Ops surface on every node.
	for i, svc := range svcs {
		base := "http://" + svc.OpsAddr()
		code, body := httpGet(t, base+"/healthz")
		if code != http.StatusOK || !strings.Contains(body, "status=ok") {
			t.Fatalf("node %d /healthz = %d:\n%s", i, code, body)
		}
		code, body = httpGet(t, base+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("node %d /metrics = %d", i, code)
		}
		for _, metric := range []string{
			"cosmos_pubsub_routed_tuples", "cosmos_transport_wire_msgs",
			"cosmos_adverts_learned", "cosmos_routing_remote_records", "cosmos_node_ready",
		} {
			if !strings.Contains(body, metric) {
				t.Fatalf("node %d /metrics missing %s:\n%s", i, metric, body)
			}
		}
		code, body = httpGet(t, base+"/debug/overlay.dot")
		if code != http.StatusOK || !strings.Contains(body, "graph cosmos {") {
			t.Fatalf("node %d /debug/overlay.dot = %d:\n%s", i, code, body)
		}
		if !strings.Contains(body, fmt.Sprintf("n%d -- ", i)) {
			t.Fatalf("node %d overlay.dot has no edges:\n%s", i, body)
		}
	}

	// The middle node's healthz names both links.
	_, body := httpGet(t, "http://"+svcs[1].OpsAddr()+"/healthz")
	if !strings.Contains(body, "peer=0") || !strings.Contains(body, "peer=2") {
		t.Fatalf("middle node healthz missing links:\n%s", body)
	}

	// Graceful shutdown of the publisher: its advert withdrawal must drain
	// the survivors' routing state (no residual adverts, no remote records
	// — the subscription they justified is pruned by the mirror rule).
	svcs[0].Shutdown()
	if !strings.Contains(logs[0].String(), "msg=drained") {
		t.Fatalf("publisher did not log a completed drain:\n%s", logs[0].String())
	}
	waitFor(t, "survivors to drain the departed node's state", func() bool {
		for _, svc := range svcs[1:] {
			if _, learned := svc.node.Broker.AdvertStateSize(); learned != 0 {
				return false
			}
			if remote, _ := svc.node.Broker.RoutingStateSize(); remote != 0 {
				return false
			}
		}
		return true
	})
	// The subscriber's own client subscription survives its publisher.
	if _, local := svcs[2].node.Broker.RoutingStateSize(); local != 1 {
		t.Fatalf("subscriber lost its local subscription: local = %d", local)
	}
	// And the survivors' metrics reflect the drained state.
	_, body = httpGet(t, "http://"+svcs[1].OpsAddr()+"/metrics")
	for _, line := range []string{"cosmos_adverts_learned 0", "cosmos_routing_remote_records 0"} {
		if !strings.Contains(body, line) {
			t.Fatalf("survivor metrics not drained, missing %q:\n%s", line, body)
		}
	}

	svcs[2].Shutdown()
	svcs[1].Shutdown()
	// Shutdown is idempotent.
	svcs[1].Shutdown()
}

// TestServiceFilterOnUnprojectedColumn subscribes one hop from the publisher
// with a filter on a column the select list leaves out. The publisher's
// broker cuts forwarded tuples down to the subscription's projection and
// the subscriber's broker filters again on arrival, so the projection must
// carry the filter column or nothing is ever delivered.
func TestServiceFilterOnUnprojectedColumn(t *testing.T) {
	common := []string{"-listen", "127.0.0.1:0", "-peer-wait", "5s", "-drain-timeout", "5s"}
	cfgs := [2]*nodeconfig.Config{
		loadCfg(t, append([]string{"-id", "0", "-advertise", "Station1", "-publish", "Station1", "-period", "20ms"}, common...)...),
		loadCfg(t, append([]string{"-id", "1", "-subscribe", "SELECT station FROM Station1 WHERE snowHeight >= 0"}, common...)...),
	}
	var svcs [2]*service
	sub := &syncBuf{}
	for i, cfg := range cfgs {
		var w io.Writer = io.Discard
		if i == 1 {
			w = sub
		}
		svc, err := newService(cfg, newLogger(w, slog.LevelInfo))
		if err != nil {
			t.Fatalf("newService %d: %v", i, err)
		}
		svcs[i] = svc
		defer svc.Close()
	}
	cfgs[0].Peers = []nodeconfig.Peer{{ID: 1, Addr: svcs[1].Addr()}}
	cfgs[1].Peers = []nodeconfig.Peer{{ID: 0, Addr: svcs[0].Addr()}}
	for i, svc := range svcs {
		if err := svc.Start(); err != nil {
			t.Fatalf("Start %d: %v", i, err)
		}
	}
	waitFor(t, "delivery of the projected column", func() bool {
		return strings.Contains(sub.String(), "msg=delivery") && strings.Contains(sub.String(), "station=")
	})
}

package main

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"
)

// opsServer is the node's operational HTTP surface:
//
//	/healthz           200 when every overlay link is healthy, 503 otherwise
//	/metrics           Prometheus text exposition of this node's counters
//	                   plus point-in-time routing/advert gauges
//	/debug/overlay.dot DOT rendering of this node's view of the overlay,
//	                   one edge per link with its routing-state summary
//
// The listener is bound at construction (so ":0" resolves before Start) and
// served from serve(); close() shuts it down with the node.
type opsServer struct {
	svc *service
	ln  net.Listener
	srv *http.Server
}

func newOpsServer(s *service, addr string) (*opsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops listen %s: %w", addr, err)
	}
	o := &opsServer{svc: s, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", o.handleHealthz)
	mux.HandleFunc("/metrics", o.handleMetrics)
	mux.HandleFunc("/debug/overlay.dot", o.handleOverlayDot)
	o.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return o, nil
}

func (o *opsServer) addr() string { return o.ln.Addr().String() }

func (o *opsServer) serve() {
	go func() {
		// ErrServerClosed is the close() path; anything else is logged
		// but not fatal — the overlay node keeps running without its ops
		// surface rather than dying mid-flight.
		if err := o.srv.Serve(o.ln); err != nil && err != http.ErrServerClosed {
			o.svc.log.Error("ops server failed", "err", err)
		}
	}()
}

func (o *opsServer) close() {
	//lint:errdrop best-effort teardown; the listener is closed either way
	_ = o.srv.Close()
}

// handleHealthz reports overlay liveness: 200 and "status=ok" when every
// peer pipe is healthy (no dial/write failure since the last successful
// connect), 503 and "status=degraded" otherwise. The body lists readiness
// and one line per link, so a probe failure names the dead peer.
func (o *opsServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	healthy := true
	fmt.Fprintf(&b, "node=%d ready=%v\n", o.svc.cfg.NodeID, o.svc.ready.Load())
	for _, st := range o.svc.node.PipeStatus() {
		ok := st.Healthy()
		healthy = healthy && ok
		errStr := ""
		if st.LastErr != nil {
			errStr = st.LastErr.Error()
		}
		fmt.Fprintf(&b, "peer=%d addr=%s connected=%v healthy=%v queued=%d err=%q\n",
			st.Peer, st.Addr, st.Connected, ok, st.Queued, errStr)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	status := "status=ok\n"
	if !healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
		status = "status=degraded\n"
	}
	_, _ = fmt.Fprint(w, status, b.String()) //lint:errdrop client went away mid-response; nothing to do
}

// handleMetrics serves the Prometheus text format: every counter of this
// node's registry (pubsub.* routing/suppression/churn, transport.*
// batching/loss) plus point-in-time gauges for routing-table population,
// advert-table population, readiness and per-link byte accounting.
func (o *opsServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	remote, local := o.svc.node.Broker.RoutingStateSize()
	own, learned := o.svc.node.Broker.AdvertStateSize()
	gauges := map[string]int64{
		"routing.remote_records": int64(remote),
		"routing.local_records":  int64(local),
		"adverts.own":            int64(own),
		"adverts.learned":        int64(learned),
		"node.ready":             0,
	}
	if o.svc.ready.Load() {
		gauges["node.ready"] = 1
	}
	for _, st := range o.svc.node.PipeStatus() {
		gauges[fmt.Sprintf("link.%d.data_bytes", st.Peer)] = st.DataBytes
		gauges[fmt.Sprintf("link.%d.control_bytes", st.Peer)] = st.ControlBytes
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := o.svc.node.Broker.Metrics().WritePrometheus(w, gauges); err != nil {
		o.svc.log.Debug("metrics write aborted", "err", err)
	}
}

// handleOverlayDot renders this node's live view of the overlay as DOT: the
// node itself, one edge per neighbor labeled with the link's routing-state
// summary (recorded subscriptions and learned adverts behind it, transport
// health and bytes). Feed it to `dot -Tsvg` or diff it in a soak.
func (o *opsServer) handleOverlayDot(w http.ResponseWriter, _ *http.Request) {
	dirs := o.svc.node.Broker.DirStates()
	status := o.svc.node.PipeStatus()
	health := make(map[int]string, len(status))
	bytes := make(map[int]int64, len(status))
	for _, st := range status {
		h := "healthy"
		if !st.Healthy() {
			h = "unhealthy"
		} else if !st.Connected {
			h = "idle"
		}
		health[int(st.Peer)] = h
		bytes[int(st.Peer)] = st.DataBytes + st.ControlBytes
	}

	var b strings.Builder
	b.WriteString("graph cosmos {\n")
	remote, local := o.svc.node.Broker.RoutingStateSize()
	own, _ := o.svc.node.Broker.AdvertStateSize()
	fmt.Fprintf(&b, "  n%d [label=\"node %d\\nlocal_subs=%d remote_subs=%d own_adverts=%d\", shape=box];\n",
		o.svc.cfg.NodeID, o.svc.cfg.NodeID, local, remote, own)
	for _, d := range dirs { // already in ascending neighbor order
		id := int(d.Neighbor)
		fmt.Fprintf(&b, "  n%d [label=\"node %d\"];\n", id, id)
		fmt.Fprintf(&b, "  n%d -- n%d [label=\"subs=%d adverts=%d %s bytes=%d\"];\n",
			o.svc.cfg.NodeID, id, d.Subs, d.Adverts, health[id], bytes[id])
	}
	b.WriteString("}\n")
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	_, _ = fmt.Fprint(w, b.String()) //lint:errdrop client went away mid-response; nothing to do
}

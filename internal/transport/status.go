package transport

import "repro/internal/topology"

// PipeStatus is a point-in-time snapshot of one peer send pipeline's health
// and accounting — the rows behind the node's /healthz endpoint and the
// per-link section of /debug/overlay.dot.
type PipeStatus struct {
	Peer topology.NodeID
	Addr string
	// Connected reports a live outbound connection. A pipe that has not
	// needed to dial yet (no traffic since Connect) is not connected and
	// not unhealthy: health is judged by LastErr.
	Connected bool
	// LastErr is the most recent dial or write failure, nil after a
	// successful (re)dial. Healthy means LastErr == nil.
	LastErr error
	// Queued counts envelopes waiting in the pipe (control + data).
	Queued int
	// DataBytes and ControlBytes are the send-side per-plane byte totals
	// accounted against this link (pubsub.Fabric accounting).
	DataBytes    int64
	ControlBytes int64
}

// Healthy reports whether the link is usable: either no failure has been
// observed since the last successful dial, or no dial was needed yet.
func (s PipeStatus) Healthy() bool { return s.LastErr == nil }

// PipeStatus snapshots every peer pipe in ascending peer order.
func (n *Node) PipeStatus() []PipeStatus {
	pipes := n.pipesSnapshot()
	out := make([]PipeStatus, 0, len(pipes))
	for _, p := range pipes {
		p.mu.Lock()
		st := PipeStatus{
			Peer:      p.id,
			Addr:      p.addr,
			Connected: p.connected,
			LastErr:   p.lastErr,
			Queued:    p.n,
		}
		p.mu.Unlock()
		st.DataBytes = p.dataBytes.Load()
		st.ControlBytes = p.controlBytes.Load()
		out = append(out, st)
	}
	return out
}

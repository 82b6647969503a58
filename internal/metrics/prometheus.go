package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders every counter of the registry — plus the caller's
// gauges — in the Prometheus text exposition format (version 0.0.4), the
// format the node's /metrics endpoint serves. Counter names from the registry
// (dotted, e.g. "transport.dropped_data") are mangled to Prometheus metric
// names by prefixing "cosmos_" and replacing each non-alphanumeric rune with
// '_', so "transport.dropped_data" becomes "cosmos_transport_dropped_data".
// Counters are emitted as TYPE counter; gauges (point-in-time state sizes
// such as routing-table records, already prefixed by the caller) as TYPE
// gauge. Output is sorted by metric name so scrapes are diffable.
func (r *Registry) WritePrometheus(w io.Writer, gauges map[string]int64) error {
	type sample struct {
		name  string
		typ   string
		value int64
	}
	snap := r.Snapshot()
	samples := make([]sample, 0, len(snap)+len(gauges))
	for name, v := range snap {
		samples = append(samples, sample{PrometheusName(name), "counter", v})
	}
	for name, v := range gauges {
		samples = append(samples, sample{PrometheusName(name), "gauge", v})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].name < samples[j].name })
	for _, s := range samples {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", s.name, s.typ, s.name, s.value); err != nil {
			return err
		}
	}
	return nil
}

// PrometheusName mangles an internal counter name into a valid Prometheus
// metric name: "cosmos_" prefix, every rune outside [a-zA-Z0-9_] replaced
// with '_'. Names already starting with "cosmos_" are not double-prefixed.
func PrometheusName(name string) string {
	var b strings.Builder
	b.Grow(len("cosmos_") + len(name))
	if !strings.HasPrefix(name, "cosmos_") {
		b.WriteString("cosmos_")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

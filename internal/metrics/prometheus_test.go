package metrics

import (
	"strings"
	"testing"
)

func TestPrometheusName(t *testing.T) {
	cases := map[string]string{
		"transport.dropped_data":  "cosmos_transport_dropped_data",
		"pubsub.routed_tuples":    "cosmos_pubsub_routed_tuples",
		"cosmos_already_prefixed": "cosmos_already_prefixed",
		"weird-name.v2":           "cosmos_weird_name_v2",
	}
	for in, want := range cases {
		if got := PrometheusName(in); got != want {
			t.Errorf("PrometheusName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := new(Registry)
	r.Counter("promtest.alpha").Add(3)
	r.Counter("promtest.beta").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b, map[string]int64{"promtest_gauge": 42}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cosmos_promtest_alpha counter\ncosmos_promtest_alpha 3\n",
		"# TYPE cosmos_promtest_beta counter\ncosmos_promtest_beta 1\n",
		"# TYPE cosmos_promtest_gauge gauge\ncosmos_promtest_gauge 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Sorted by metric name: alpha before beta before gauge.
	ia := strings.Index(out, "cosmos_promtest_alpha")
	ib := strings.Index(out, "cosmos_promtest_beta")
	ig := strings.Index(out, "cosmos_promtest_gauge")
	if !(ia < ib && ib < ig) {
		t.Errorf("output not sorted (alpha@%d beta@%d gauge@%d):\n%s", ia, ib, ig, out)
	}
	// Every line is either a comment or "name value".
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 || !strings.HasPrefix(parts[0], "cosmos_") {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

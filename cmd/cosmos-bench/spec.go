package main

// The benchmark's vocabulary: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repo root
// is `cosmos-bench -print-spec`; the smoke test holds the two equal.

// metricSpec names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (per-layer metrics have
// none). On lists the workloads that must measure a per-layer metric; the
// others report it as 0 — the layer did no such work there, which is what a
// bypass workload is for.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	On     string
}

// Every workload reports every end-to-end metric; what the generic names
// mean on each workload is the first table of README.md. One bound covers a
// name on all five workloads, so it is set by the noisiest of them: every
// CPU-bound figure drifts 15-20% over minutes on the shared reference box
// (README.md, "Spreads"), which leaves the contract's widest bound.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

const (
	wire   = "chain_relay star_match churn_mixed"
	wireQ  = "chain_relay star_match churn_mixed query_mw"
	allWls = "chain_relay star_match churn_mixed query_mw opt_place"
)

var perLayer = []metricSpec{
	// pubsub, data plane.
	{Name: "pubsub.publish_call_us", Unit: "us", Better: "lower", On: wire},
	{Name: "pubsub.match_ns_per_tuple", Unit: "ns", Better: "lower", On: wire},
	{Name: "pubsub.forwards_per_tuple", Unit: "count", Better: "lower", On: wire},
	{Name: "pubsub.deliveries_per_tuple", Unit: "count", Better: "higher", On: wire},
	{Name: "pubsub.routed_tuples", Unit: "count", Better: "lower", On: wireQ},
	{Name: "pubsub.local_deliveries", Unit: "count", Better: "higher", On: wireQ},
	// pubsub, control plane.
	{Name: "pubsub.sub_routable_p50_ms", Unit: "ms", Better: "lower", On: "churn_mixed"},
	{Name: "pubsub.subscribe_call_us", Unit: "us", Better: "lower", On: wire},
	{Name: "pubsub.unsubscribe_call_us", Unit: "us", Better: "lower", On: "churn_mixed"},
	{Name: "pubsub.advert_replay_ms", Unit: "ms", Better: "lower", On: "churn_mixed"},
	{Name: "pubsub.suppression_ratio", Unit: "ratio", Better: "higher", On: "churn_mixed"},
	{Name: "pubsub.retractions_sent", Unit: "count", Better: "lower", On: "churn_mixed"},
	{Name: "pubsub.pairs_beside_data_per_s", Unit: "1/s", Better: "higher", On: "churn_mixed"},
	{Name: "pubsub.routing_records", Unit: "count", Better: "lower", On: wire},
	// transport.
	{Name: "transport.enqueue_call_ns", Unit: "ns", Better: "lower", On: wire},
	{Name: "transport.deliver_idle_p50_ms", Unit: "ms", Better: "lower", On: "chain_relay"},
	{Name: "transport.hop1_ms", Unit: "ms", Better: "lower", On: "chain_relay star_match"},
	{Name: "transport.hop2_ms", Unit: "ms", Better: "lower", On: "chain_relay"},
	{Name: "transport.hop3_ms", Unit: "ms", Better: "lower", On: "chain_relay"},
	{Name: "transport.ctl_hop_ms", Unit: "ms", Better: "lower", On: "churn_mixed"},
	{Name: "transport.encode_ns_per_tuple", Unit: "ns", Better: "lower", On: wire},
	{Name: "transport.decode_ns_per_tuple", Unit: "ns", Better: "lower", On: wire},
	{Name: "transport.wire_bytes_per_tuple", Unit: "bytes", Better: "lower", On: wire},
	{Name: "transport.avg_batch", Unit: "count", Better: "higher", On: wire},
	{Name: "transport.wire_msgs_per_tuple", Unit: "count", Better: "lower", On: wire},
	{Name: "transport.queue_highwater", Unit: "count", Better: "lower", On: wire},
	{Name: "transport.queue_len_p99", Unit: "count", Better: "lower", On: wire},
	{Name: "transport.dropped_data", Unit: "count", Better: "lower"},
	{Name: "transport.send_retries", Unit: "count", Better: "lower"},
	{Name: "transport.send_failures", Unit: "count", Better: "lower"},
	{Name: "transport.data_bytes_per_tuple", Unit: "bytes", Better: "lower", On: wire},
	{Name: "transport.control_bytes_per_pair", Unit: "bytes", Better: "lower", On: "churn_mixed"},
	{Name: "transport.control_msgs_per_pair", Unit: "count", Better: "lower", On: "churn_mixed"},
	// query.
	{Name: "query.parse_us", Unit: "us", Better: "lower", On: "query_mw"},
	{Name: "query.merge_all_ms", Unit: "ms", Better: "lower", On: "query_mw"},
	// engine.
	{Name: "engine.process_us_per_tuple", Unit: "us", Better: "lower", On: "query_mw"},
	{Name: "engine.consumed", Unit: "count", Better: "lower", On: "query_mw"},
	{Name: "engine.emitted", Unit: "count", Better: "higher", On: "query_mw"},
	{Name: "engine.dropped", Unit: "count", Better: "lower", On: "query_mw"},
	{Name: "engine.emit_ratio", Unit: "ratio", Better: "higher", On: "query_mw"},
	{Name: "engine.state_tuples", Unit: "count", Better: "lower", On: "query_mw"},
	// root package.
	{Name: "cosmos.publish_call_us", Unit: "us", Better: "lower", On: "query_mw"},
	{Name: "cosmos.start_ms", Unit: "ms", Better: "lower", On: "query_mw"},
	{Name: "cosmos.submit_p50_ms", Unit: "ms", Better: "lower", On: "query_mw"},
	{Name: "cosmos.cancel_p50_ms", Unit: "ms", Better: "lower", On: "query_mw"},
	{Name: "cosmos.adapt_ms", Unit: "ms", Better: "lower", On: "query_mw"},
	{Name: "cosmos.results_per_tuple", Unit: "count", Better: "higher", On: "query_mw"},
	{Name: "cosmos.migrations_per_adapt", Unit: "count", Better: "lower", On: "query_mw"},
	{Name: "cosmos.traffic_data_bytes_per_tuple", Unit: "bytes", Better: "lower", On: "query_mw"},
	{Name: "cosmos.traffic_weighted_cost", Unit: "bytes.ms", Better: "lower", On: "query_mw"},
	// optimizer.
	{Name: "hierarchy.build_ms", Unit: "ms", Better: "lower", On: "opt_place"},
	{Name: "hierarchy.distribute_response_ms", Unit: "ms", Better: "lower", On: "opt_place"},
	{Name: "hierarchy.distribute_total_ms", Unit: "ms", Better: "lower", On: "opt_place"},
	{Name: "hierarchy.insert_us", Unit: "us", Better: "lower", On: "opt_place"},
	{Name: "hierarchy.route_at_root_us", Unit: "us", Better: "lower", On: "opt_place"},
	{Name: "hierarchy.remove_us", Unit: "us", Better: "lower", On: "opt_place"},
	{Name: "hierarchy.adapt_ms", Unit: "ms", Better: "lower", On: "opt_place"},
	{Name: "hierarchy.adapt_migrations", Unit: "count", Better: "lower", On: "opt_place"},
	{Name: "querygraph.global_graph_ms", Unit: "ms", Better: "lower", On: "opt_place"},
	{Name: "mapping.map_ms", Unit: "ms", Better: "lower", On: "opt_place"},
	{Name: "sim.max_load_imbalance", Unit: "ratio", Better: "lower", On: "opt_place"},
	{Name: "sim.placement_cost_ratio", Unit: "ratio", Better: "lower", On: "opt_place"},
	// harness, tails and the budget table's rows (means over the sampled
	// tuples of the traced fixed-rate phase).
	{Name: "bench.samples", Unit: "count", Better: "higher", On: allWls},
	{Name: "bench.valid", Unit: "bool", Better: "higher", On: allWls},
	{Name: "bench.loss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.cpu_us_per_op", Unit: "us", Better: "lower", On: allWls},
	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower", On: wire},
	{Name: "bench.gen_late_max_ms", Unit: "ms", Better: "lower", On: wire},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", On: wire},
	{Name: "tail.deliver_p99_ms", Unit: "ms", Better: "lower", On: wire},
	{Name: "tail.deliver_p999_ms", Unit: "ms", Better: "lower", On: wire},
	{Name: "tail.sub_routable_p99_ms", Unit: "ms", Better: "lower", On: "churn_mixed"},
	{Name: "tail.submit_p99_ms", Unit: "ms", Better: "lower", On: "query_mw"},
	{Name: "budget.root_us", Unit: "us", Better: "lower", On: wire},
	{Name: "budget.gen_late_us", Unit: "us", Better: "lower", On: wire},
	{Name: "budget.publish_self_us", Unit: "us", Better: "lower", On: wire},
	{Name: "budget.enqueue_us", Unit: "us", Better: "lower", On: wire},
	{Name: "budget.hops_us", Unit: "us", Better: "lower", On: wire},
	{Name: "budget.handler_us", Unit: "us", Better: "lower", On: wire},
	{Name: "budget.sum_over_root", Unit: "ratio", Better: "higher", On: wire},
}

type workloadSpec struct {
	Name string
	Why  string
	run  func(*runCtx) error
}

var workloads = []workloadSpec{
	{"chain_relay", "4-node TCP line, 4 subscriptions: transport relay does the work, matching almost none; 80000/s above the batch-fill knee, then saturation", runChainRelay},
	{"star_match", "hub and 4 leaves, 10000 window subscriptions over 16 streams, half projecting: pubsub matching, projection and fan-out encode dominate, one hop", runStarMatch},
	{"churn_mixed", "subscribe/unsubscribe/advertise churn and 5000/s data on one pubsub index of 5000 subscriptions: the only workload where writers and readers can pay for each other", runChurnMixed},
	{"query_mw", "in-memory cosmos.Middleware with 400 CQL queries: query, engine and wiring do the work and transport none, so it bypasses every wire optimisation", runQueryMW},
	{"opt_place", "hierarchical optimizer batch job: Distribute, Insert, Adapt, Remove of a 2000-query workload; nothing else exercises hierarchy, querygraph, mapping at scale", runOptPlace},
}

// benchmarkSpec is the shape of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []endToEndJSON `json:"end_to_end"`
	PerLayer   []perLayerJSON `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one driver run measures (BENCHMARK.json
// run_seconds); the phase plans of every workload are shares of it.
const runSeconds = 20

func currentSpec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "cmd/cosmos-bench/run.sh"},
		Paths:      []string{"cmd/cosmos-bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		s.EndToEnd = append(s.EndToEnd, endToEndJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, perLayerJSON{m.Name, m.Unit, m.Better})
	}
	return s
}

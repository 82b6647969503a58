package sim

import (
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/querygraph"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Placement maps query name -> processor node.
type Placement map[string]topology.NodeID

// sortedSubs and sortedProcs fix the iteration order of the receiver-set
// maps the cost models build: the costs are float sums compared bit-for-bit
// across runs, so summation order must not follow map order.
func sortedSubs(m map[int]map[topology.NodeID]bool) []int {
	subs := make([]int, 0, len(m))
	for sub := range m {
		subs = append(subs, sub)
	}
	sort.Ints(subs)
	return subs
}

func sortedProcs(set map[topology.NodeID]bool) []topology.NodeID {
	procs := make([]topology.NodeID, 0, len(set))
	for proc := range set {
		procs = append(procs, proc)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	return procs
}

// WeightedCommCost computes the paper's weighted unit-time communication
// cost Σ r(ni,nj)·d(ni,nj) (§3.1.1): r(ni,nj) is the traffic between a pair
// of nodes and d their latency. Under the Pub/Sub substrate the traffic a
// processor pulls from a source is the UNION of the data interests of the
// queries placed on it (duplicate elimination), and each query's result
// stream flows from its processor to its proxy (zero when co-located — the
// paper subtracts the constant proxy-to-user hop).
func (w *World) WeightedCommCost(wl *workload.Workload, p Placement) float64 {
	// Union interest per processor, as per-substream receiver sets.
	bySub := make(map[int]map[topology.NodeID]bool)
	for _, q := range wl.Queries {
		proc, ok := p[q.Name]
		if !ok {
			continue
		}
		for _, sub := range q.Interest.Indices() {
			set, ok := bySub[sub]
			if !ok {
				set = make(map[topology.NodeID]bool, 4)
				bySub[sub] = set
			}
			set[proc] = true
		}
	}
	// Sum in sorted (sub, proc) order: float addition is not associative,
	// and cost ratios are compared bit-for-bit across runs and schemes.
	var total float64
	for _, sub := range sortedSubs(bySub) {
		procs := bySub[sub]
		rate := wl.SubRates[sub]
		if rate == 0 {
			continue
		}
		src := wl.SourceOfSub[sub]
		row := w.Oracle.Row(src)
		for _, proc := range sortedProcs(procs) {
			total += rate * row[proc]
		}
	}
	for _, q := range wl.Queries {
		proc, ok := p[q.Name]
		if !ok || proc == q.Proxy {
			continue
		}
		total += q.ResultRate * w.Oracle.Latency(proc, q.Proxy)
	}
	return total
}

// MulticastCommCost is an alternative delivery model where each substream
// travels once per link of the shortest-path multicast tree spanning its
// receiving processors — the in-network view of Pub/Sub routing. It is
// reported as a secondary metric (the paper's headline figures follow the
// pairwise model of WeightedCommCost).
//
//lint:deadcode ROADMAP item 10(a) compares measured traffic against this model
func (w *World) MulticastCommCost(wl *workload.Workload, p Placement) float64 {
	// Interested processors per substream.
	interested := make(map[int]map[topology.NodeID]bool)
	for _, q := range wl.Queries {
		proc, ok := p[q.Name]
		if !ok {
			continue
		}
		for _, sub := range q.Interest.Indices() {
			set, ok := interested[sub]
			if !ok {
				set = make(map[topology.NodeID]bool, 4)
				interested[sub] = set
			}
			set[proc] = true
		}
	}

	var total float64
	// Source-side multicast cost, summed in sorted (sub, proc) order: the
	// union of tree edges is order-independent, but the float sum is not.
	visited := make(map[topology.NodeID]bool, 64)
	for _, sub := range sortedSubs(interested) {
		procs := interested[sub]
		rate := wl.SubRates[sub]
		if rate == 0 {
			continue
		}
		src := wl.SourceOfSub[sub]
		t := w.tree(src)
		// Union of tree paths from src to each interested processor:
		// walk parents, accumulating each newly visited edge's latency.
		clear(visited)
		visited[src] = true
		var treeCost float64
		for _, proc := range sortedProcs(procs) {
			for n := proc; !visited[n]; {
				visited[n] = true
				par := t.parent[n]
				if par < 0 {
					break // unreachable
				}
				treeCost += t.dist[n] - t.dist[par]
				n = par
			}
		}
		total += rate * treeCost
	}
	// Result-side unicast cost.
	for _, q := range wl.Queries {
		proc, ok := p[q.Name]
		if !ok || proc == q.Proxy {
			continue
		}
		total += q.ResultRate * w.Oracle.Latency(proc, q.Proxy)
	}
	return total
}

// NoShareCommCost is the same cost without Pub/Sub sharing: every query
// pays the full unicast path for its own input. It quantifies what the
// communication substrate saves (used by the sharing ablation).
//
//lint:deadcode ROADMAP item 10(a) compares measured traffic against this model
func (w *World) NoShareCommCost(wl *workload.Workload, p Placement) float64 {
	var total float64
	for _, q := range wl.Queries {
		proc, ok := p[q.Name]
		if !ok {
			continue
		}
		for _, sub := range q.Interest.Indices() {
			rate := wl.SubRates[sub]
			src := wl.SourceOfSub[sub]
			total += rate * w.Oracle.Latency(src, proc)
		}
		if proc != q.Proxy {
			total += q.ResultRate * w.Oracle.Latency(proc, q.Proxy)
		}
	}
	return total
}

// LoadStdDev returns the standard deviation of per-processor load
// normalized by capability — the balance metric of Figs 7(b), 8(b), 10(b).
// Processors with no queries count as zero load.
func (w *World) LoadStdDev(wl *workload.Workload, p Placement, loadOf func(q querygraph.QueryInfo) float64) float64 {
	loads := make(map[topology.NodeID]float64, len(w.Processors))
	for _, proc := range w.Processors {
		loads[proc] = 0
	}
	for _, q := range wl.Queries {
		proc, ok := p[q.Name]
		if !ok {
			continue
		}
		l := q.Load
		if loadOf != nil {
			l = loadOf(q)
		}
		loads[proc] += l
	}
	xs := make([]float64, 0, len(loads))
	for _, proc := range w.Processors {
		xs = append(xs, loads[proc])
	}
	return metrics.StdDev(xs)
}

// MaxLoadImbalance returns max processor load divided by the mean (1 means
// perfectly balanced).
func (w *World) MaxLoadImbalance(wl *workload.Workload, p Placement) float64 {
	loads := make(map[topology.NodeID]float64, len(w.Processors))
	for _, q := range wl.Queries {
		if proc, ok := p[q.Name]; ok {
			loads[proc] += q.Load
		}
	}
	var sum, maxL float64
	for _, proc := range w.Processors {
		l := loads[proc]
		sum += l
		maxL = math.Max(maxL, l)
	}
	if sum == 0 {
		return 1
	}
	return maxL / (sum / float64(len(w.Processors)))
}

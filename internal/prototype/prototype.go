// Package prototype reproduces the paper's prototype study (§4.2, Fig 11):
// a 30-node wide-area deployment processing SensorScope-style readings,
// comparing COSMOS's hierarchical query distribution against the classic
// two-phase operator-placement approach (global operator graph [12] +
// network-aware placement [3]) on plan quality and optimizer running time.
//
// PlanetLab and the real sensor dataset are replaced by a simulated WAN
// topology and the synthetic trace generator (see DESIGN.md §3); both
// schemes see exactly the same queries, statistics, and latencies.
package prototype

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"repro/internal/bitvec"
	"repro/internal/hierarchy"
	"repro/internal/opplace"
	"repro/internal/query"
	"repro/internal/querygraph"
	"repro/internal/topology"
	"repro/internal/trace"
)

// World is the prototype deployment: a small WAN with one source node per
// deployment and the remaining nodes as processors.
type World struct {
	Oracle     *topology.Oracle
	Sources    []topology.NodeID // one per deployment
	Processors []topology.NodeID
	Trace      *trace.Generator

	// Substream space: one substream per station.
	SubRates    []float64
	SourceOfSub []topology.NodeID

	selCache map[string]float64
}

// NewWorld builds the 30-node prototype world with cfg.Deployments sources.
func NewWorld(nodes int, tcfg trace.Config, seed uint64) (*World, error) {
	if nodes < tcfg.Deployments+2 {
		return nil, fmt.Errorf("prototype: %d nodes cannot host %d sources", nodes, tcfg.Deployments)
	}
	// A compact WAN: every node is a stub of a 1x2 transit backbone.
	topoCfg := topology.Config{
		TransitDomains:      2,
		TransitNodes:        2,
		StubDomainsPerNode:  2,
		StubNodes:           (nodes + 7) / 8,
		InterTransitLatency: [2]float64{60, 200},
		IntraTransitLatency: [2]float64{15, 40},
		TransitStubLatency:  [2]float64{3, 12},
		IntraStubLatency:    [2]float64{1, 3},
		ExtraStubEdgeProb:   0.1,
		Seed:                seed,
	}
	g, err := topology.Generate(topoCfg)
	if err != nil {
		return nil, err
	}
	gen, err := trace.New(tcfg)
	if err != nil {
		return nil, err
	}
	exclude := make(map[topology.NodeID]bool)
	sources, err := topology.SampleNodes(g, topology.Stub, tcfg.Deployments, seed+1, exclude)
	if err != nil {
		return nil, err
	}
	for _, s := range sources {
		exclude[s] = true
	}
	procs, err := topology.SampleNodes(g, topology.Stub, nodes-tcfg.Deployments, seed+2, exclude)
	if err != nil {
		return nil, err
	}
	w := &World{
		Oracle:     topology.NewOracle(g),
		Sources:    sources,
		Processors: procs,
		Trace:      gen,
	}
	// One substream per station; rate = one reading per period.
	perStation := float64(16+8*5) / (float64(tcfg.PeriodMillis) / 1000)
	for i := 0; i < tcfg.Stations; i++ {
		w.SubRates = append(w.SubRates, perStation)
		w.SourceOfSub = append(w.SourceOfSub, sources[i%tcfg.Deployments])
	}
	return w, nil
}

// GenerateQueries draws n random prototype queries in CQL text and parses
// them: each joins two random deployments with 1–3 selection predicates on
// the readings or sensor type and 1–3 join predicates on the timestamp
// (§4.2), under random range windows. Proxies are random processors.
func (w *World) GenerateQueries(n int, seed uint64) ([]*CompiledQuery, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0xf19))
	deployments := w.Trace.Cfg.Deployments
	out := make([]*CompiledQuery, 0, n)
	for i := 0; i < n; i++ {
		d1 := rng.IntN(deployments)
		d2 := rng.IntN(deployments)
		for d2 == d1 {
			d2 = rng.IntN(deployments)
		}
		text := w.randomQueryText(rng, d1, d2)
		q, err := query.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("prototype: generated query %d: %w (text: %s)", i, err, text)
		}
		q.Name = fmt.Sprintf("P%d", i)
		proxy := w.Processors[rng.IntN(len(w.Processors))]
		cq, err := w.Compile(q, proxy)
		if err != nil {
			return nil, err
		}
		out = append(out, cq)
	}
	return out, nil
}

func (w *World) randomQueryText(rng *rand.Rand, d1, d2 int) string {
	var b strings.Builder
	b.WriteString("SELECT S1.*, S2.* FROM ")
	fmt.Fprintf(&b, "%s [Range %d Minutes] S1, %s [Range %d Minutes] S2 WHERE ",
		trace.StreamName(d1), 1+rng.IntN(60), trace.StreamName(d2), 1+rng.IntN(60))

	var preds []string
	nSel := 1 + rng.IntN(3)
	attrs := []string{"snowHeight", "temperature", "windSpeed"}
	for i := 0; i < nSel; i++ {
		alias := []string{"S1", "S2"}[rng.IntN(2)]
		if rng.Float64() < 0.25 {
			st := trace.SensorTypes[rng.IntN(len(trace.SensorTypes))]
			preds = append(preds, fmt.Sprintf("%s.sensorType = '%s'", alias, st))
			continue
		}
		attr := attrs[rng.IntN(len(attrs))]
		op := []string{">", ">=", "<", "<="}[rng.IntN(4)]
		var threshold float64
		switch attr {
		case "snowHeight":
			threshold = 10 + rng.Float64()*60
		case "temperature":
			threshold = -15 + rng.Float64()*20
		default:
			threshold = rng.Float64() * 12
		}
		preds = append(preds, fmt.Sprintf("%s.%s %s %.1f", alias, attr, op, threshold))
	}
	nJoin := 1 + rng.IntN(3)
	joinOps := []string{"<=", ">=", "="}
	for i := 0; i < nJoin; i++ {
		preds = append(preds, fmt.Sprintf("S1.timestamp %s S2.timestamp", joinOps[i%len(joinOps)]))
	}
	b.WriteString(strings.Join(preds, " AND "))
	return b.String()
}

// CompiledQuery pairs a parsed query with its distribution metadata.
type CompiledQuery struct {
	Query *query.Query
	Proxy topology.NodeID
	Info  querygraph.QueryInfo
	// Sel is the memoized empirical selectivity of the query's
	// selection conjunction.
	Sel float64
}

// Compile derives the COSMOS distribution view of a query: its substream
// interest (the stations of its deployments, pruned by sensor-type
// predicates), load, and result rate.
func (w *World) Compile(q *query.Query, proxy topology.NodeID) (*CompiledQuery, error) {
	interest := bitvec.New(len(w.SubRates))
	var inputRate float64
	for _, ref := range q.From {
		d, err := deploymentIndex(ref.Stream)
		if err != nil {
			return nil, err
		}
		wantType := sensorTypeOf(q, ref.Alias)
		for st := 0; st < len(w.SubRates); st++ {
			if st%w.Trace.Cfg.Deployments != d {
				continue
			}
			if wantType != "" && trace.SensorTypes[st%len(trace.SensorTypes)] != wantType {
				continue
			}
			interest.Set(st)
			inputRate += w.SubRates[st]
		}
	}
	sel := w.Selectivity(q)
	info := querygraph.QueryInfo{
		Name:       q.Name,
		Proxy:      proxy,
		Load:       0.0005 * inputRate,
		Interest:   interest,
		ResultRate: inputRate * sel * 0.1,
		StateSize:  inputRate,
	}
	return &CompiledQuery{Query: q, Proxy: proxy, Info: info, Sel: sel}, nil
}

func deploymentIndex(streamName string) (int, error) {
	var d int
	if _, err := fmt.Sscanf(streamName, "Deployment%d", &d); err != nil {
		return 0, fmt.Errorf("prototype: stream %q is not a deployment stream", streamName)
	}
	return d, nil
}

// sensorTypeOf returns the sensor type an alias's selections pin, if any.
func sensorTypeOf(q *query.Query, alias string) string {
	for _, p := range q.SelectionsFor(alias) {
		p = p.Normalize()
		if p.Left.Col.Attr == "sensorType" && p.Op == query.Eq && p.Right.Lit != nil {
			return p.Right.Lit.S
		}
	}
	return ""
}

// Selectivity estimates the pass fraction of a query's selection
// conjunction by sampling the trace generator. Results are memoized by
// predicate signature.
func (w *World) Selectivity(q *query.Query) float64 {
	key := ""
	for _, p := range q.Where {
		if p.IsSelection() {
			key += p.Normalize().String() + "|"
		}
	}
	if w.selCache == nil {
		w.selCache = make(map[string]float64)
	}
	if v, ok := w.selCache[key]; ok {
		return v
	}
	conjs := make([]streamConj, len(q.From))
	for i, ref := range q.From {
		conjs[i] = streamConj{ref.Stream, q.SelectionsFor(ref.Alias)}
	}
	v := w.passFraction(conjs)
	w.selCache[key] = v
	return v
}

// streamConj is a selection conjunction over the tuples of one stream.
type streamConj struct {
	stream string
	preds  []query.Predicate
}

// passFraction samples 30 ticks of a fresh trace generator and returns the
// fraction of (tuple, conjunction) pairs — each conjunction against the
// tuples of its stream — that pass; 1 when nothing was sampled.
func (w *World) passFraction(conjs []streamConj) float64 {
	gen, err := trace.New(w.Trace.Cfg)
	if err != nil {
		return 1
	}
	pass, total := 0, 0
	for i := 0; i < 30; i++ {
		for _, t := range gen.Next() {
		conj:
			for _, c := range conjs {
				if c.stream != t.Stream {
					continue
				}
				total++
				for _, p := range c.preds {
					if !query.EvalSelection(p, t) {
						continue conj
					}
				}
				pass++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(pass) / float64(total)
}

// rateModel adapts the world to opplace.RateModel, with memoized empirical
// selectivities.
type rateModel struct {
	w     *World
	cache map[string]float64
}

func (m *rateModel) StreamRate(name string) float64 {
	d, err := deploymentIndex(name)
	if err != nil {
		return 0
	}
	var total float64
	for st := 0; st < len(m.w.SubRates); st++ {
		if st%m.w.Trace.Cfg.Deployments == d {
			total += m.w.SubRates[st]
		}
	}
	return total
}

func (m *rateModel) SourceOf(name string) (topology.NodeID, bool) {
	d, err := deploymentIndex(name)
	if err != nil || d >= len(m.w.Sources) {
		return -1, false
	}
	return m.w.Sources[d], true
}

func (m *rateModel) Selectivity(streamName string, preds []query.Predicate) float64 {
	key := streamName
	for _, p := range preds {
		key += "|" + p.Normalize().String()
	}
	if v, ok := m.cache[key]; ok {
		return v
	}
	v := m.w.passFraction([]streamConj{{streamName, preds}})
	m.cache[key] = v
	return v
}

func (m *rateModel) JoinFactor(q *query.Query) float64 {
	// Timestamp-window joins emit roughly one match per overlapping
	// reading pair; scale with the smaller window.
	minSpan := time.Duration(1 << 62)
	for _, r := range q.From {
		if r.Window.Kind == query.Range && r.Window.Span < minSpan {
			minSpan = r.Window.Span
		}
	}
	f := 0.02 * minSpan.Minutes() / 60
	if f > 0.5 {
		f = 0.5
	}
	if f <= 0 {
		f = 0.01
	}
	return f
}

// Result is one Fig 11 measurement point.
type Result struct {
	// CosmosCost and OpCost are weighted communication costs.
	CosmosCost float64
	OpCost     float64
	// CosmosTime and OpTime are optimizer running times.
	CosmosTime time.Duration
	OpTime     time.Duration
}

// Run executes one comparison point: distribute the queries with COSMOS and
// with operator placement, and cost both plans.
func (w *World) Run(cqs []*CompiledQuery, k int) (*Result, error) {
	res := &Result{}

	// COSMOS.
	tree, err := hierarchy.Build(w.Oracle, w.Processors, nil, hierarchy.Config{K: k, VMax: 60, Seed: 11})
	if err != nil {
		return nil, err
	}
	infos := make([]querygraph.QueryInfo, len(cqs))
	for i, cq := range cqs {
		infos[i] = cq.Info
	}
	start := time.Now()
	if _, err := tree.Distribute(infos, w.SubRates, w.SourceOfSub); err != nil {
		return nil, err
	}
	res.CosmosTime = time.Since(start)
	res.CosmosCost = w.cosmosCost(cqs, tree.Placement())

	// Operator placement.
	model := &rateModel{w: w, cache: make(map[string]float64)}
	start = time.Now()
	og := opplace.NewGraph()
	for _, cq := range cqs {
		if err := og.AddQuery(cq.Query, cq.Proxy, model); err != nil {
			return nil, err
		}
	}
	og.Place(w.Oracle, w.Processors, 3)
	res.OpTime = time.Since(start)
	res.OpCost = og.Cost(w.Oracle)
	return res, nil
}

// cosmosCost prices the COSMOS plan under the same pairwise model used for
// the operator graph: each processor pulls, per station it is interested
// in, the station's rate scaled by the weakest (largest) selectivity among
// its queries — the Pub/Sub merges subscriptions, so the union filter
// governs the wire rate — and each query ships its result to its proxy.
func (w *World) cosmosCost(cqs []*CompiledQuery, placement map[string]topology.NodeID) float64 {
	type key struct {
		proc topology.NodeID
		sub  int
	}
	wire := make(map[key]float64)
	var total float64
	for _, cq := range cqs {
		proc, ok := placement[cq.Query.Name]
		if !ok {
			continue
		}
		sel := cq.Sel
		for _, sub := range cq.Info.Interest.Indices() {
			k := key{proc, sub}
			if sel > wire[k] {
				wire[k] = sel
			}
		}
		if proc != cq.Proxy {
			total += cq.Info.ResultRate * w.Oracle.Latency(proc, cq.Proxy)
		}
	}
	// Sum the wire terms in sorted key order: float addition is not
	// associative, and the cost is compared bit-for-bit across runs.
	keys := make([]key, 0, len(wire))
	for k := range wire {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].proc != keys[j].proc {
			return keys[i].proc < keys[j].proc
		}
		return keys[i].sub < keys[j].sub
	})
	for _, k := range keys {
		src := w.SourceOfSub[k.sub]
		total += w.SubRates[k.sub] * wire[k] * w.Oracle.Latency(src, k.proc)
	}
	return total
}

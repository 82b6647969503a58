// Package workload generates the synthetic workload of the simulation study
// (§4.1): substreams randomly distributed over source nodes with uniform
// rates, and user queries clustered into interest groups, where each group
// draws substreams from its own zipf-permuted hot spots.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/querygraph"
	"repro/internal/topology"
)

// Config mirrors the paper's workload parameters.
type Config struct {
	// NumSubstreams is the size of the global substream space (paper:
	// 20,000).
	NumSubstreams int
	// RateMin and RateMax bound the uniform per-substream rate in
	// bytes/sec (paper: 1–10).
	RateMin, RateMax float64
	// Groups is the number of user-interest groups g (paper: 20).
	Groups int
	// ZipfTheta is the skew of substream popularity within a group
	// (paper: 0.8).
	ZipfTheta float64
	// SubsPerQueryMin and SubsPerQueryMax bound the number of substreams
	// per query (paper: 100–200).
	SubsPerQueryMin, SubsPerQueryMax int
	// LoadFactor scales query load: load = LoadFactor × total input
	// rate (the paper sets workload proportional to input stream rate).
	LoadFactor float64
	// ResultFractionMin/Max bound the result-stream rate as a fraction
	// of the query's input rate.
	ResultFractionMin, ResultFractionMax float64
	// StatePerRate scales operator state size with input rate.
	StatePerRate float64
	// Seed drives generation deterministically.
	Seed uint64
}

// DefaultConfig returns the paper-scale workload parameters.
func DefaultConfig() Config {
	return Config{
		NumSubstreams:     20000,
		RateMin:           1,
		RateMax:           10,
		Groups:            20,
		ZipfTheta:         0.8,
		SubsPerQueryMin:   100,
		SubsPerQueryMax:   200,
		LoadFactor:        0.001,
		ResultFractionMin: 0.01,
		ResultFractionMax: 0.06,
		StatePerRate:      5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumSubstreams < 1:
		return fmt.Errorf("workload: NumSubstreams must be >= 1")
	case c.RateMin <= 0 || c.RateMax < c.RateMin:
		return fmt.Errorf("workload: bad rate band [%v,%v]", c.RateMin, c.RateMax)
	case c.Groups < 1:
		return fmt.Errorf("workload: Groups must be >= 1")
	case c.SubsPerQueryMin < 1 || c.SubsPerQueryMax < c.SubsPerQueryMin:
		return fmt.Errorf("workload: bad substreams-per-query band [%d,%d]",
			c.SubsPerQueryMin, c.SubsPerQueryMax)
	case c.SubsPerQueryMin > c.NumSubstreams:
		return fmt.Errorf("workload: queries want %d substreams but only %d exist",
			c.SubsPerQueryMin, c.NumSubstreams)
	}
	return nil
}

// Workload is a generated substream space plus query set.
type Workload struct {
	Cfg Config
	// SubRates holds the current rate of each substream (mutable: the
	// perturbation experiments scale entries in place).
	SubRates []float64
	// SourceOfSub maps substream index -> origin node.
	SourceOfSub []topology.NodeID
	// Queries holds the generated queries in creation order.
	Queries []querygraph.QueryInfo
	// GroupOf records each query's interest group.
	GroupOf map[string]int

	perms [][]int // per-group substream permutation
	cum   []float64
	rng   *rand.Rand
	seq   int
}

// Generate builds the substream space over the given sources and numQueries
// queries proxied at random processors.
func Generate(cfg Config, sources, processors []topology.NodeID, numQueries int) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) == 0 || len(processors) == 0 {
		return nil, fmt.Errorf("workload: need sources and processors")
	}
	w := &Workload{
		Cfg:         cfg,
		SubRates:    make([]float64, cfg.NumSubstreams),
		SourceOfSub: make([]topology.NodeID, cfg.NumSubstreams),
		GroupOf:     make(map[string]int, numQueries),
		rng:         rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x51ed2700)),
	}
	for i := 0; i < cfg.NumSubstreams; i++ {
		w.SubRates[i] = cfg.RateMin + w.rng.Float64()*(cfg.RateMax-cfg.RateMin)
		w.SourceOfSub[i] = sources[w.rng.IntN(len(sources))]
	}
	// Per-group hot-spot permutations (§4.1: g random permutations of the
	// substreams model different groups having different hot spots).
	w.perms = make([][]int, cfg.Groups)
	for g := range w.perms {
		w.perms[g] = w.rng.Perm(cfg.NumSubstreams)
	}
	// Cumulative zipf weights over popularity ranks.
	w.cum = make([]float64, cfg.NumSubstreams)
	var acc float64
	for i := 0; i < cfg.NumSubstreams; i++ {
		acc += 1 / math.Pow(float64(i+1), cfg.ZipfTheta)
		w.cum[i] = acc
	}

	for i := 0; i < numQueries; i++ {
		w.Queries = append(w.Queries, w.NewQuery(processors))
	}
	return w, nil
}

// NewQuery draws one more query from the model (used by the online-arrival
// experiment, Fig 8).
func (w *Workload) NewQuery(processors []topology.NodeID) querygraph.QueryInfo {
	cfg := w.Cfg
	group := w.rng.IntN(cfg.Groups)
	count := cfg.SubsPerQueryMin + w.rng.IntN(cfg.SubsPerQueryMax-cfg.SubsPerQueryMin+1)
	interest := bitvec.New(cfg.NumSubstreams)
	picked := 0
	for picked < count {
		rank := w.sampleRank()
		sub := w.perms[group][rank]
		if !interest.Test(sub) {
			interest.Set(sub)
			picked++
		}
	}
	inputRate := interest.WeightedSum(w.SubRates)
	frac := cfg.ResultFractionMin + w.rng.Float64()*(cfg.ResultFractionMax-cfg.ResultFractionMin)
	q := querygraph.QueryInfo{
		Name:       fmt.Sprintf("Q%d", w.seq),
		Proxy:      processors[w.rng.IntN(len(processors))],
		Load:       cfg.LoadFactor * inputRate,
		Interest:   interest,
		ResultRate: frac * inputRate,
		StateSize:  cfg.StatePerRate * inputRate * w.rng.Float64(),
	}
	w.GroupOf[q.Name] = group
	w.seq++
	return q
}

// sampleRank draws a popularity rank from the zipf distribution.
func (w *Workload) sampleRank() int {
	target := w.rng.Float64() * w.cum[len(w.cum)-1]
	return sort.SearchFloat64s(w.cum, target)
}

// LoadOf returns the current load estimate of a query: proportional to its
// interest's aggregate rate under the current (possibly perturbed) rates.
func (w *Workload) LoadOf(q querygraph.QueryInfo) float64 {
	return w.Cfg.LoadFactor * q.Interest.WeightedSum(w.SubRates)
}

// Perturb scales the rates of n random substreams by factor, in place
// (Fig 10's "I"/"D" rate-change events). It returns the affected indices.
func (w *Workload) Perturb(n int, factor float64) []int {
	if n > len(w.SubRates) {
		n = len(w.SubRates)
	}
	idxs := w.rng.Perm(len(w.SubRates))[:n]
	for _, i := range idxs {
		w.SubRates[i] *= factor
	}
	return idxs
}

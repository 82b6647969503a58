// Package mapping implements the graph-mapping algorithm of the paper
// (Algorithm 2): map a query graph onto a network graph so that every
// n-vertex lands on the network vertex representing its node, every network
// vertex's query load stays within (1+α) of its fair share (Eqn 3.1), and
// the Weighted Edge Cut (Eqn 3.2) is minimized.
//
// Two refinement modes are provided. The exact mode follows Algorithm 2
// literally — each step moves the globally best-gain unmatched vertex, with
// hill-climbing via best-negative moves and best-mapping restoration. The
// sweep mode visits vertices in random order and applies positive-gain moves
// only; it is the standard scalable variant used when |Vq|·|Vn| is too large
// for the exact inner loop (the paper's centralized baseline at 60k queries).
package mapping

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/netgraph"
	"repro/internal/querygraph"
)

// Unassigned marks a vertex with no mapping target yet.
const Unassigned = -1

// Assignment maps query-graph vertex ID -> network-graph vertex index.
type Assignment []int

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	copy(c, a)
	return c
}

// DefaultAlpha is the load-imbalance slack α of Eqn 3.1 the paper uses.
// Options.Alpha overrides it only for the α ablation benchmark.
const DefaultAlpha = 0.1

// maxOuter bounds outer refinement iterations.
const maxOuter = 8

// Options configures the mapper.
type Options struct {
	// Alpha is the load-imbalance slack of Eqn 3.1 (0 = DefaultAlpha).
	Alpha float64
	// ExactLimit is the largest |movable|·|assignable| product for which
	// the exact Algorithm-2 refinement runs; larger instances use the
	// sweep refinement. Zero selects the default (5000), which keeps
	// the exact mode for coordinator-sized graphs (≈VMax vertices) and
	// sends large centralized instances to the scalable sweep.
	ExactLimit int
	// Rng drives tie-breaking and sweep order; nil seeds a fixed PCG.
	Rng *rand.Rand
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = DefaultAlpha
	}
	if o.ExactLimit == 0 {
		o.ExactLimit = 5000
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewPCG(42, 4242))
	}
	return o
}

// Mapper binds a query graph to a network graph and carries the scratch
// state of the algorithms. Create one per mapping task.
type Mapper struct {
	qg   *querygraph.Graph
	ng   *netgraph.Graph
	adj  [][]querygraph.Adj
	opts Options

	caps       []float64 // per-target load limit
	assignable []int     // indices of targets with capability > 0
}

// NewMapper prepares a mapper. The query graph must have its edges
// materialized (ComputeEdges) before calling.
func NewMapper(qg *querygraph.Graph, ng *netgraph.Graph, opts Options) *Mapper {
	opts = opts.withDefaults()
	m := &Mapper{
		qg:   qg,
		ng:   ng,
		adj:  qg.AdjacencyLists(),
		opts: opts,
		caps: ng.Capacities(qg.TotalQueryLoad(), opts.Alpha),
	}
	for i, v := range ng.Vertices {
		if v.Capability > 0 {
			m.assignable = append(m.assignable, i)
		}
	}
	return m
}

// WEC computes the weighted edge cut of an assignment (Eqn 3.2): the sum
// over query-graph edges of edge weight times the latency between the two
// endpoints' targets. Unassigned endpoints contribute nothing.
func WEC(qg *querygraph.Graph, ng *netgraph.Graph, a Assignment) float64 {
	var total float64
	for i := range qg.Vertices {
		ai := a[i]
		if ai == Unassigned {
			continue
		}
		row := ng.Row(ai)
		for _, e := range qg.Neighbors(i) {
			if e.To <= i {
				continue
			}
			aj := a[e.To]
			if aj == Unassigned {
				continue
			}
			total += e.W * row[aj]
		}
	}
	return total
}

// Loads returns the per-target query load of an assignment. Removed (nil)
// vertex slots contribute nothing.
func Loads(qg *querygraph.Graph, ng *netgraph.Graph, a Assignment) []float64 {
	loads := make([]float64, ng.Len())
	for i, v := range qg.Vertices {
		if v != nil && a[i] != Unassigned {
			loads[a[i]] += v.Weight
		}
	}
	return loads
}

// Capacities exposes the per-target load limits.
func (m *Mapper) Capacities() []float64 {
	out := make([]float64, len(m.caps))
	copy(out, m.caps)
	return out
}

// Map runs the full algorithm: greedy initial mapping followed by
// refinement. It returns an error when an n-vertex is pinned outside the
// network graph.
func (m *Mapper) Map() (Assignment, error) {
	a, err := m.Greedy()
	if err != nil {
		return nil, err
	}
	return m.Refine(a), nil
}

// Greedy produces the initial mapping of Algorithm 2 line 1: n-vertices go
// to their pinned targets; q-vertices are placed in descending weight order
// on the accommodating target minimizing the incremental WEC, falling back
// to the minimum-violation target.
func (m *Mapper) Greedy() (Assignment, error) {
	a := make(Assignment, len(m.qg.Vertices))
	loads := make([]float64, m.ng.Len())
	for i := range a {
		a[i] = Unassigned
	}

	// (a) Pin n-vertices (and coarse vertices containing them).
	var movable []int
	for i, v := range m.qg.Vertices {
		if v.IsN() {
			if v.Clu == querygraph.ClusterUnknown || v.Clu >= m.ng.Len() {
				return nil, fmt.Errorf("mapping: n-vertex %d pinned to invalid target %d", i, v.Clu)
			}
			a[i] = v.Clu
			loads[v.Clu] += v.Weight
			continue
		}
		movable = append(movable, i)
	}
	if len(m.assignable) == 0 && len(movable) > 0 {
		return nil, fmt.Errorf("mapping: no assignable network vertices for %d query vertices", len(movable))
	}

	// (b) Place q-vertices, heaviest first.
	sort.SliceStable(movable, func(x, y int) bool {
		return m.qg.Vertices[movable[x]].Weight > m.qg.Vertices[movable[y]].Weight
	})
	for _, vi := range movable {
		w := m.qg.Vertices[vi].Weight
		bestK, bestCost := -1, math.Inf(1)
		for _, k := range m.assignable {
			if loads[k]+w > m.caps[k] {
				continue
			}
			cost := m.placedCost(a, vi, k)
			if cost < bestCost {
				bestK, bestCost = k, cost
			}
		}
		if bestK < 0 {
			// No accommodating target: minimum violation.
			bestOver := math.Inf(1)
			for _, k := range m.assignable {
				over := loads[k] + w - m.caps[k]
				if over < bestOver {
					bestK, bestOver = k, over
				}
			}
		}
		a[vi] = bestK
		loads[bestK] += w
	}
	return a, nil
}

// placedCost is the WEC contribution of placing vi at k against already-
// placed neighbors.
func (m *Mapper) placedCost(a Assignment, vi, k int) float64 {
	var cost float64
	rowK := m.ng.Row(k)
	for _, e := range m.adj[vi] {
		if t := a[e.To]; t != Unassigned {
			cost += e.W * rowK[t]
		}
	}
	return cost
}

// Gain returns the WEC reduction of remapping vertex vi from its current
// target to k under assignment a — the "benefit" of Algorithm 3.
func (m *Mapper) Gain(a Assignment, vi, k int) float64 {
	var g float64
	rowCur := m.ng.Row(a[vi])
	rowK := m.ng.Row(k)
	for _, e := range m.adj[vi] {
		t := a[e.To]
		if t == Unassigned {
			continue
		}
		g += e.W * (rowCur[t] - rowK[t])
	}
	return g
}

// Refine improves an assignment, choosing the exact or sweep strategy by
// instance size.
func (m *Mapper) Refine(a Assignment) Assignment {
	movable := m.movableVertices()
	if len(movable)*len(m.assignable) <= m.opts.ExactLimit {
		return m.refineExact(a, movable)
	}
	return m.refineSweep(a, movable)
}

func (m *Mapper) movableVertices() []int {
	var out []int
	for i, v := range m.qg.Vertices {
		if !v.IsN() {
			out = append(out, i)
		}
	}
	return out
}

// moveOK implements the feasibility rule of Algorithm 2 line 9: a move must
// not violate load balancing, or must improve an existing violation.
func moveOK(loads, caps []float64, w float64, from, to int) bool {
	if loads[to]+w <= caps[to] {
		return true
	}
	// Target would overflow; allowed only when it improves total
	// violation (source currently overflows by more than target will).
	before := pos(loads[from]-caps[from]) + pos(loads[to]-caps[to])
	after := pos(loads[from]-w-caps[from]) + pos(loads[to]+w-caps[to])
	return after < before
}

// pos is max(0, x) without math.Max's NaN/signed-zero handling, which is
// measurable overhead in the refinement inner loop.
func pos(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// refineExact is Algorithm 2 lines 2–20. Gains are cached per
// (vertex, target): a move only changes the gains of the moved vertex's
// neighbors (their endpoint position changed) — every other cached value
// stays exact — so each step recomputes O(deg) gain rows instead of
// rescanning every movable vertex's adjacency.
func (m *Mapper) refineExact(a Assignment, movable []int) Assignment {
	loads := Loads(m.qg, m.ng, a)
	minWEC := WEC(m.qg, m.ng, a)
	minA := a.Clone()

	K := len(m.assignable)
	slotOf := make(map[int]int, len(movable)) // vertex ID -> movable slot
	for s, vi := range movable {
		slotOf[vi] = s
	}
	gains := make([]float64, len(movable)*K)
	// A cached gain is valid while its pair version matches its row
	// version; bumping a row version invalidates the whole row in O(1).
	rowVer := make([]int32, len(movable))
	pairVer := make([]int32, len(movable)*K)
	for s := range rowVer {
		rowVer[s] = 1
	}

	for outer := 0; outer < maxOuter; outer++ {
		a = minA.Clone()
		loads = Loads(m.qg, m.ng, a)
		matched := make(map[int]bool, len(movable))
		curWEC := WEC(m.qg, m.ng, a)
		improvedOuter := false
		for s := range rowVer {
			rowVer[s]++
		}

		for {
			maxGain := math.Inf(-1)
			moveV, moveK := -1, -1
			for s, vi := range movable {
				if matched[vi] {
					continue
				}
				w := m.qg.Vertices[vi].Weight
				from := a[vi]
				base := s * K
				for ki, k := range m.assignable {
					if k == from {
						continue
					}
					if !moveOK(loads, m.caps, w, from, k) {
						continue
					}
					if pairVer[base+ki] != rowVer[s] {
						gains[base+ki] = m.Gain(a, vi, k)
						pairVer[base+ki] = rowVer[s]
					}
					if g := gains[base+ki]; g > maxGain {
						maxGain, moveV, moveK = g, vi, k
					}
				}
			}
			if moveV < 0 {
				break
			}
			matched[moveV] = true
			w := m.qg.Vertices[moveV].Weight
			loads[a[moveV]] -= w
			loads[moveK] += w
			a[moveV] = moveK
			for _, e := range m.adj[moveV] {
				if s, ok := slotOf[e.To]; ok {
					rowVer[s]++
				}
			}
			curWEC -= maxGain
			if curWEC < minWEC-1e-12 {
				minWEC = curWEC
				minA = a.Clone()
				improvedOuter = true
			}
		}
		if !improvedOuter {
			break
		}
	}
	return minA
}

// refineSweep is the scalable variant: randomized passes of positive-gain
// moves until a pass makes none.
func (m *Mapper) refineSweep(a Assignment, movable []int) Assignment {
	loads := Loads(m.qg, m.ng, a)
	order := append([]int(nil), movable...)
	for pass := 0; pass < maxOuter; pass++ {
		m.opts.Rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		moved := 0
		for _, vi := range order {
			w := m.qg.Vertices[vi].Weight
			from := a[vi]
			bestK, bestG := -1, 1e-12
			for _, k := range m.assignable {
				if k == from || !moveOK(loads, m.caps, w, from, k) {
					continue
				}
				if g := m.Gain(a, vi, k); g > bestG {
					bestK, bestG = k, g
				}
			}
			if bestK >= 0 {
				loads[from] -= w
				loads[bestK] += w
				a[vi] = bestK
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return a
}

// Assignable returns the indices of network vertices able to host query
// load.
func (m *Mapper) Assignable() []int {
	out := make([]int, len(m.assignable))
	copy(out, m.assignable)
	return out
}

// BestTarget returns the assignable target minimizing the incremental WEC
// of placing a single new vertex vi (already added to the query graph with
// edges computed), subject to load feasibility against the given loads.
// It is the primitive of online query insertion (§3.6). It falls back to
// the minimum-violation target when none accommodates the vertex.
func (m *Mapper) BestTarget(a Assignment, vi int, loads []float64) int {
	w := m.qg.Vertices[vi].Weight
	bestK, bestCost := -1, math.Inf(1)
	for _, k := range m.assignable {
		if loads[k]+w > m.caps[k] {
			continue
		}
		if cost := m.placedCost(a, vi, k); cost < bestCost {
			bestK, bestCost = k, cost
		}
	}
	if bestK >= 0 {
		return bestK
	}
	bestOver := math.Inf(1)
	for _, k := range m.assignable {
		over := loads[k] + w - m.caps[k]
		if over < bestOver {
			bestK, bestOver = k, over
		}
	}
	return bestK
}

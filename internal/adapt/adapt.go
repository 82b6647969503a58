// Package adapt implements the paper's adaptive query redistribution
// (§3.7, Algorithm 3): a two-phase, per-coordinator procedure run in rounds.
//
// Phase 1 (load re-balancing) consumes a Hu–Blake diffusion plan over the
// coordinator's children and, for each positive flow m_ij, migrates
// q-vertices from child i to child j, preferring vertices whose WEC-
// reduction benefit is within x% of the best, that are already dirty
// (picked earlier in the same round — re-moving them adds no migration
// cost), and that have the highest load density (load per unit of operator
// state, so less state moves).
//
// Phase 2 (distribution refinement) visits q-vertices in random order and
// (1) moves a vertex back to its original location when that keeps load
// balance and does not worsen the WEC, or (2) moves it anywhere that
// strictly decreases the WEC without violating balance.
package adapt

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/diffusion"
	"repro/internal/mapping"
	"repro/internal/netgraph"
	"repro/internal/querygraph"
)

// Options tunes Algorithm 3.
type Options struct {
	// Alpha is the load slack used for feasibility in both phases
	// (default 0.1, as in the mapping algorithm).
	Alpha float64
	// BenefitSlackPct is the x of Algorithm 3 line 5 (default 10): the
	// candidate set holds vertices whose benefit is within x% of the
	// best benefit.
	BenefitSlackPct float64
	// FlowFraction is the 90% rule of line 8: a vertex is eligible when
	// the remaining flow m_ij exceeds FlowFraction of its weight.
	FlowFraction float64
	// RefinePasses bounds phase-2 sweeps (default 2).
	RefinePasses int
	// Rng drives the random pair/vertex selection; nil seeds a fixed PCG.
	Rng *rand.Rand
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.1
	}
	if o.BenefitSlackPct == 0 {
		o.BenefitSlackPct = 10
	}
	if o.FlowFraction == 0 {
		o.FlowFraction = 0.9
	}
	if o.RefinePasses == 0 {
		o.RefinePasses = 2
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewPCG(7, 77))
	}
	return o
}

// Rebalance runs one adaptation round on a coordinator's query graph,
// network graph and current assignment, and returns the new assignment.
// Vertex Dirty flags are reset at the start of the round. The input
// assignment is not modified.
func Rebalance(qg *querygraph.Graph, ng *netgraph.Graph, assign mapping.Assignment, opts Options) (mapping.Assignment, error) {
	opts = opts.withDefaults()
	if len(assign) != len(qg.Vertices) {
		return nil, fmt.Errorf("adapt: assignment has %d entries for %d vertices", len(assign), len(qg.Vertices))
	}
	m := mapping.NewMapper(qg, ng, mapping.Options{Alpha: opts.Alpha, Rng: opts.Rng})
	a := assign.Clone()
	orig := assign.Clone()
	for _, v := range qg.Vertices {
		v.Dirty = false
	}
	if err := rebalancePhase(qg, ng, m, a, opts); err != nil {
		return nil, err
	}
	refinePhase(qg, ng, m, a, orig, opts)
	return a, nil
}

// rebalancePhase is Algorithm 3.
func rebalancePhase(qg *querygraph.Graph, ng *netgraph.Graph, m *mapping.Mapper, a mapping.Assignment, opts Options) error {
	targets := m.Assignable()
	if len(targets) < 2 {
		return nil
	}
	// Diffusion over assignable children, in the compact index space.
	idxOf := make(map[int]int, len(targets))
	for i, t := range targets {
		idxOf[t] = i
	}
	loads := mapping.Loads(qg, ng, a)
	dLoads := make([]float64, len(targets))
	dCaps := make([]float64, len(targets))
	for i, t := range targets {
		dLoads[i] = loads[t]
		dCaps[i] = ng.Vertices[t].Capability
	}
	sol, err := diffusion.Solve(diffusion.Complete(len(targets)), dLoads, dCaps)
	if err != nil {
		return fmt.Errorf("adapt: %w", err)
	}
	moves := sol.Moves()

	// Vertices by current target.
	byTarget := make(map[int][]int, len(targets))
	for vi, v := range qg.Vertices {
		if !v.IsN() && a[vi] != mapping.Unassigned {
			byTarget[a[vi]] = append(byTarget[a[vi]], vi)
		}
	}

	// Active positive-flow pairs.
	type pair struct{ i, j int }
	var pairs []pair
	const eps = 1e-9
	for i := range moves {
		for j := range moves[i] {
			if moves[i][j] > eps {
				pairs = append(pairs, pair{i, j})
			}
		}
	}

	for len(pairs) > 0 {
		pi := opts.Rng.IntN(len(pairs))
		p := pairs[pi]
		from, to := targets[p.i], targets[p.j]
		vi := pickVertex(qg, m, a, byTarget[from], to, moves[p.i][p.j], opts)
		if vi < 0 {
			// No eligible vertex for this pair; retire it.
			moves[p.i][p.j] = 0
			pairs[pi] = pairs[len(pairs)-1]
			pairs = pairs[:len(pairs)-1]
			continue
		}
		v := qg.Vertices[vi]
		a[vi] = to
		v.Dirty = true
		byTarget[from] = remove(byTarget[from], vi)
		byTarget[to] = append(byTarget[to], vi)
		moves[p.i][p.j] -= v.Weight
		if moves[p.i][p.j] <= eps {
			moves[p.i][p.j] = 0
			pairs[pi] = pairs[len(pairs)-1]
			pairs = pairs[:len(pairs)-1]
		}
	}
	return nil
}

// pickVertex implements lines 5–8 of Algorithm 3 for one (i,j) pair: among
// vertices on "from" eligible under the flow rule, restrict to those within
// x% of the best benefit, prefer dirty ones, then pick the highest load
// density.
func pickVertex(qg *querygraph.Graph, m *mapping.Mapper, a mapping.Assignment, candidates []int, to int, flow float64, opts Options) int {
	best := math.Inf(-1)
	type cand struct {
		vi      int
		benefit float64
	}
	var eligible []cand
	for _, vi := range candidates {
		w := qg.Vertices[vi].Weight
		if w <= 0 || flow <= opts.FlowFraction*w {
			continue
		}
		b := m.Gain(a, vi, to)
		eligible = append(eligible, cand{vi, b})
		if b > best {
			best = b
		}
	}
	if len(eligible) == 0 {
		return -1
	}
	slack := math.Abs(best) * opts.BenefitSlackPct / 100
	var v []cand
	for _, c := range eligible {
		if best-c.benefit <= slack {
			v = append(v, c)
		}
	}
	// Vd ← dirty subset; if empty, Vd ← V.
	var vd []cand
	for _, c := range v {
		if qg.Vertices[c.vi].Dirty {
			vd = append(vd, c)
		}
	}
	if len(vd) == 0 {
		vd = v
	}
	// Highest load density (weight / state size); stateless vertices are
	// free to move and rank first.
	bestVi, bestDensity := -1, math.Inf(-1)
	for _, c := range vd {
		d := math.Inf(1)
		if s := qg.Vertices[c.vi].StateSize; s > 0 {
			d = qg.Vertices[c.vi].Weight / s
		}
		if d > bestDensity || (d == bestDensity && c.vi < bestVi) {
			bestVi, bestDensity = c.vi, d
		}
	}
	return bestVi
}

// refinePhase is the distribution-refinement phase of §3.7.
func refinePhase(qg *querygraph.Graph, ng *netgraph.Graph, m *mapping.Mapper, a mapping.Assignment, orig mapping.Assignment, opts Options) {
	caps := m.Capacities()
	loads := mapping.Loads(qg, ng, a)
	targets := m.Assignable()

	feasible := func(vi, to int) bool {
		w := qg.Vertices[vi].Weight
		return loads[to]+w <= caps[to]
	}
	move := func(vi, to int) {
		w := qg.Vertices[vi].Weight
		loads[a[vi]] -= w
		loads[to] += w
		a[vi] = to
	}

	var movable []int
	for vi, v := range qg.Vertices {
		if !v.IsN() && a[vi] != mapping.Unassigned {
			movable = append(movable, vi)
		}
	}
	for pass := 0; pass < opts.RefinePasses; pass++ {
		opts.Rng.Shuffle(len(movable), func(i, j int) { movable[i], movable[j] = movable[j], movable[i] })
		changed := false
		for _, vi := range movable {
			// (1) Map back to the original location if that keeps
			// balance and the current WEC.
			if o := orig[vi]; o != a[vi] && o != mapping.Unassigned &&
				feasible(vi, o) && m.Gain(a, vi, o) >= 0 {
				move(vi, o)
				changed = true
				continue
			}
			// (2) Any strictly WEC-decreasing feasible move.
			bestK, bestG := -1, 1e-12
			for _, k := range targets {
				if k == a[vi] || !feasible(vi, k) {
					continue
				}
				if g := m.Gain(a, vi, k); g > bestG {
					bestK, bestG = k, g
				}
			}
			if bestK >= 0 {
				move(vi, bestK)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func remove(s []int, x int) []int {
	for i, v := range s {
		if v == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

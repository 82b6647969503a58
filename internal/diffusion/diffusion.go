// Package diffusion implements the optimal dynamic load-balancing diffusion
// solution of Hu & Blake (1995), which the paper's adaptive redistribution
// uses to decide how much load to shift between sibling coordinators
// (Algorithm 3) while minimizing the Euclidean norm of transferred load —
// and therefore the number of query migrations.
//
// Given a connected undirected graph over n processors with loads l_i and
// capacities proportional to weights c_i, the target load of processor i is
// t_i = c_i · Σl / Σc. The minimal-norm diffusion solution sets the flow on
// edge (i,j) to m_ij = λ_i − λ_j where λ solves the Laplacian system
// L·λ = l − t. The system is solved with conjugate gradients; the Laplacian
// is singular (constant nullspace), which CG handles because l − t sums to
// zero.
package diffusion

import (
	"fmt"
	"math"
)

// Graph is the sibling graph on which load diffuses. Edges are the pairs
// allowed to exchange load; coordinators use the complete graph over their
// children.
type Graph struct {
	N     int
	Edges [][2]int
}

// Complete returns the complete graph on n vertices.
func Complete(n int) Graph {
	g := Graph{N: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.Edges = append(g.Edges, [2]int{i, j})
		}
	}
	return g
}

// Solution is a diffusion plan: Flow[e] is the load to move along edge e
// from Edges[e][0] to Edges[e][1] (negative = opposite direction).
type Solution struct {
	Graph Graph
	Flow  []float64
}

// Moves flattens the solution into a per-ordered-pair matrix m[i][j] ≥ 0 of
// load that should migrate from i to j, as Algorithm 3 consumes it.
func (s *Solution) Moves() [][]float64 {
	m := make([][]float64, s.Graph.N)
	for i := range m {
		m[i] = make([]float64, s.Graph.N)
	}
	for e, f := range s.Flow {
		i, j := s.Graph.Edges[e][0], s.Graph.Edges[e][1]
		if f > 0 {
			m[i][j] = f
		} else if f < 0 {
			m[j][i] = -f
		}
	}
	return m
}

// TotalTransfer returns Σ|m_ij|, the total load volume the plan moves.
func (s *Solution) TotalTransfer() float64 {
	var t float64
	for _, f := range s.Flow {
		t += math.Abs(f)
	}
	return t
}

// balancedEps is the relative size ‖l − t‖₂/‖l‖₂ up to which loads count as
// balanced: a few orders above the 1e-16 of float64 rounding, far below any
// imbalance worth a migration.
const balancedEps = 1e-12

// Solve computes the minimal-Euclidean-norm diffusion plan that moves loads
// to the capacity-proportional targets; loads within balancedEps of their
// targets get the zero plan. caps must be positive and loads non-negative;
// both must have length g.N.
func Solve(g Graph, loads, caps []float64) (*Solution, error) {
	n := g.N
	if len(loads) != n || len(caps) != n {
		return nil, fmt.Errorf("diffusion: got %d loads, %d caps for %d vertices", len(loads), len(caps), n)
	}
	if n == 0 {
		return &Solution{Graph: g}, nil
	}
	var totalLoad, totalCap float64
	for i := 0; i < n; i++ {
		if caps[i] <= 0 {
			return nil, fmt.Errorf("diffusion: non-positive capacity %v at vertex %d", caps[i], i)
		}
		totalLoad += loads[i]
		totalCap += caps[i]
	}
	// b_i = l_i − t_i (sums to zero).
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		b[i] = loads[i] - caps[i]*totalLoad/totalCap
	}
	sol := &Solution{Graph: g, Flow: make([]float64, len(g.Edges))}
	// Loads already at their targets leave only the rounding residue of
	// forming the targets in b. That is the balanced case — the zero plan —
	// not a system to solve: CG has no signal to converge on in it.
	if dot(b, b) <= balancedEps*balancedEps*dot(loads, loads) {
		return sol, nil
	}

	lambda, err := solveLaplacian(g, b)
	if err != nil {
		return nil, err
	}
	for e, ed := range g.Edges {
		sol.Flow[e] = lambda[ed[0]] - lambda[ed[1]]
	}
	return sol, nil
}

// solveLaplacian solves L·x = b by conjugate gradients, where L is the
// unweighted Laplacian of g. b must be orthogonal to the constant vector
// (it is, by construction). The solution is defined up to a constant, which
// cancels in the flows.
func solveLaplacian(g Graph, b []float64) ([]float64, error) {
	n := g.N
	deg := make([]float64, n)
	for _, e := range g.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	mul := func(x, out []float64) {
		for i := 0; i < n; i++ {
			out[i] = deg[i] * x[i]
		}
		for _, e := range g.Edges {
			out[e[0]] -= x[e[1]]
			out[e[1]] -= x[e[0]]
		}
	}

	x := make([]float64, n)
	r := make([]float64, n)
	copy(r, b)
	p := make([]float64, n)
	copy(p, b)
	ap := make([]float64, n)

	rr := dot(r, r)
	if rr == 0 {
		return x, nil
	}
	bNorm := math.Sqrt(rr)
	const tol = 1e-10
	maxIter := 4 * n
	if maxIter < 64 {
		maxIter = 64
	}
	for iter := 0; iter < maxIter; iter++ {
		mul(p, ap)
		pap := dot(p, ap)
		if pap <= 0 {
			// p in (or numerically near) the nullspace; project out
			// the constant component and stop.
			break
		}
		alpha := rr / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		newRR := dot(r, r)
		if math.Sqrt(newRR) <= tol*bNorm {
			return x, nil
		}
		beta := newRR / rr
		rr = newRR
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
	}
	if math.Sqrt(rr) > 1e-6*bNorm {
		return nil, fmt.Errorf("diffusion: CG did not converge (residual %.3g of %.3g)", math.Sqrt(rr), bNorm)
	}
	return x, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

package diffusion

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestSolveBalancesCompleteGraph(t *testing.T) {
	g := Complete(4)
	loads := []float64{10, 2, 2, 2}
	caps := []float64{1, 1, 1, 1}
	sol, err := Solve(g, loads, caps)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Applying the flows must equalize loads at 4 each.
	after := apply(g, loads, sol)
	for i, l := range after {
		if math.Abs(l-4) > 1e-6 {
			t.Errorf("after[%d] = %v, want 4", i, l)
		}
	}
}

func apply(g Graph, loads []float64, sol *Solution) []float64 {
	out := append([]float64(nil), loads...)
	for e, f := range sol.Flow {
		out[g.Edges[e][0]] -= f
		out[g.Edges[e][1]] += f
	}
	return out
}

func TestSolveProportionalTargets(t *testing.T) {
	g := Complete(3)
	loads := []float64{9, 0, 0}
	caps := []float64{1, 2, 3} // targets 1.5, 3, 4.5
	sol, err := Solve(g, loads, caps)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	after := apply(g, loads, sol)
	want := []float64{1.5, 3, 4.5}
	for i := range want {
		if math.Abs(after[i]-want[i]) > 1e-6 {
			t.Errorf("after[%d] = %v, want %v", i, after[i], want[i])
		}
	}
}

func TestSolveBalancedInputNoFlow(t *testing.T) {
	g := Complete(5)
	loads := []float64{3, 3, 3, 3, 3}
	caps := []float64{1, 1, 1, 1, 1}
	sol, err := Solve(g, loads, caps)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if tt := sol.TotalTransfer(); tt > 1e-9 {
		t.Errorf("balanced input produced transfer %v", tt)
	}
}

// TestSolveBalancedNeverErrors: a load vector that is balanced — exactly, or
// up to one ulp in any one entry — leaves a right-hand side that is zero or
// rounding residue. Solve must report the zero plan, not iterate CG on the
// residue (which fails to converge on clusters of 3 and 5) and not move load.
func TestSolveBalancedNeverErrors(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 77))
	for n := 2; n <= 9; n++ {
		g := Complete(n)
		for trial := 0; trial < 200; trial++ {
			caps := make([]float64, n)
			loads := make([]float64, n)
			per := r.Float64() * 1000 // load per unit of capacity
			var total float64
			for i := range caps {
				caps[i] = 1
				if trial%2 == 1 {
					caps[i] = 0.5 + r.Float64()*4
				}
				loads[i] = caps[i] * per
				total += loads[i]
			}
			check := func(what string) {
				t.Helper()
				sol, err := Solve(g, loads, caps)
				if err != nil {
					t.Fatalf("n=%d %s loads=%v caps=%v: %v", n, what, loads, caps, err)
				}
				if tt := sol.TotalTransfer(); tt > 1e-9*total {
					t.Fatalf("n=%d %s loads=%v caps=%v: balanced input moves %v", n, what, loads, caps, tt)
				}
			}
			check("balanced")
			for i := range loads {
				exact := loads[i]
				loads[i] = math.Nextafter(exact, math.Inf(1))
				check(fmt.Sprintf("entry %d one ulp up", i))
				loads[i] = math.Nextafter(exact, 0)
				check(fmt.Sprintf("entry %d one ulp down", i))
				loads[i] = exact
			}
		}
	}
}

func TestSolveValidation(t *testing.T) {
	g := Complete(2)
	if _, err := Solve(g, []float64{1}, []float64{1, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Solve(g, []float64{1, 1}, []float64{1, 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	empty, err := Solve(Graph{}, nil, nil)
	if err != nil || len(empty.Flow) != 0 {
		t.Errorf("empty graph: %v %v", empty, err)
	}
}

func TestMovesMatrix(t *testing.T) {
	g := Complete(3)
	sol := &Solution{Graph: g, Flow: []float64{2, -1, 0}}
	// Edges of Complete(3): (0,1), (0,2), (1,2).
	m := sol.Moves()
	if m[0][1] != 2 {
		t.Errorf("m[0][1] = %v", m[0][1])
	}
	if m[2][0] != 1 {
		t.Errorf("m[2][0] = %v", m[2][0])
	}
	if m[1][2] != 0 || m[2][1] != 0 {
		t.Errorf("zero flow produced moves: %v", m)
	}
}

// TestQuickSolveReachesTargets: for random loads on random-size complete
// graphs, applying the diffusion plan always reaches the proportional
// targets (flow conservation + correctness of the CG solve).
func TestQuickSolveReachesTargets(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 31))
		n := 2 + int(seed%14)
		g := Complete(n)
		loads := make([]float64, n)
		caps := make([]float64, n)
		var totalLoad, totalCap float64
		for i := range loads {
			loads[i] = r.Float64() * 100
			caps[i] = 0.5 + r.Float64()*4
			totalLoad += loads[i]
			totalCap += caps[i]
		}
		sol, err := Solve(g, loads, caps)
		if err != nil {
			return false
		}
		after := apply(g, loads, sol)
		for i := range after {
			want := caps[i] * totalLoad / totalCap
			if math.Abs(after[i]-want) > 1e-5*(1+totalLoad) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

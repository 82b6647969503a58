// Package netgraph implements the network graph NG = {Vn, En, Wn} of the
// paper's graph-mapping model (§3.1.2): a complete weighted graph whose
// vertices are processors (or, at inner coordinators, child clusters) with
// capability weights, and whose edge weights are communication latencies.
//
// The latency matrix is stored row-major in one flat []float64 so that the
// mapping algorithms' inner loops can hoist a row once (Row) and index it
// with plain slice arithmetic instead of chasing per-row pointers.
package netgraph

import (
	"fmt"

	"repro/internal/topology"
)

// Vertex is one mapping target: a processor or a child-coordinator cluster.
type Vertex struct {
	// Node is the topology node this vertex represents: the processor
	// itself for leaf-level graphs, or the cluster's median (the child
	// coordinator) for inner levels.
	Node topology.NodeID
	// Capability is Wn(v): the processor's capability ci, or the total
	// capability of all descendant processors for a cluster vertex.
	Capability float64
	// Members lists the descendant processors covered by this vertex;
	// for a leaf-level vertex it is just {Node}.
	Members []topology.NodeID
}

// Graph is a complete network graph with an explicit latency matrix.
type Graph struct {
	Vertices []Vertex
	lat      []float64 // row-major n×n latency matrix
	n        int
	totalCap float64
}

// New builds a network graph over the given vertices, measuring pairwise
// latencies between vertex nodes with the oracle.
func New(vertices []Vertex, oracle *topology.Oracle) (*Graph, error) {
	if len(vertices) == 0 {
		return nil, fmt.Errorf("netgraph: no vertices")
	}
	n := len(vertices)
	g := &Graph{
		Vertices: append([]Vertex(nil), vertices...),
		lat:      make([]float64, n*n),
		n:        n,
	}
	for i := range vertices {
		dst := g.lat[i*n : (i+1)*n]
		row := oracle.Row(vertices[i].Node)
		for j := range vertices {
			if i == j {
				continue
			}
			dst[j] = row[vertices[j].Node]
		}
		g.totalCap += vertices[i].Capability
	}
	return g, nil
}

// NewWithLatencies builds a graph from an explicit latency matrix, used by
// tests and by the paper's worked example (Fig. 5).
//
//lint:deadcode test fixture builder of the adapt and mapping tests (instance, randomInstance, and paperExample of TestPaperTable2)
func NewWithLatencies(vertices []Vertex, lat [][]float64) (*Graph, error) {
	if len(vertices) == 0 {
		return nil, fmt.Errorf("netgraph: no vertices")
	}
	if len(lat) != len(vertices) {
		return nil, fmt.Errorf("netgraph: latency matrix is %dx?, want %d rows", len(lat), len(vertices))
	}
	n := len(vertices)
	g := &Graph{
		Vertices: append([]Vertex(nil), vertices...),
		lat:      make([]float64, n*n),
		n:        n,
	}
	for i := range lat {
		if len(lat[i]) != len(vertices) {
			return nil, fmt.Errorf("netgraph: latency row %d has %d cols, want %d", i, len(lat[i]), len(vertices))
		}
		copy(g.lat[i*n:(i+1)*n], lat[i])
		g.totalCap += vertices[i].Capability
	}
	return g, nil
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return g.n }

// Row returns the latency row from vertex i to every vertex: Row(i)[j] is
// Wn(e_ij), the latency between vertices i and j. The slice aliases the
// matrix; callers must not modify it. Hot loops scanning many j for one i
// should hoist the row.
func (g *Graph) Row(i int) []float64 { return g.lat[i*g.n : (i+1)*g.n] }

// IndexOfNode returns the vertex index representing the given topology node,
// searching vertex nodes first and then member lists. It returns -1 when the
// node is not covered by the graph.
//
//lint:deadcode lookup of netgraph's TestIndexOfNode and sim's TestDiagnoseCost
func (g *Graph) IndexOfNode(n topology.NodeID) int {
	for i, v := range g.Vertices {
		if v.Node == n {
			return i
		}
	}
	for i, v := range g.Vertices {
		for _, m := range v.Members {
			if m == n {
				return i
			}
		}
	}
	return -1
}

// Capacities returns the per-vertex load limits (1+α)·ci·L/C for a total
// query load L and imbalance slack α (Eqn 3.1).
func (g *Graph) Capacities(totalLoad, alpha float64) []float64 {
	out := make([]float64, g.Len())
	if g.totalCap == 0 {
		return out
	}
	for i, v := range g.Vertices {
		out[i] = (1 + alpha) * v.Capability * totalLoad / g.totalCap
	}
	return out
}

package sim

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/mapping"
	"repro/internal/netgraph"
	"repro/internal/querygraph"
	"repro/internal/topology"
	"repro/internal/workload"
)

// GlobalGraphs builds the global query graph and network graph used by the
// Centralized and Greedy baselines of §4.1.1: every query as a q-vertex,
// n-vertices for sources (anchored, zero capability) and proxies (pinned to
// their processors), and the complete processor network graph.
func (w *World) GlobalGraphs(wl *workload.Workload) (*querygraph.Graph, *netgraph.Graph, error) {
	verts := make([]netgraph.Vertex, 0, len(w.Processors)+len(w.Sources))
	procIdx := make(map[topology.NodeID]int, len(w.Processors))
	for _, p := range w.Processors {
		procIdx[p] = len(verts)
		verts = append(verts, netgraph.Vertex{
			Node: p, Capability: 1, Members: []topology.NodeID{p},
		})
	}
	anchorIdx := make(map[topology.NodeID]int, len(w.Sources))
	for _, s := range w.Sources {
		anchorIdx[s] = len(verts)
		verts = append(verts, netgraph.Vertex{Node: s})
	}
	ng, err := netgraph.New(verts, w.Oracle)
	if err != nil {
		return nil, nil, err
	}

	qg, err := querygraph.New(wl.SubRates, wl.SourceOfSub)
	if err != nil {
		return nil, nil, err
	}
	referenced := make(map[topology.NodeID]bool)
	for _, q := range wl.Queries {
		qg.AddQVertex(q)
		referenced[q.Proxy] = true
	}
	for _, s := range wl.SourceOfSub {
		referenced[s] = true
	}
	for _, p := range w.Processors {
		if referenced[p] {
			qg.AddNVertex(p, procIdx[p])
		}
	}
	for _, s := range w.Sources {
		if referenced[s] {
			qg.AddNVertex(s, anchorIdx[s])
		}
	}
	qg.ComputeEdges()
	return qg, ng, nil
}

// PlacementFromAssignment converts a global assignment into a query
// placement.
func PlacementFromAssignment(qg *querygraph.Graph, ng *netgraph.Graph, a mapping.Assignment) Placement {
	p := make(Placement)
	for vi, v := range qg.Vertices {
		if len(v.Queries) == 0 || a[vi] == mapping.Unassigned {
			continue
		}
		node := ng.Vertices[a[vi]].Node
		for _, q := range v.Queries {
			p[q.Name] = node
		}
	}
	return p
}

// NaivePlacement places every query at its proxy (baseline "Naive").
func NaivePlacement(wl *workload.Workload) Placement {
	p := make(Placement, len(wl.Queries))
	for _, q := range wl.Queries {
		p[q.Name] = q.Proxy
	}
	return p
}

// RandomPlacement places every query on a uniform random processor
// (baseline "Random" of Fig 8; also models inaccurate a-priori statistics
// in Fig 7).
//
//lint:deadcode random starting placement of TestAdaptConvergesFromRandom
func (w *World) RandomPlacement(wl *workload.Workload, seed uint64) Placement {
	rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
	p := make(Placement, len(wl.Queries))
	for _, q := range wl.Queries {
		p[q.Name] = w.Processors[rng.IntN(len(w.Processors))]
	}
	return p
}

// GreedyPlacement runs only the greedy half of Algorithm 2 on the global
// graphs (baseline "Greedy").
func (w *World) GreedyPlacement(wl *workload.Workload) (Placement, error) {
	qg, ng, err := w.GlobalGraphs(wl)
	if err != nil {
		return nil, err
	}
	m := mapping.NewMapper(qg, ng, mapping.Options{})
	a, err := m.Greedy()
	if err != nil {
		return nil, err
	}
	return PlacementFromAssignment(qg, ng, a), nil
}

// CentralizedPlacement runs Algorithm 2 on the global graphs (baseline
// "Centralized", the optimality benchmark of §4.1.1). To make the global
// instance tractable while retaining the exact algorithm's cluster-moving
// power, it runs multilevel: coarsen the global query graph once, exact-
// refine at the coarse level, project the assignment to queries, and polish
// with fine-grained sweeps. It returns the placement and the graphs so that
// remapping experiments can reuse them.
func (w *World) CentralizedPlacement(wl *workload.Workload) (Placement, *querygraph.Graph, *netgraph.Graph, error) {
	qg, ng, err := w.GlobalGraphs(wl)
	if err != nil {
		return nil, nil, nil, err
	}
	a, err := centralizedMap(qg, ng, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	return PlacementFromAssignment(qg, ng, a), qg, ng, nil
}

// centralizedMap is the multilevel global mapping shared by the Centralized
// baseline and the Remapping scheme of Fig 10. vmax 0 selects a coarse size
// proportional to the number of processors.
func centralizedMap(qg *querygraph.Graph, ng *netgraph.Graph, vmax int) (mapping.Assignment, error) {
	if vmax == 0 {
		vmax = 8 * ng.Len()
		if vmax > 1200 {
			vmax = 1200
		}
	}
	rng := rand.New(rand.NewPCG(99, 9999))
	res := qg.Coarsen(querygraph.CoarsenOptions{VMax: vmax, Rng: rng})
	mc := mapping.NewMapper(res.Graph, ng, mapping.Options{
		// Exact refinement at the coarse level is the expensive,
		// high-quality step that makes this the benchmark.
		ExactLimit: vmax*ng.Len() + 1,
		Rng:        rng,
	})
	coarseA, err := mc.Map()
	if err != nil {
		return nil, fmt.Errorf("sim: centralized mapping: %w", err)
	}
	// Project to the fine graph and polish with sweeps.
	a := make(mapping.Assignment, len(qg.Vertices))
	for fi := range qg.Vertices {
		a[fi] = coarseA[res.FineToCoarse[fi]]
	}
	mf := mapping.NewMapper(qg, ng, mapping.Options{ExactLimit: 1, Rng: rng})
	return mf.Refine(a), nil
}

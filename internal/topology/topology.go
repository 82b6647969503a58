// Package topology generates and queries the overlay network used by the
// simulation study: a Transit-Stub topology in the style of the GT-ITM
// generator the paper uses (§4.1), plus shortest-path latency queries and
// median selection, which the coordinator-tree construction relies on.
//
// The generator is deterministic for a given seed so experiments are
// reproducible.
package topology

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
)

// NodeID identifies a node in the topology. IDs are dense in [0, N).
type NodeID int

// Kind classifies a node by its role in the Transit-Stub hierarchy.
type Kind int

// Node kinds. Transit nodes form the wide-area backbone; stub nodes hang off
// transit nodes in local clusters.
const (
	Transit Kind = iota + 1
	Stub
)

func (k Kind) String() string {
	switch k {
	case Transit:
		return "transit"
	case Stub:
		return "stub"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Edge is a weighted undirected link.
type Edge struct {
	To      NodeID
	Latency float64 // milliseconds
}

// Node carries a node's kind.
type Node struct {
	ID   NodeID
	Kind Kind
}

// Graph is an undirected weighted graph with dense node IDs.
type Graph struct {
	Nodes []Node
	adj   [][]Edge
}

// NewGraph returns an empty graph with n isolated nodes of Stub kind.
func NewGraph(n int) *Graph {
	g := &Graph{
		Nodes: make([]Node, n),
		adj:   make([][]Edge, n),
	}
	for i := range g.Nodes {
		g.Nodes[i] = Node{ID: NodeID(i), Kind: Stub}
	}
	return g
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.Nodes) }

// AddEdge inserts an undirected edge with the given latency. Self-loops and
// out-of-range endpoints are rejected.
func (g *Graph) AddEdge(a, b NodeID, latency float64) error {
	if a == b {
		return fmt.Errorf("topology: self-loop on node %d", a)
	}
	if !g.valid(a) || !g.valid(b) {
		return fmt.Errorf("topology: edge (%d,%d) out of range [0,%d)", a, b, g.Len())
	}
	if latency <= 0 {
		return fmt.Errorf("topology: non-positive latency %v on edge (%d,%d)", latency, a, b)
	}
	g.adj[a] = append(g.adj[a], Edge{To: b, Latency: latency})
	g.adj[b] = append(g.adj[b], Edge{To: a, Latency: latency})
	return nil
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < g.Len() }

// Dijkstra computes shortest-path latencies from src to every node.
// Unreachable nodes get +Inf.
func (g *Graph) Dijkstra(src NodeID) []float64 {
	dist := make([]float64, g.Len())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if !g.valid(src) {
		return dist
	}
	dist[src] = 0
	h := &nodeHeap{items: []heapItem{{node: src, dist: 0}}}
	for h.len() > 0 {
		it := h.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range g.adj[it.node] {
			if nd := it.dist + e.Latency; nd < dist[e.To] {
				dist[e.To] = nd
				h.push(heapItem{node: e.To, dist: nd})
			}
		}
	}
	return dist
}

// DijkstraTree computes shortest-path distances and the parent of each node
// on its shortest path from src (-1 for src and unreachable nodes). The
// parent pointers define the shortest-path tree used as the multicast
// delivery tree in the cost model.
func (g *Graph) DijkstraTree(src NodeID) (dist []float64, parent []NodeID) {
	dist = make([]float64, g.Len())
	parent = make([]NodeID, g.Len())
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	if !g.valid(src) {
		return dist, parent
	}
	dist[src] = 0
	h := &nodeHeap{items: []heapItem{{node: src, dist: 0}}}
	for h.len() > 0 {
		it := h.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range g.adj[it.node] {
			if nd := it.dist + e.Latency; nd < dist[e.To] {
				dist[e.To] = nd
				parent[e.To] = it.node
				h.push(heapItem{node: e.To, dist: nd})
			}
		}
	}
	return dist, parent
}

type heapItem struct {
	node NodeID
	dist float64
}

// nodeHeap is a minimal binary min-heap specialized for Dijkstra; avoiding
// container/heap's interface dispatch matters because the simulation runs
// hundreds of single-source computations on a 4096-node graph.
type nodeHeap struct{ items []heapItem }

func (h *nodeHeap) len() int { return len(h.items) }

func (h *nodeHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].dist <= h.items[i].dist {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *nodeHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].dist < h.items[small].dist {
			small = l
		}
		if r < len(h.items) && h.items[r].dist < h.items[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// Oracle answers latency queries over a graph, caching one Dijkstra row per
// distinct source. The experiments only ever query distances from a few
// hundred processors/sources out of thousands of routers, so lazy per-row
// caching is far cheaper than all-pairs shortest paths.
type Oracle struct {
	g *Graph

	mu   sync.Mutex
	rows map[NodeID][]float64
}

// NewOracle returns an oracle over g.
func NewOracle(g *Graph) *Oracle {
	return &Oracle{g: g, rows: make(map[NodeID][]float64)}
}

// Latency returns the shortest-path latency between a and b.
func (o *Oracle) Latency(a, b NodeID) float64 {
	if a == b {
		return 0
	}
	return o.row(a)[b]
}

// Row returns the full distance row from src. The returned slice is shared;
// callers must not modify it.
func (o *Oracle) Row(src NodeID) []float64 { return o.row(src) }

func (o *Oracle) row(src NodeID) []float64 {
	o.mu.Lock()
	r, ok := o.rows[src]
	o.mu.Unlock()
	if ok {
		return r
	}
	r = o.g.Dijkstra(src)
	o.mu.Lock()
	o.rows[src] = r
	o.mu.Unlock()
	return r
}

// Median returns the member of nodes with minimum total latency to all
// members — the paper's definition of a cluster median (§3.3). Ties break
// toward the lower node ID for determinism. It returns -1 for an empty set.
func (o *Oracle) Median(nodes []NodeID) NodeID {
	best := NodeID(-1)
	bestTotal := math.Inf(1)
	for _, cand := range nodes {
		row := o.row(cand)
		var total float64
		for _, other := range nodes {
			total += row[other]
		}
		if total < bestTotal || (total == bestTotal && cand < best) {
			bestTotal = total
			best = cand
		}
	}
	return best
}

// Config parameterizes the Transit-Stub generator. The defaults mirror the
// simulation study: 4 transit domains x 4 transit nodes, each transit node
// with 16 stub domains of 16 nodes each gives 4096 nodes.
type Config struct {
	TransitDomains     int // number of transit (backbone) domains
	TransitNodes       int // nodes per transit domain
	StubDomainsPerNode int // stub domains attached to each transit node
	StubNodes          int // nodes per stub domain

	// Latency bands, in milliseconds.
	InterTransitLatency [2]float64 // between transit domains (WAN)
	IntraTransitLatency [2]float64 // within a transit domain
	TransitStubLatency  [2]float64 // transit node <-> stub domain uplink
	IntraStubLatency    [2]float64 // within a stub domain (LAN)

	// ExtraStubEdgeProb adds redundant intra-stub edges with this
	// probability per node pair, giving the path diversity real topologies
	// have. Zero yields trees inside stub domains.
	ExtraStubEdgeProb float64

	Seed uint64
}

// DefaultConfig returns the paper-scale configuration (4096 nodes).
func DefaultConfig() Config {
	return Config{
		TransitDomains:      4,
		TransitNodes:        4,
		StubDomainsPerNode:  16,
		StubNodes:           16,
		InterTransitLatency: [2]float64{40, 120},
		IntraTransitLatency: [2]float64{10, 30},
		TransitStubLatency:  [2]float64{2, 10},
		IntraStubLatency:    [2]float64{0.5, 2},
		ExtraStubEdgeProb:   0.05,
		Seed:                1,
	}
}

// Validate reports whether the configuration is generatable.
func (c Config) Validate() error {
	switch {
	case c.TransitDomains < 1:
		return fmt.Errorf("topology: TransitDomains must be >= 1, got %d", c.TransitDomains)
	case c.TransitNodes < 1:
		return fmt.Errorf("topology: TransitNodes must be >= 1, got %d", c.TransitNodes)
	case c.StubDomainsPerNode < 0:
		return fmt.Errorf("topology: StubDomainsPerNode must be >= 0, got %d", c.StubDomainsPerNode)
	case c.StubNodes < 1 && c.StubDomainsPerNode > 0:
		return fmt.Errorf("topology: StubNodes must be >= 1, got %d", c.StubNodes)
	}
	for _, band := range [][2]float64{
		c.InterTransitLatency, c.IntraTransitLatency,
		c.TransitStubLatency, c.IntraStubLatency,
	} {
		if band[0] <= 0 || band[1] < band[0] {
			return fmt.Errorf("topology: invalid latency band %v", band)
		}
	}
	return nil
}

// TotalNodes returns the node count the configuration will generate.
func (c Config) TotalNodes() int {
	perTransit := c.TransitNodes * (1 + c.StubDomainsPerNode*c.StubNodes)
	return c.TransitDomains * perTransit
}

// Generate builds a Transit-Stub topology:
//
//   - transit domains are cliques of transit nodes, fully interconnected
//     domain-to-domain through one random gateway pair per domain pair;
//   - each transit node uplinks StubDomainsPerNode stub domains;
//   - each stub domain is a ring (guaranteeing connectivity) plus random
//     chords controlled by ExtraStubEdgeProb.
func Generate(cfg Config) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15))
	g := NewGraph(cfg.TotalNodes())

	lat := func(band [2]float64) float64 {
		return band[0] + rng.Float64()*(band[1]-band[0])
	}

	next := 0
	alloc := func() NodeID {
		id := NodeID(next)
		next++
		return id
	}

	transit := make([][]NodeID, cfg.TransitDomains)
	for d := 0; d < cfg.TransitDomains; d++ {
		transit[d] = make([]NodeID, cfg.TransitNodes)
		for i := 0; i < cfg.TransitNodes; i++ {
			id := alloc()
			g.Nodes[id] = Node{ID: id, Kind: Transit}
			transit[d][i] = id
			// Intra-domain clique keeps backbone paths short.
			for j := 0; j < i; j++ {
				if err := g.AddEdge(id, transit[d][j], lat(cfg.IntraTransitLatency)); err != nil {
					return nil, err
				}
			}
		}
	}
	// One inter-domain link per domain pair through random gateways.
	for a := 0; a < cfg.TransitDomains; a++ {
		for b := a + 1; b < cfg.TransitDomains; b++ {
			ga := transit[a][rng.IntN(len(transit[a]))]
			gb := transit[b][rng.IntN(len(transit[b]))]
			if err := g.AddEdge(ga, gb, lat(cfg.InterTransitLatency)); err != nil {
				return nil, err
			}
		}
	}

	for d := 0; d < cfg.TransitDomains; d++ {
		for _, tn := range transit[d] {
			for s := 0; s < cfg.StubDomainsPerNode; s++ {
				members := make([]NodeID, cfg.StubNodes)
				for i := 0; i < cfg.StubNodes; i++ {
					id := alloc()
					g.Nodes[id] = Node{ID: id, Kind: Stub}
					members[i] = id
				}
				// Uplink from a random stub member to its transit node.
				up := members[rng.IntN(len(members))]
				if err := g.AddEdge(up, tn, lat(cfg.TransitStubLatency)); err != nil {
					return nil, err
				}
				// Ring for connectivity.
				for i := 0; i < len(members); i++ {
					j := (i + 1) % len(members)
					if len(members) == 1 {
						break
					}
					if len(members) == 2 && i == 1 {
						break
					}
					if err := g.AddEdge(members[i], members[j], lat(cfg.IntraStubLatency)); err != nil {
						return nil, err
					}
				}
				// Random chords.
				for i := 0; i < len(members); i++ {
					for j := i + 2; j < len(members); j++ {
						if i == 0 && j == len(members)-1 {
							continue // ring edge already present
						}
						if rng.Float64() < cfg.ExtraStubEdgeProb {
							if err := g.AddEdge(members[i], members[j], lat(cfg.IntraStubLatency)); err != nil {
								return nil, err
							}
						}
					}
				}
			}
		}
	}
	return g, nil
}

// SampleNodes draws n distinct node IDs of the given kind from g, using the
// supplied seed. It returns an error if g has fewer than n such nodes. The
// experiments use it to pick sources, processors and routers disjointly:
// pass the previously drawn IDs as exclude.
func SampleNodes(g *Graph, kind Kind, n int, seed uint64, exclude map[NodeID]bool) ([]NodeID, error) {
	var pool []NodeID
	for _, node := range g.Nodes {
		if node.Kind == kind && !exclude[node.ID] {
			pool = append(pool, node.ID)
		}
	}
	if len(pool) < n {
		return nil, fmt.Errorf("topology: want %d %v nodes, only %d available", n, kind, len(pool))
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xda942042e4dd58b5))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := make([]NodeID, n)
	copy(out, pool[:n])
	return out, nil
}

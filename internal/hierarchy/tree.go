// Package hierarchy implements COSMOS's distributed coordinator tree (§3.3):
// processors are clustered by latency into groups of size [k, 3k−1] whose
// median becomes the cluster's coordinator, coordinators are clustered the
// same way level by level up to a root, and every coordinator performs graph
// mapping only over its own children. The package provides the three query-
// distribution operations of the paper — hierarchical initial distribution
// (§3.4–3.5), online insertion of new queries (§3.6), and adaptive
// redistribution rounds (§3.7) — over the querygraph/mapping/adapt
// machinery.
package hierarchy

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/mapping"
	"repro/internal/netgraph"
	"repro/internal/querygraph"
	"repro/internal/topology"
)

// Config parameterizes the tree.
type Config struct {
	// K is the cluster-size parameter: clusters hold between K and 3K−1
	// members (the root may hold fewer). Default 4, as in §4.1.
	K int
	// VMax is the per-coordinator coarsening budget of Algorithm 1.
	// Default 100.
	VMax int
	// Seed drives all randomized choices deterministically.
	Seed uint64
	// Workers bounds the goroutines used to run independent coordinators
	// concurrently during distribution and adaptation (upward coarsening
	// per level, downward descent per sibling subtree, except in
	// DistributeRandom). 0 selects GOMAXPROCS; 1 runs fully sequentially.
	// Placements are identical for any value: every per-coordinator
	// computation is seeded independently and results are combined in a
	// fixed order.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 4
	}
	if c.VMax == 0 {
		c.VMax = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Coordinator is one node of the tree. Leaf coordinators (level 1) manage a
// cluster of processors; inner coordinators manage child coordinators.
type Coordinator struct {
	Name     string
	Level    int // 1 = leaf
	Parent   *Coordinator
	Children []*Coordinator
	// Node is the median processor playing this coordinator role.
	Node topology.NodeID
	// Procs are the member processors of a leaf cluster (nil for inner).
	Procs []topology.NodeID
	// Members are all descendant processors.
	Members []topology.NodeID
	// Capability is the summed capability of Members.
	Capability float64

	// memberSet indexes Members for covering tests.
	memberSet map[topology.NodeID]bool
	// childOfNode maps a member processor to the child index covering it.
	childOfNode map[topology.NodeID]int

	// expand is the upward-pass expansion registry: Key -> fine vertices
	// at the next granularity down (§3.4 "retrieved from the
	// corresponding coordinator based on the tags").
	expand map[string][]*querygraph.Vertex
	keySeq int

	// anchorIdx maps external nodes (sources, foreign processors) to
	// their zero-capability anchor vertex in the fixed network graph.
	anchorIdx map[topology.NodeID]int

	// Mapped state of the last distribution/adaptation descent.
	graph  *querygraph.Graph
	ng     *netgraph.Graph
	assign mapping.Assignment
	loads  []float64 // per-NG-vertex load, kept current across insertions
	// byQuery maps each constituent query name to the ID of the graph
	// vertex holding it, so removal finds a query in O(1) per level
	// instead of scanning every vertex. Rebuilt by setState, maintained
	// by Insert/PlaceAt/Remove.
	byQuery map[string]int

	// timing of the last operation phases, for Fig 6(b).
	upTime   time.Duration
	downTime time.Duration
}

// IsLeaf reports whether the coordinator manages processors directly.
func (c *Coordinator) IsLeaf() bool { return len(c.Children) == 0 }

// setAssign installs the mapping target of vertex id, growing the
// assignment array when the vertex extended the graph (reused slots keep
// their position).
func (c *Coordinator) setAssign(id, k int) {
	for len(c.assign) <= id {
		c.assign = append(c.assign, mapping.Unassigned)
	}
	c.assign[id] = k
}

// noteQuery records which vertex holds a query.
func (c *Coordinator) noteQuery(name string, id int) {
	if c.byQuery == nil {
		c.byQuery = make(map[string]int)
	}
	c.byQuery[name] = id
}

// Tree is the full coordinator hierarchy plus the global bookkeeping COSMOS
// needs: per-query placement and query metadata.
type Tree struct {
	Cfg    Config
	Oracle *topology.Oracle
	Root   *Coordinator
	Leaves []*Coordinator
	All    []*Coordinator

	byName  map[string]*Coordinator
	procCap map[topology.NodeID]float64
	leafOf  map[topology.NodeID]*Coordinator

	sourceOfSub []topology.NodeID
	// space is the shared substream index over (subRates, sourceOfSub),
	// built once per distribution and reused by every per-coordinator
	// query graph.
	space *querygraph.Space

	// placement maps query name -> processor node. placeMu guards it
	// during the parallel downward descent, where sibling subtrees
	// install leaf placements concurrently.
	placeMu   sync.Mutex
	placement map[string]topology.NodeID
	queries   map[string]querygraph.QueryInfo

	// loadOf refreshes per-query load estimates during adaptation.
	loadOf func(name string) float64

	rng *rand.Rand
}

// Build constructs the coordinator tree over the given processors with the
// given per-processor capabilities (nil means capability 1 everywhere).
func Build(oracle *topology.Oracle, processors []topology.NodeID, caps map[topology.NodeID]float64, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	if len(processors) == 0 {
		return nil, fmt.Errorf("hierarchy: no processors")
	}
	t := &Tree{
		Cfg:       cfg,
		Oracle:    oracle,
		byName:    make(map[string]*Coordinator),
		procCap:   make(map[topology.NodeID]float64, len(processors)),
		leafOf:    make(map[topology.NodeID]*Coordinator),
		placement: make(map[string]topology.NodeID),
		queries:   make(map[string]querygraph.QueryInfo),
		rng:       rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xabcdef12345)),
	}
	for _, p := range processors {
		c := 1.0
		if caps != nil {
			if v, ok := caps[p]; ok {
				c = v
			}
		}
		t.procCap[p] = c
	}

	// Level 1: cluster processors into leaf coordinators.
	groups := t.clusterize(processors, cfg.K)
	var current []*Coordinator
	for gi, g := range groups {
		median := oracle.Median(g)
		leaf := &Coordinator{
			Name:    fmt.Sprintf("L1.%d", gi),
			Level:   1,
			Node:    median,
			Procs:   append([]topology.NodeID(nil), g...),
			Members: append([]topology.NodeID(nil), g...),
		}
		for _, p := range g {
			leaf.Capability += t.procCap[p]
			t.leafOf[p] = leaf
		}
		leaf.index()
		t.register(leaf)
		t.Leaves = append(t.Leaves, leaf)
		current = append(current, leaf)
	}

	// Upper levels: cluster coordinators by their median nodes.
	level := 2
	for len(current) > 1 {
		nodes := make([]topology.NodeID, len(current))
		for i, c := range current {
			nodes[i] = c.Node
		}
		idxGroups := t.clusterizeIndices(nodes, cfg.K)
		var next []*Coordinator
		for gi, idxs := range idxGroups {
			members := make([]topology.NodeID, 0, len(idxs))
			for _, i := range idxs {
				members = append(members, current[i].Node)
			}
			median := oracle.Median(members)
			parent := &Coordinator{
				Name:  fmt.Sprintf("L%d.%d", level, gi),
				Level: level,
				Node:  median,
			}
			for _, i := range idxs {
				child := current[i]
				child.Parent = parent
				parent.Children = append(parent.Children, child)
				parent.Members = append(parent.Members, child.Members...)
				parent.Capability += child.Capability
			}
			parent.index()
			t.register(parent)
			next = append(next, parent)
		}
		current = next
		level++
	}
	t.Root = current[0]
	return t, nil
}

func (t *Tree) register(c *Coordinator) {
	t.byName[c.Name] = c
	t.All = append(t.All, c)
	c.expand = make(map[string][]*querygraph.Vertex)
}

// index precomputes membership lookups.
func (c *Coordinator) index() {
	c.memberSet = make(map[topology.NodeID]bool, len(c.Members))
	for _, m := range c.Members {
		c.memberSet[m] = true
	}
	c.childOfNode = make(map[topology.NodeID]int)
	if c.IsLeaf() {
		for i, p := range c.Procs {
			c.childOfNode[p] = i
		}
		return
	}
	for i, ch := range c.Children {
		for _, m := range ch.Members {
			c.childOfNode[m] = i
		}
	}
}

// clusterize groups nodes into latency-proximate clusters of size
// [k, 3k−1], following the construction goals of [5] (§3.3).
func (t *Tree) clusterize(nodes []topology.NodeID, k int) [][]topology.NodeID {
	idxGroups := t.clusterizeIndices(nodes, k)
	out := make([][]topology.NodeID, len(idxGroups))
	for gi, idxs := range idxGroups {
		for _, i := range idxs {
			out[gi] = append(out[gi], nodes[i])
		}
	}
	return out
}

func (t *Tree) clusterizeIndices(nodes []topology.NodeID, k int) [][]int {
	n := len(nodes)
	if n <= 3*k-1 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
	unassigned := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		unassigned[i] = true
	}
	var groups [][]int
	order := t.rng.Perm(n)
	for _, seed := range order {
		if !unassigned[seed] {
			continue
		}
		if len(unassigned) < 2*k {
			break // leave the remainder for redistribution below
		}
		row := t.Oracle.Row(nodes[seed])
		// k nearest unassigned nodes including the seed.
		cands := make([]int, 0, len(unassigned))
		for i := range unassigned {
			cands = append(cands, i)
		}
		sort.Slice(cands, func(a, b int) bool {
			da, db := row[nodes[cands[a]]], row[nodes[cands[b]]]
			if da != db {
				return da < db
			}
			return cands[a] < cands[b]
		})
		group := cands[:k]
		groups = append(groups, append([]int(nil), group...))
		for _, i := range group {
			delete(unassigned, i)
		}
	}
	// Distribute the remainder (< 2k nodes) to their nearest groups with
	// room (< 3k−1 members); create a final group if none has room.
	var rest []int
	for i := range unassigned {
		rest = append(rest, i)
	}
	sort.Ints(rest)
	for _, i := range rest {
		row := t.Oracle.Row(nodes[i])
		bestG, bestD := -1, 0.0
		for gi, g := range groups {
			if len(g) >= 3*k-1 {
				continue
			}
			d := row[nodes[g[0]]]
			if bestG < 0 || d < bestD {
				bestG, bestD = gi, d
			}
		}
		if bestG < 0 {
			groups = append(groups, []int{i})
			continue
		}
		groups[bestG] = append(groups[bestG], i)
	}
	return groups
}

// Placement returns a copy of the current query → processor map.
func (t *Tree) Placement() map[string]topology.NodeID {
	out := make(map[string]topology.NodeID, len(t.placement))
	for q, p := range t.placement {
		out[q] = p
	}
	return out
}

// ProcessorLoads returns the current per-processor query load. Loads are
// accumulated in sorted query order: float addition is not associative, so
// a map-order sum would drift bit-for-bit across runs.
//
//lint:deadcode load oracle of TestProcessorLoads, TestRemoveSurvivesAdapt and sim's pinnedChurnDigest
func (t *Tree) ProcessorLoads() map[topology.NodeID]float64 {
	out := make(map[topology.NodeID]float64, len(t.procCap))
	for p := range t.procCap {
		out[p] = 0
	}
	names := make([]string, 0, len(t.placement))
	for q := range t.placement {
		names = append(names, q)
	}
	sort.Strings(names)
	for _, q := range names {
		out[t.placement[q]] += t.queries[q].Load
	}
	return out
}

// Package querygraph implements the query graph QG = {Vq, Eq, Wq} of the
// paper's graph-mapping model (§3.1.2) and the coarsening procedure of
// Algorithm 1.
//
// A query graph has two vertex kinds: q-vertices representing (groups of)
// continuous queries, weighted by estimated CPU load, and n-vertices
// representing network nodes (data sources and user proxies), weighted zero.
// Edges carry estimated data rates: source edges (query pulls substreams
// from a source), result edges (query pushes its result stream to a proxy),
// and overlap edges between queries with shared data interest — the model
// component that makes the mapping aware of Pub/Sub communication sharing.
//
// Every edge weight is derivable from vertex content (interest bit vectors,
// per-substream rates, result-rate maps), which is what lets coarsening
// re-estimate edges exactly and lets parents compute cross-subtree overlap
// edges between coarse vertices submitted by different children.
//
// # Representation
//
// Adjacency is CSR-style: each vertex's edges are a []Adj run sorted by
// neighbor ID, laid out over one shared backing array. ComputeEdges builds a
// whole graph's runs at once (layoutCSR, two counting passes, no comparison
// sort); only ConnectVertex patches individual runs in place, falling back to
// a private allocation when a run outgrows its span. The mapping algorithms
// therefore iterate dense slices, never hash maps.
//
// Edge estimation is one index-driven kernel (estimate): the graph maintains
// inverted indexes from substream to interested vertices, from source node to
// the vertices representing it, and from proxy node to the vertices sending
// results to it, and one walk over a vertex's interest enumerates only the
// candidates that can have nonzero weight — vertices sharing a substream, a
// source, or a proxy — instead of evaluating all O(|V|²) pairs. ComputeEdges
// and ConnectVertex run it; coarsening reads it, or the overlap walk of
// ForEachOverlap, per visited vertex and materializes no adjacency but the
// coarse graph's. The literal all-pairs construction lives on as the oracle
// of the package equivalence tests; the kernel reproduces its weights
// bit-for-bit.
package querygraph

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/topology"
)

// ClusterUnknown marks an n-vertex not covered by any child cluster of the
// current coordinator.
const ClusterUnknown = -1

// QueryInfo is the leaf-granularity description of one continuous query as
// the distribution machinery sees it.
type QueryInfo struct {
	Name       string
	Proxy      topology.NodeID
	Load       float64        // CPU time per unit time on a ci=1 processor
	Interest   *bitvec.Vector // substream interest
	ResultRate float64        // result stream rate, bytes/sec
	StateSize  float64        // operator state size, for migration cost
}

// Vertex is a (possibly coarsened) query-graph vertex. A q-vertex has
// Queries and no Nodes; an n-vertex has Nodes. Coarsening never merges a
// q-vertex with an n-vertex.
type Vertex struct {
	ID     int
	Weight float64 // total query load; 0 for pure n-vertices

	// Nodes are the network nodes this vertex represents (n-vertex part).
	Nodes []topology.NodeID
	// Clu is the network-graph vertex index this vertex is pinned to by
	// the network constraint, or ClusterUnknown. For n-vertices covered
	// by a child cluster this is the child's index; for external nodes
	// (sources or proxies outside the coordinator's subtree) it is the
	// index of a zero-capability anchor vertex in the network graph.
	Clu int

	// Queries are the constituent queries (q-vertex part).
	Queries []QueryInfo
	// Interest is the union of constituent queries' interest vectors.
	Interest *bitvec.Vector
	// ResultRates aggregates result-stream rate per proxy node.
	ResultRates map[topology.NodeID]float64
	// StateSize is the total operator state of constituent queries.
	StateSize float64

	// Tag names the coordinator holding the finer-grained expansion of
	// this vertex (§3.4).
	Tag string
	// Key identifies the vertex within its tagging coordinator's
	// expansion registry. (Tag, Key) is globally unique and survives
	// cloning across graphs.
	Key string
	// Grain is the granularity level of the vertex: 0 for an atomic
	// single-query vertex, L for a vertex produced by the coarsening of
	// a level-L coordinator. A level-L coordinator works on vertices of
	// grain <= L-1.
	Grain int
	// Dirty marks vertices already picked for remapping in the current
	// adaptation round (Algorithm 3).
	Dirty bool

	// scan caches the interest's set-bit indices when sparse, cutting a
	// pairwise demand evaluation from a full word scan to O(popcount)
	// bit tests. Built lazily on first use; Interest must not be mutated
	// afterwards (graph construction never does — merged vertices get
	// fresh Interest unions).
	scan interestScan
	// nscan caches per-node compact source indexes (see Graph.nodeSrcs).
	nscan nodeScan
}

type nodeScan struct {
	built bool
	src   []int32
}

// sparseMax bounds the popcount up to which a vertex caches its interest
// indices; denser interests use the word-parallel scan.
const sparseMax = 192

type interestScan struct {
	built bool
	idx   []int32 // set-bit indices; nil when dense (or no interest)
	// lo/hi bound the nonzero words of the interest, so dense overlap
	// scans cover only the span intersection.
	lo, hi int32
}

// ensureScan builds the cached scan info: the word span always, the set-bit
// index list only when the interest is sparse.
func (v *Vertex) ensureScan() *interestScan {
	if !v.scan.built {
		v.scan.built = true
		if v.Interest != nil {
			words := v.Interest.Words()
			lo, hi := -1, 0
			n := 0
			for wi, w := range words {
				if w != 0 {
					if lo < 0 {
						lo = wi
					}
					hi = wi + 1
					n += bits.OnesCount64(w)
				}
			}
			if lo < 0 {
				lo = 0
			}
			v.scan.lo, v.scan.hi = int32(lo), int32(hi)
			if n <= sparseMax {
				idx := make([]int32, 0, n)
				for wi := lo; wi < hi; wi++ {
					w := words[wi]
					for w != 0 {
						idx = append(idx, int32(wi<<6+bits.TrailingZeros64(w)))
						w &= w - 1
					}
				}
				v.scan.idx = idx
			}
		}
	}
	return &v.scan
}

// nodeSrcs returns, per entry of v.Nodes, the compact source index of that
// node (or -1), cached on the vertex. It keeps demand evaluation free of
// map lookups. Valid because a vertex only ever lives in graphs sharing one
// substream space.
func (g *Graph) nodeSrcs(v *Vertex) []int32 {
	if !v.nscan.built {
		v.nscan.built = true
		if len(v.Nodes) > 0 {
			arr := make([]int32, len(v.Nodes))
			for i, node := range v.Nodes {
				if si, ok := g.srcIdxOfNode[node]; ok {
					arr[i] = si
				} else {
					arr[i] = -1
				}
			}
			v.nscan.src = arr
		}
	}
	return v.nscan.src
}

// Clone returns a copy of the vertex suitable for insertion into another
// graph. Immutable content (interest vector, query list, node list) is
// shared; the result-rate map is copied because coarsening mutates it.
func (v *Vertex) Clone() *Vertex {
	c := *v
	c.Nodes = append([]topology.NodeID(nil), v.Nodes...)
	if v.ResultRates != nil {
		c.ResultRates = make(map[topology.NodeID]float64, len(v.ResultRates))
		for n, r := range v.ResultRates {
			c.ResultRates[n] = r
		}
	}
	return &c
}

// IsN reports whether the vertex has an n-vertex component, which pins its
// mapping target.
func (v *Vertex) IsN() bool { return len(v.Nodes) > 0 }

// Adj is one adjacency entry.
type Adj struct {
	To int
	W  float64
}

// Space holds the substream statistics shared by every query graph of one
// distribution task: per-substream rates and origins plus the derived
// source-node indexes. Building it is O(#substreams); the coordinator
// hierarchy builds it once and shares it across all per-coordinator graphs
// (it is immutable apart from in-place SubRates perturbation, which the
// graphs read live).
type Space struct {
	// SubRates is the per-substream rate vector (bytes/sec). The slice is
	// retained, and callers may perturb rates in place between rounds.
	SubRates []float64
	// SourceOfSub maps each substream index to its origin node.
	SourceOfSub []topology.NodeID

	// subsByNode caches, per origin node, the substream indices it
	// originates, as a bit vector for fast demand computation;
	// subsBySrc is the same data keyed by compact source index.
	subsByNode map[topology.NodeID]*bitvec.Vector
	subsBySrc  []*bitvec.Vector
	// srcIdxOfSub maps a substream to the compact index of its origin in
	// srcNodes; srcIdxOfNode is the node-keyed inverse.
	srcIdxOfSub  []int32
	srcNodes     []topology.NodeID
	srcIdxOfNode map[topology.NodeID]int32
}

// NumSources returns the number of distinct source nodes.
func (s *Space) NumSources() int { return len(s.srcNodes) }

// SourceNode returns the node of compact source index si.
func (s *Space) SourceNode(si int) topology.NodeID { return s.srcNodes[si] }

// MarkSources sets seen[si] for every compact source index si whose node
// originates a substream the interest is set on. seen must have length
// NumSources; it accumulates across calls, letting callers collect the
// referenced sources of many vertices without per-vertex allocations.
func (s *Space) MarkSources(interest *bitvec.Vector, seen []bool) {
	if interest == nil {
		return
	}
	for wi, w := range interest.Words() {
		for w != 0 {
			b := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if b >= len(s.srcIdxOfSub) {
				break
			}
			seen[s.srcIdxOfSub[b]] = true
		}
	}
}

// NewSpace indexes the substream statistics. SubRates and SourceOfSub must
// have equal length; both slices are retained, not copied.
func NewSpace(subRates []float64, sourceOfSub []topology.NodeID) (*Space, error) {
	if len(subRates) != len(sourceOfSub) {
		return nil, fmt.Errorf("querygraph: %d rates but %d substream sources",
			len(subRates), len(sourceOfSub))
	}
	s := &Space{
		SubRates:     subRates,
		SourceOfSub:  sourceOfSub,
		subsByNode:   make(map[topology.NodeID]*bitvec.Vector),
		srcIdxOfSub:  make([]int32, len(sourceOfSub)),
		srcIdxOfNode: make(map[topology.NodeID]int32),
	}
	for i, n := range sourceOfSub {
		si, ok := s.srcIdxOfNode[n]
		if !ok {
			si = int32(len(s.srcNodes))
			s.srcIdxOfNode[n] = si
			s.srcNodes = append(s.srcNodes, n)
			v := bitvec.New(len(sourceOfSub))
			s.subsByNode[n] = v
			s.subsBySrc = append(s.subsBySrc, v)
		}
		s.srcIdxOfSub[i] = si
		s.subsByNode[n].Set(i)
	}
	return s, nil
}

// Graph is a query graph plus the stream statistics needed to (re)estimate
// its edge weights.
type Graph struct {
	*Space

	Vertices []*Vertex
	// adj holds one sorted-by-To adjacency run per vertex. After
	// layoutCSR all runs alias one shared backing array (capped with
	// three-index slices so in-place patches never bleed into a sibling
	// run).
	adj [][]Adj

	idx *invIndex // inverted indexes: built on first use, then maintained
	sc  *scratch  // reusable per-graph scratch for index traversals

	// free lists the slots of removed vertices. AddVertex reuses them
	// (newest first) before growing the arrays, so sustained
	// insert/remove churn keeps Vertices, adj and the callers' parallel
	// assignment arrays bounded by the peak population instead of the
	// cumulative insertion count.
	free []int
}

// invIndex is the inverted-index bundle enabling candidate-pair enumeration.
// Once ensureIndex has built it, it is a maintained structure: every mutator
// keeps it current (AddVertex, AddQVertex and AddNVertex post the new
// vertex's content, RemoveVertex and ShrinkVertex forget what the vertex
// lost), and only ComputeEdges' wholesale reset drops it. While it is nil —
// a graph being filled before its first use — mutators pay nothing.
//
// Every posting is a run of vertex IDs in ascending order. That order is an
// invariant, not a convenience: ForEachOverlap visits vertices in posting
// order, which is the float summation order of its consumers, so a maintained
// index must read exactly like one rebuilt from scratch. It stores vertex IDs
// only — edge weights always read rates live — so in-place SubRates
// perturbation never stales it.
type invIndex struct {
	// interested: substream -> IDs of vertices whose Interest has the bit.
	// ensureIndex carves the runs of interested and bySrc from one backing
	// array each, capped with three-index slices like adj: a run that
	// outgrows its cap reallocates alone.
	interested [][]int32
	// bySrc: compact-source -> IDs of vertices interested in at least one
	// substream of that source.
	bySrc [][]int32
	// vertsOfSrc: compact-source -> IDs of vertices whose Nodes contain
	// the source node (the source-node index).
	vertsOfSrc [][]int32
	// vertsOfNode: node -> IDs of vertices whose Nodes contain it; used
	// to resolve result edges toward proxies (the proxy-node index, from
	// the query side).
	vertsOfNode map[topology.NodeID][]int32
	// resultTo: node -> IDs of vertices whose ResultRates target it (the
	// proxy-node index, from the node side).
	resultTo map[topology.NodeID][]int32
}

// scratch bundles epoch-stamped work arrays so hot paths run allocation-
// free. A Graph is not safe for concurrent use.
type scratch struct {
	epoch    int32
	stamp    []int32   // per-vertex: candidate already collected this epoch
	accMark  []int32   // per-vertex: acc[v] valid this epoch
	acc      []float64 // per-vertex overlap-weight accumulator
	srcStamp []int32   // per-source: srcAcc[si] valid this epoch
	srcAcc   []float64 // per-source: the estimated vertex's rate from it
	cands    []int
}

func (g *Graph) scratchFor(nVerts int) *scratch {
	if g.sc == nil {
		g.sc = &scratch{}
	}
	sc := g.sc
	if len(sc.stamp) < nVerts {
		sc.stamp = make([]int32, nVerts)
		sc.accMark = make([]int32, nVerts)
		sc.acc = make([]float64, nVerts)
	}
	if len(sc.srcStamp) < len(g.srcNodes) {
		sc.srcStamp = make([]int32, len(g.srcNodes))
		sc.srcAcc = make([]float64, len(g.srcNodes))
	}
	sc.bump()
	return sc
}

// bump starts a new stamp epoch. Stamps only ever hold positive epochs, so
// when the int32 counter overflows (to negative, not zero) the arrays are
// cleared and the epoch restarts at 1 — old stamps can never collide.
func (sc *scratch) bump() {
	sc.epoch++
	if sc.epoch <= 0 {
		for i := range sc.stamp {
			sc.stamp[i], sc.accMark[i] = 0, 0
		}
		for i := range sc.srcStamp {
			sc.srcStamp[i] = 0
		}
		sc.epoch = 1
	}
}

// New returns an empty query graph over the given substream statistics.
// SubRates and SourceOfSub must have equal length.
func New(subRates []float64, sourceOfSub []topology.NodeID) (*Graph, error) {
	s, err := NewSpace(subRates, sourceOfSub)
	if err != nil {
		return nil, err
	}
	return NewOnSpace(s), nil
}

// NewOnSpace returns an empty query graph sharing an existing substream
// space, skipping the O(#substreams) space construction. The coordinator
// hierarchy uses it to amortize one Space across every per-coordinator
// graph of a distribution pass.
func NewOnSpace(s *Space) *Graph {
	return &Graph{Space: s}
}

// AddNVertex adds a pure n-vertex for a network node, pinned to network-
// graph vertex clu.
func (g *Graph) AddNVertex(node topology.NodeID, clu int) *Vertex {
	v := &Vertex{
		Nodes: []topology.NodeID{node},
		Clu:   clu,
	}
	return g.install(len(g.Vertices), v)
}

// AddQVertex adds a q-vertex for a single query.
func (g *Graph) AddQVertex(q QueryInfo) *Vertex {
	v := &Vertex{
		Weight:      q.Load,
		Clu:         ClusterUnknown,
		Queries:     []QueryInfo{q},
		Interest:    q.Interest.Clone(),
		ResultRates: map[topology.NodeID]float64{q.Proxy: q.ResultRate},
		StateSize:   q.StateSize,
	}
	return g.install(len(g.Vertices), v)
}

// AddVertex adds a prebuilt (e.g. coarsened, received-from-child) vertex,
// reassigning its ID. A slot freed by RemoveVertex is reused before the
// arrays grow; either way a built inverted index gains the vertex's content
// in place, at its sorted position.
func (g *Graph) AddVertex(v *Vertex) *Vertex {
	id := len(g.Vertices)
	if n := len(g.free); n > 0 {
		id = g.free[n-1]
		g.free = g.free[:n-1]
	}
	return g.install(id, v)
}

// install puts v in slot id — a freed slot, or len(g.Vertices) to grow the
// arrays — and posts its content to a built index.
func (g *Graph) install(id int, v *Vertex) *Vertex {
	v.ID = id
	if id == len(g.Vertices) {
		g.Vertices = append(g.Vertices, v)
		g.adj = append(g.adj, nil)
	} else {
		g.Vertices[id] = v
		g.adj[id] = g.adj[id][:0]
	}
	g.indexPost(v)
	return v
}

// sparseOverlap sums rates over the indices whose bit is set in o —
// ascending, matching OverlapWeightedSum's summation order exactly.
func sparseOverlap(idx []int32, o *bitvec.Vector, rates []float64) float64 {
	words := o.Words()
	var s float64
	for _, b := range idx {
		if wi := int(b) >> 6; wi < len(words) && words[wi]&(1<<(uint(b)&63)) != 0 {
			s += rates[b]
		}
	}
	return s
}

// demand is the rate q requests from the sources among n's nodes: per node,
// q's rate from that node's substreams, summed in node order. estimate reads
// the estimated vertex's side of it from its own walk; this pairwise form
// serves the other side.
func (g *Graph) demand(q, n *Vertex) float64 {
	if q.Interest == nil || len(n.Nodes) == 0 {
		return 0
	}
	var w float64
	sq := q.ensureScan()
	for _, si := range g.nodeSrcs(n) {
		if si < 0 {
			continue
		}
		subs := g.subsBySrc[si]
		if sq.idx != nil {
			w += sparseOverlap(sq.idx, subs, g.SubRates)
		} else {
			w += q.Interest.OverlapWeightedSumRange(subs, g.SubRates, int(sq.lo), int(sq.hi))
		}
	}
	return w
}

func resultTo(q, n *Vertex) float64 {
	if len(q.ResultRates) == 0 || len(n.Nodes) == 0 {
		return 0
	}
	var w float64
	for _, node := range n.Nodes {
		w += q.ResultRates[node]
	}
	return w
}

// ensureIndex returns the inverted indexes, building them from the current
// vertex set when none are live. The build is the only O(|V|) step: from
// then on indexPost and indexForget keep the postings current.
func (g *Graph) ensureIndex() *invIndex {
	if g.idx != nil {
		return g.idx
	}
	nSub := len(g.SubRates)
	nSrc := len(g.srcNodes)
	idx := &invIndex{
		vertsOfSrc:  make([][]int32, nSrc),
		vertsOfNode: make(map[topology.NodeID][]int32),
		resultTo:    make(map[topology.NodeID][]int32),
	}
	// Counting pass sizing the runs of the two carved indexes. srcSeen
	// de-duplicates a vertex's substreams per source; it doubles as the
	// fill-pass stamp.
	subN := make([]int32, nSub)
	srcN := make([]int32, nSrc)
	srcSeen := make([]int32, nSrc)
	for i := range srcSeen {
		srcSeen[i] = -1
	}
	for i, v := range g.Vertices {
		if v == nil || v.Interest == nil {
			continue
		}
		for wi, w := range v.Interest.Words() {
			for w != 0 {
				s := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if s >= nSub {
					break
				}
				subN[s]++
				if si := g.srcIdxOfSub[s]; srcSeen[si] != int32(i) {
					srcSeen[si] = int32(i)
					srcN[si]++
				}
			}
		}
	}
	idx.interested = carveRuns(subN)
	idx.bySrc = carveRuns(srcN)
	for i := range srcSeen {
		srcSeen[i] = -1
	}
	// Fill pass in ascending vertex order: every ID lands at the end of its
	// run, inside the carved capacity, so every run is sorted.
	for i, v := range g.Vertices {
		if v == nil || v.Interest == nil {
			continue
		}
		id := int32(i)
		for wi, w := range v.Interest.Words() {
			for w != 0 {
				s := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if s >= nSub {
					break
				}
				idx.interested[s] = append(idx.interested[s], id)
				if si := g.srcIdxOfSub[s]; srcSeen[si] != id {
					srcSeen[si] = id
					idx.bySrc[si] = append(idx.bySrc[si], id)
				}
			}
		}
	}
	for i, v := range g.Vertices {
		if v != nil {
			idx.postRoles(g.Space, int32(i), v)
		}
	}
	g.idx = idx
	return idx
}

// carveRuns lays one empty run per count out over a single backing array,
// each capped at its count so a later insert reallocates that run alone.
func carveRuns(counts []int32) [][]int32 {
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	pool := make([]int32, total)
	runs := make([][]int32, len(counts))
	off := 0
	for i, c := range counts {
		end := off + int(c)
		runs[i] = pool[off:off:end]
		off = end
	}
	return runs
}

// eachSub calls fn for every set bit of interest below the substream space
// bound, ascending, with the compact index of the substream's source.
func (g *Graph) eachSub(interest *bitvec.Vector, fn func(s int, si int32)) {
	if interest == nil {
		return
	}
	for wi, w := range interest.Words() {
		for w != 0 {
			s := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if s >= len(g.SubRates) {
				return
			}
			fn(s, g.srcIdxOfSub[s])
		}
	}
}

// sortedInsert adds id to an ascending run, keeping it ascending; a run that
// already holds id is returned unchanged.
func sortedInsert(ids []int32, id int32) []int32 {
	n := len(ids)
	// Fast paths: ascending insertion (additions that grow the vertex
	// array), where a vertex posts to a source's run once per bit.
	if n == 0 || ids[n-1] < id {
		return append(ids, id)
	}
	if ids[n-1] == id {
		return ids
	}
	k, found := slices.BinarySearch(ids, id)
	if found {
		return ids
	}
	return slices.Insert(ids, k, id)
}

// sortedDelete removes id from an ascending run, in place; a run without id
// is returned unchanged.
func sortedDelete(ids []int32, id int32) []int32 {
	k, found := slices.BinarySearch(ids, id)
	if !found {
		return ids
	}
	return slices.Delete(ids, k, k+1)
}

// indexPost adds vertex v's content — interest bits, node roles, result-edge
// keys — to a built index under v.ID. No-op while no index is built.
func (g *Graph) indexPost(v *Vertex) {
	idx := g.idx
	if idx == nil {
		return
	}
	id := int32(v.ID)
	g.eachSub(v.Interest, func(s int, si int32) {
		idx.interested[s] = sortedInsert(idx.interested[s], id)
		idx.bySrc[si] = sortedInsert(idx.bySrc[si], id)
	})
	idx.postRoles(g.Space, id, v)
}

// postRoles posts v's node roles and result-edge keys under id — the part of
// a vertex's content the build and indexPost index the same way (a build
// visits vertices in ascending order, so every insert is an append).
func (idx *invIndex) postRoles(sp *Space, id int32, v *Vertex) {
	for _, node := range v.Nodes {
		if si, ok := sp.srcIdxOfNode[node]; ok {
			idx.vertsOfSrc[si] = sortedInsert(idx.vertsOfSrc[si], id)
		}
		idx.vertsOfNode[node] = sortedInsert(idx.vertsOfNode[node], id)
	}
	for node := range v.ResultRates {
		//lint:maporder one insert per (node, id) pair into that node's own sorted run; inserts on distinct keys commute
		idx.resultTo[node] = sortedInsert(idx.resultTo[node], id)
	}
}

// indexForget removes from a built index what vertex id loses when its
// content goes from old to kept, a subset of old (the empty vertex when id is
// removed outright): interest bits kept no longer has, sources no kept bit
// originates from, and node roles and result-edge keys kept dropped. No-op
// while no index is built.
func (g *Graph) indexForget(id int32, old, kept *Vertex) {
	idx := g.idx
	if idx == nil {
		return
	}
	keepSrc := make([]bool, len(g.srcNodes))
	g.MarkSources(kept.Interest, keepSrc)
	g.eachSub(old.Interest, func(s int, si int32) {
		if kept.Interest == nil || !kept.Interest.Test(s) {
			idx.interested[s] = sortedDelete(idx.interested[s], id)
		}
		if !keepSrc[si] {
			idx.bySrc[si] = sortedDelete(idx.bySrc[si], id)
		}
	})
	for _, node := range old.Nodes {
		if slices.Contains(kept.Nodes, node) {
			continue
		}
		if si, ok := g.srcIdxOfNode[node]; ok {
			idx.vertsOfSrc[si] = sortedDelete(idx.vertsOfSrc[si], id)
		}
		forgetKeyed(idx.vertsOfNode, node, id)
	}
	for node := range old.ResultRates {
		if _, still := kept.ResultRates[node]; !still {
			//lint:maporder one delete per (node, id) pair from that node's own sorted run; deletes on distinct keys commute
			forgetKeyed(idx.resultTo, node, id)
		}
	}
}

// forgetKeyed deletes id from a node-keyed posting, dropping the key with its
// last entry so the map holds exactly the keys a rebuild would.
func forgetKeyed(m map[topology.NodeID][]int32, node topology.NodeID, id int32) {
	if rest := sortedDelete(m[node], id); len(rest) == 0 {
		delete(m, node)
	} else {
		m[node] = rest
	}
}

// edge is one undirected edge u–v of weight w, as estimate emits it.
type edge struct {
	u, v int32
	w    float64
}

// estimate appends to edges every positive-weight edge of vertex u, each
// evaluated from content in the model's term grouping
//
//	overlap(u,v) + (demand(u→v) + demand(v→u)) + (result(u→v) + result(v→u))
//
// — the one edge estimator ComputeEdges, ConnectVertex and coarsening share.
// One walk over u's interest, in ascending substream order, accumulates the
// overlap rate of every vertex sharing a substream (per candidate exactly
// OverlapWeightedSum's summation order), sums u's rate per origin source, from
// which demand(u→v) is read, and collects the vertices representing those
// sources. Result and reverse-demand candidates come from the proxy and
// source postings of u's result keys and nodes; demand(v→u) is evaluated
// pairwise, and is zero unless u has nodes. A candidate v is skipped when
// v == u, when its slot is empty, or when class is non-nil and
// class[v] != class[u]: a non-nil class admits only u's own class, before
// any weight is computed.
//
// Candidates are collected in posting and result-map order, so the edges
// come out in no particular order: every consumer lays them out through
// layoutCSR or a sorted insert, or keeps a maximum, none of which sees that
// order.
func (g *Graph) estimate(u int, class []int, edges []edge) []edge {
	idx := g.ensureIndex()
	sc := g.scratchFor(len(g.Vertices))
	uv := g.Vertices[u]
	sc.stamp[u] = sc.epoch // never its own candidate
	cu := 0
	if class != nil {
		cu = class[u]
	}
	if uv.Interest != nil {
		for wi, w := range uv.Interest.Words() {
			for w != 0 {
				s := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if s >= len(g.SubRates) {
					break
				}
				r := g.SubRates[s]
				si := g.srcIdxOfSub[s]
				if sc.srcStamp[si] != sc.epoch {
					sc.srcStamp[si] = sc.epoch
					sc.srcAcc[si] = 0
					sc.collect(idx.vertsOfSrc[si], class, cu)
				}
				sc.srcAcc[si] += r
				for _, vv := range idx.interested[s] {
					v := int(vv)
					if v == u || class != nil && class[v] != cu {
						continue
					}
					if sc.accMark[v] != sc.epoch {
						sc.accMark[v] = sc.epoch
						sc.acc[v] = 0
						if sc.stamp[v] != sc.epoch {
							sc.stamp[v] = sc.epoch
							sc.cands = append(sc.cands, v)
						}
					}
					sc.acc[v] += r
				}
			}
		}
	}
	for node := range uv.ResultRates {
		sc.collect(idx.vertsOfNode[node], class, cu)
	}
	usrc := g.nodeSrcs(uv)
	for k, node := range uv.Nodes {
		if si := usrc[k]; si >= 0 {
			sc.collect(idx.bySrc[si], class, cu)
		}
		sc.collect(idx.resultTo[node], class, cu)
	}
	for _, v := range sc.cands {
		vv := g.Vertices[v]
		if vv == nil {
			continue
		}
		var w, du float64
		if sc.accMark[v] == sc.epoch {
			w += sc.acc[v]
		}
		// demand(u→v): u's per-source rates over v's nodes, in node order.
		for _, si := range g.nodeSrcs(vv) {
			if si >= 0 && sc.srcStamp[si] == sc.epoch {
				du += sc.srcAcc[si]
			}
		}
		w += du + g.demand(vv, uv)
		w += resultTo(uv, vv) + resultTo(vv, uv)
		if w > 0 {
			edges = append(edges, edge{int32(u), int32(v), w})
		}
	}
	sc.cands = sc.cands[:0]
	return edges
}

// collect appends to the candidates the vertices of a posting not collected
// yet this epoch, skipping those a non-nil class puts outside class cu.
func (sc *scratch) collect(ids []int32, class []int, cu int) {
	for _, vv := range ids {
		v := int(vv)
		if sc.stamp[v] == sc.epoch || class != nil && class[v] != cu {
			continue
		}
		sc.stamp[v] = sc.epoch
		sc.cands = append(sc.cands, v)
	}
}

// buildScratch is what one graph build uses only while it runs: estimate's
// edge list and layoutCSR's prefix sums, cursors and buckets. A build puts
// it back in buildPool before returning, and the graph keeps none of it.
type buildScratch struct {
	edges    []edge
	off, cur []int32
	byTo     []Adj
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// layoutCSR lays undirected edges, each pair listed once and in any order,
// out as one adjacency run per vertex over a single backing array, every run
// sorted by neighbor ID. Two counting passes do it in O(V+E): the half-edges
// are bucketed by neighbor, then scattered into their rows bucket by bucket,
// so each row fills in ascending neighbor order. Only the returned runs are
// fresh memory; the arrays the passes work in are b's.
func (b *buildScratch) layoutCSR(edges []edge, V int) [][]Adj {
	// A vertex has as many half-edges into it as out of it, so one prefix
	// sum bounds both the buckets and the rows. Pooled counts start stale.
	off := slices.Grow(b.off[:0], V+1)[:V+1]
	clear(off)
	for _, e := range edges {
		off[e.u+1]++
		off[e.v+1]++
	}
	for i := 0; i < V; i++ {
		off[i+1] += off[i]
	}
	cur := slices.Grow(b.cur[:0], V)[:V]
	copy(cur, off[:V])
	byTo := slices.Grow(b.byTo[:0], int(off[V]))[:off[V]] // bucket t holds the half-edges into t, To naming their row
	b.off, b.cur, b.byTo = off, cur, byTo
	for _, e := range edges {
		byTo[cur[e.v]] = Adj{To: int(e.u), W: e.w}
		cur[e.v]++
		byTo[cur[e.u]] = Adj{To: int(e.v), W: e.w}
		cur[e.u]++
	}
	copy(cur, off[:V])
	pool := make([]Adj, off[V])
	for t := 0; t < V; t++ {
		for _, h := range byTo[off[t]:off[t+1]] {
			pool[cur[h.To]] = Adj{To: t, W: h.W}
			cur[h.To]++
		}
	}
	adj := make([][]Adj, V)
	for i := range adj {
		adj[i] = pool[off[i]:off[i+1]:off[i+1]]
	}
	return adj
}

// ComputeEdges materializes the full edge set from vertex content, replacing
// any existing edges: estimate over every vertex, each pair once from its
// lower ID, then one CSR layout. The result is identical (bit-for-bit) to the
// all-pairs construction (see the package equivalence tests).
func (g *Graph) ComputeEdges() {
	g.idx = nil // vertex content may have changed wholesale; rebuild
	// Class 0 is still to estimate, 1 done: each vertex admits only the
	// vertices above it.
	done := make([]int, len(g.Vertices))
	b := buildPool.Get().(*buildScratch)
	edges := b.edges[:0]
	for u, v := range g.Vertices {
		if v != nil {
			edges = g.estimate(u, done, edges)
			done[u] = 1
		}
	}
	g.adj = b.layoutCSR(edges, len(g.Vertices))
	b.edges = edges
	buildPool.Put(b)
}

// setEdge installs (or updates) the undirected edge i–j, keeping both runs
// sorted. Appends reuse a run's own span when possible and reallocate
// privately when it is full, so shared-backing runs never overlap.
func (g *Graph) setEdge(i, j int, w float64) {
	g.adj[i] = insertAdj(g.adj[i], j, w)
	g.adj[j] = insertAdj(g.adj[j], i, w)
}

// searchAdj returns the insertion point of `to` in a sorted run — a
// hand-rolled sort.Search that avoids the per-probe closure call.
func searchAdj(run []Adj, to int) int {
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if run[mid].To < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func insertAdj(run []Adj, to int, w float64) []Adj {
	n := len(run)
	// Fast path: strictly ascending insertion (bulk builds).
	if n == 0 || run[n-1].To < to {
		return append(run, Adj{To: to, W: w})
	}
	k := searchAdj(run, to)
	if k < n && run[k].To == to {
		run[k].W = w
		return run
	}
	run = append(run, Adj{})
	copy(run[k+1:], run[k:])
	run[k] = Adj{To: to, W: w}
	return run
}

// removeAdj deletes the entry for `to` from run, in place.
func removeAdj(run []Adj, to int) []Adj {
	k := searchAdj(run, to)
	if k == len(run) || run[k].To != to {
		return run
	}
	copy(run[k:], run[k+1:])
	return run[:len(run)-1]
}

func (g *Graph) deleteVertexEdges(i int) {
	for _, e := range g.adj[i] {
		g.adj[e.To] = removeAdj(g.adj[e.To], i)
	}
	g.adj[i] = g.adj[i][:0]
}

// Neighbors returns vertex i's adjacency run, sorted by neighbor ID.
// Callers must not modify it, and must not retain it across graph
// mutations.
func (g *Graph) Neighbors(i int) []Adj { return g.adj[i] }

// ConnectVertex computes and installs the edges between vertex v (already
// added to the graph, with no edges yet) and every other vertex — the
// incremental step of online query insertion (§3.6) and of ShrinkVertex.
func (g *Graph) ConnectVertex(v *Vertex) {
	b := buildPool.Get().(*buildScratch)
	b.edges = g.estimate(v.ID, nil, b.edges[:0])
	for _, e := range b.edges {
		g.setEdge(int(e.u), int(e.v), e.w)
	}
	buildPool.Put(b)
}

// ForEachOverlap visits every vertex whose Interest shares at least one
// substream with iv, passing the shared weighted rate (the overlap-edge
// weight a query with interest iv would have toward that vertex). It is the
// online-routing primitive: cost is proportional to the index postings
// touched, not to |V|.
func (g *Graph) ForEachOverlap(iv *bitvec.Vector, fn func(vertex int, w float64)) {
	if iv == nil {
		return
	}
	idx := g.ensureIndex()
	sc := g.scratchFor(len(g.Vertices))
	touched := sc.cands[:0]
	for wi, w := range iv.Words() {
		for w != 0 {
			s := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if s >= len(g.SubRates) {
				break
			}
			r := g.SubRates[s]
			for _, vv := range idx.interested[s] {
				v := int(vv)
				if sc.accMark[v] != sc.epoch {
					sc.accMark[v] = sc.epoch
					sc.acc[v] = 0
					touched = append(touched, v)
				}
				sc.acc[v] += r
			}
		}
	}
	for _, v := range touched {
		fn(v, sc.acc[v])
	}
	sc.cands = touched[:0]
}

// RemoveVertex deletes vertex id from the graph — the teardown primitive of
// online query removal. Its edges are detached, the slot is niled (other
// vertices keep their IDs, so parallel assignment arrays stay aligned), and
// the ID is deleted from every posting its content appeared in, so index
// consumers (ForEachOverlap, ConnectVertex) never surface the dead slot.
// Returns the removed vertex (nil if the slot was already empty).
func (g *Graph) RemoveVertex(id int) *Vertex {
	if id < 0 || id >= len(g.Vertices) {
		return nil
	}
	v := g.Vertices[id]
	if v == nil {
		return nil
	}
	g.deleteVertexEdges(id)
	g.indexForget(int32(id), v, &Vertex{})
	g.Vertices[id] = nil
	g.free = append(g.free, id)
	return v
}

// ShrinkVertex replaces vertex id with nv — a vertex with strictly reduced
// content (queries removed from a merged vertex): nv's interest bits,
// result-rate keys and node list must be subsets of the old vertex's (node
// lists equal, in practice, since coarsening never merges a query-bearing
// vertex with an n-vertex). The inverted indexes forget
// exactly the content delta, and the vertex's incident edges are
// re-estimated from the new content against the index's candidates — the
// removal counterpart of ConnectVertex. nv is installed with ID id.
func (g *Graph) ShrinkVertex(id int, nv *Vertex) {
	old := g.Vertices[id]
	g.deleteVertexEdges(id)
	if old != nil {
		g.indexForget(int32(id), old, nv)
	}
	nv.ID = id
	g.Vertices[id] = nv
	g.ConnectVertex(nv)
}

// DropOverlapEdges removes every query-query edge, leaving only source and
// result edges — the ablation of the paper's communication-sharing model
// component (Table 2's scheme-2-versus-scheme-3 distinction).
//
//lint:deadcode ablation switch of the root BenchmarkAblationOverlapEdges
func (g *Graph) DropOverlapEdges() {
	// A q-q edge has two non-N endpoints, so filtering every non-N run of
	// its non-N entries removes both directions.
	for i, u := range g.Vertices {
		if u == nil || u.IsN() {
			continue
		}
		run := g.adj[i]
		kept := run[:0]
		for _, e := range run {
			if v := g.Vertices[e.To]; v != nil && v.IsN() {
				kept = append(kept, e)
			}
		}
		g.adj[i] = kept
	}
}

// AdjacencyLists returns the dense adjacency runs, sorted by neighbor ID,
// suitable for the mapping algorithms. The returned slices alias the
// graph's own representation: callers must treat them as read-only and must
// not retain them across graph mutations.
func (g *Graph) AdjacencyLists() [][]Adj { return g.adj }

// TotalQueryLoad returns Σ Wq over q-vertices.
func (g *Graph) TotalQueryLoad() float64 {
	var s float64
	for _, v := range g.Vertices {
		if v != nil {
			s += v.Weight
		}
	}
	return s
}

// CoarsenOptions tunes Algorithm 1.
type CoarsenOptions struct {
	// VMax is the target vertex count.
	VMax int
	// Rng drives random vertex selection; nil seeds a fixed PCG.
	Rng *rand.Rand
	// CanMerge, when non-nil, adds an extra admissibility constraint on
	// candidate pairs. The hierarchy's placement restore uses it to only
	// merge vertices currently placed on the same processor, so that
	// coarse-level warm starts introduce no spurious migrations.
	CanMerge func(u, v *Vertex) bool
}

func (o CoarsenOptions) withDefaults() CoarsenOptions {
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewPCG(13, 1313))
	}
	if o.VMax <= 0 {
		o.VMax = 1
	}
	return o
}

// CoarsenResult is the outcome of one Coarsen call.
type CoarsenResult struct {
	Graph *Graph
	// FineToCoarse maps fine vertex ID -> coarse vertex ID, an empty fine
	// slot (RemoveVertex) to -1 whether or not a round collapsed.
	FineToCoarse []int
	// CoarseToFine maps coarse vertex ID -> fine vertex IDs, no empty slot.
	CoarseToFine [][]int
}

// collapse merges u and v (Algorithm 1 lines 8–14) into a fresh vertex.
func collapse(u, v *Vertex) *Vertex {
	w := &Vertex{
		Weight:    u.Weight + v.Weight,
		StateSize: u.StateSize + v.StateSize,
		Clu:       ClusterUnknown,
		Tag:       u.Tag,
	}
	w.Nodes = append(append([]topology.NodeID(nil), u.Nodes...), v.Nodes...)
	w.Queries = append(append([]QueryInfo(nil), u.Queries...), v.Queries...)
	switch {
	case u.Interest != nil && v.Interest != nil:
		w.Interest = u.Interest.Clone()
		_ = w.Interest.Or(v.Interest) // lengths equal within one graph
	case u.Interest != nil:
		w.Interest = u.Interest.Clone()
	case v.Interest != nil:
		w.Interest = v.Interest.Clone()
	}
	if len(u.ResultRates)+len(v.ResultRates) > 0 {
		w.ResultRates = make(map[topology.NodeID]float64, len(u.ResultRates)+len(v.ResultRates))
		for n, r := range u.ResultRates {
			//lint:maporder map keys are unique, so each w entry is written once per source map — u's value then v's; no order-dependent accumulation
			w.ResultRates[n] += r
		}
		for n, r := range v.ResultRates {
			//lint:maporder map keys are unique, so each w entry is written once per source map — u's value then v's; no order-dependent accumulation
			w.ResultRates[n] += r
		}
	}
	// w.clu = is_n(u) ? u.clu : v.clu (Algorithm 1 line 14). Coarsen
	// merges only vertices of one kind, so v is an n-vertex only if u is.
	if u.IsN() {
		w.Clu = u.Clu
	}
	if w.Tag == "" {
		w.Tag = v.Tag
	}
	return w
}

// Coarsen runs Algorithm 1: repeatedly collapse heavy-edge-matched vertex
// pairs until at most VMax query-bearing vertices remain. A query-bearing
// vertex is never merged with an n-vertex, and n-vertices from different
// clusters (or with unknown cluster) are never merged, because they must map
// to different network-graph vertices.
//
// Matching reads no adjacency. Each round indexes its vertex set once, and a
// visited vertex asks that index for its heaviest admissible unmatched
// partner; a vertex merged during the round is matched for the rest of it,
// so the postings that still name its slot are skipped, and the next round
// indexes the merged content. Only the returned graph gets edges, from one
// ComputeEdges, and it keeps the index that built them. The receiver's
// edges are never read — a graph without ComputeEdges coarsens the same —
// and the receiver is not modified.
func (g *Graph) Coarsen(opts CoarsenOptions) *CoarsenResult {
	opts = opts.withDefaults()
	cur := &Graph{Space: g.Space, Vertices: slices.Clone(g.Vertices)}
	fineToCur := make([]int, len(g.Vertices))
	for i, v := range g.Vertices {
		fineToCur[i] = i
		if v == nil {
			fineToCur[i] = -1
		}
	}
	// count tallies live (non-merged) query-bearing vertices: n-vertices
	// stay outside the VMax budget. Merged-away slots are nil.
	count := func(gr *Graph) int {
		n := 0
		for _, v := range gr.Vertices {
			if v != nil && len(v.Queries) > 0 {
				n++
			}
		}
		return n
	}

	b := buildPool.Get().(*buildScratch)
	for count(cur) > opts.VMax {
		n := len(cur.Vertices)
		order := opts.Rng.Perm(n)
		merges, collapses := 0, 0
		live := count(cur)
		// class[i] is the match class of slot i, ClusterUnknown once it is
		// matched; into[j] the slot j was merged into this round (j itself
		// if none). A merged-into slot is matched, so it is never merged
		// away in the same round and into needs no chasing.
		class := make([]int, n)
		into := make([]int, n)
		for i, v := range cur.Vertices {
			class[i] = matchClass(v)
			into[i] = i
		}

		for _, ui := range order {
			if live <= opts.VMax {
				break
			}
			if class[ui] == ClusterUnknown {
				continue
			}
			best := cur.partner(ui, class, opts.CanMerge, b)
			class[ui] = ClusterUnknown
			if best < 0 {
				continue
			}
			u, v := cur.Vertices[ui], cur.Vertices[best]
			merged := collapse(u, v)
			merged.ID = ui
			cur.Vertices[ui] = merged
			cur.Vertices[best] = nil
			class[best] = ClusterUnknown
			into[best] = ui
			collapses++
			// A merge reduces the counted vertex set only when both
			// halves were counted (both query-bearing).
			if len(u.Queries) > 0 && len(v.Queries) > 0 {
				merges++
				live--
			}
		}
		// Compact after any collapse, counted or not: the next round's
		// graph drops the slots the merges emptied, renumbers the rest in
		// slot order, and indexes them on first use.
		if collapses > 0 {
			next := &Graph{Space: g.Space, Vertices: make([]*Vertex, 0, n-collapses)}
			newID := make([]int, n)
			for i, v := range cur.Vertices {
				newID[i] = -1
				if v != nil {
					newID[i], v.ID = len(next.Vertices), len(next.Vertices)
					next.Vertices = append(next.Vertices, v)
				}
			}
			for f, c := range fineToCur {
				if c >= 0 {
					fineToCur[f] = newID[into[c]]
				}
			}
			cur = next
		}
		if merges == 0 {
			break // nothing counted was mergeable (all blocked by constraints)
		}
	}
	buildPool.Put(b)
	cur.ComputeEdges()

	res := &CoarsenResult{
		Graph:        cur,
		FineToCoarse: fineToCur,
		CoarseToFine: make([][]int, len(cur.Vertices)),
	}
	for fine, coarse := range fineToCur {
		if coarse >= 0 {
			res.CoarseToFine[coarse] = append(res.CoarseToFine[coarse], fine)
		}
	}
	return res
}

// queryClass is the match class every vertex without nodes shares.
const queryClass = -2

// matchClass returns the class of the vertices v may merge with in Coarsen:
// queryClass for a vertex without nodes, its cluster for one with nodes, and
// ClusterUnknown — merging with nothing — for an empty slot or a vertex with
// nodes outside every known cluster. A query never merges into an n-vertex,
// because the hierarchy rebuilds n-vertices at every level and ships only
// query-bearing ones; n-vertices merge only within one known cluster
// (Algorithm 1 line 6), because they must map to one network-graph vertex.
func matchClass(v *Vertex) int {
	switch {
	case v == nil:
		return ClusterUnknown
	case v.IsN():
		return v.Clu
	default:
		return queryClass
	}
}

// partner returns u's heaviest partner among the vertices of its class that
// canMerge admits (Algorithm 1 lines 5–7), the lowest ID among equal
// weights, or -1 when none has a positive weight. A vertex without nodes
// only pairs with vertices without nodes, and the weight of such a pair is
// its overlap alone (estimate adds demand and result terms of exactly 0 to
// it), so ForEachOverlap supplies those weights; a vertex with nodes takes
// estimate's, over its class only.
func (g *Graph) partner(u int, class []int, canMerge func(u, v *Vertex) bool, b *buildScratch) int {
	best, bestW := -1, 0.0
	consider := func(v int, w float64) {
		if v != u && class[v] == class[u] && (w > bestW || w == bestW && best >= 0 && v < best) &&
			(canMerge == nil || canMerge(g.Vertices[u], g.Vertices[v])) {
			best, bestW = v, w
		}
	}
	if uv := g.Vertices[u]; !uv.IsN() {
		g.ForEachOverlap(uv.Interest, consider)
		return best
	}
	b.edges = g.estimate(u, class, b.edges[:0])
	for _, e := range b.edges {
		consider(int(e.v), e.w)
	}
	return best
}

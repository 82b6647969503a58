package hierarchy

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapping"
	"repro/internal/netgraph"
	"repro/internal/querygraph"
	"repro/internal/topology"
)

// Report summarizes a full initial distribution for Fig 6(b): response time
// is the critical path through the tree (subtrees work in parallel in a
// real deployment); total time sums the work of every coordinator.
type Report struct {
	ResponseTime time.Duration
	TotalTime    time.Duration
}

// Distribute performs the initial hierarchical query distribution
// (§3.4–3.5): leaf coordinators build and coarsen query graphs over their
// local queries, submissions propagate to the root, and mapping descends
// level by level, uncoarsening one level per step, until every query is
// assigned to a processor.
//
// subRates and sourceOfSub describe the global substream space; the slices
// are retained (not copied) so that callers can perturb rates in place
// between adaptation rounds, as the experiments do.
func (t *Tree) Distribute(queries []querygraph.QueryInfo, subRates []float64, sourceOfSub []topology.NodeID) (*Report, error) {
	if err := t.resetDistribution(queries, subRates, sourceOfSub); err != nil {
		return nil, err
	}
	d := descent{assign: func(_ *Coordinator, _ *querygraph.Graph, m *mapping.Mapper) (mapping.Assignment, error) {
		return m.Map()
	}}
	if err := t.run(queries, d, true); err != nil {
		return nil, err
	}
	return t.timingReport(), nil
}

// descent is the policy of one top-down pass over the coordinator tree
// (§3.5, §3.7). Distribute, DistributeRandom, DistributeWith and Adapt run
// the same pass and differ only in this value.
type descent struct {
	// assign maps coordinator c's coarse graph g onto c's targets; m is
	// the Algorithm 2 mapper over g.
	assign func(c *Coordinator, g *querygraph.Graph, m *mapping.Mapper) (mapping.Assignment, error)
	// canMerge, when non-nil, restricts which vertices coarsening may
	// merge, on the way up and on the way down.
	canMerge func(u, v *querygraph.Vertex) bool
	// atomicLeaves keeps queries unmerged at leaf coordinators.
	atomicLeaves bool
}

// run rebuilds the query-graph hierarchy bottom-up over queries (§3.4) and
// descends it from the root under d. With parallel, sibling subtrees
// descend over bounded workers (Workers: 1 is the sequential descent).
func (t *Tree) run(queries []querygraph.QueryInfo, d descent, parallel bool) error {
	for _, c := range t.All {
		c.expand = make(map[string][]*querygraph.Vertex)
		c.keySeq = 0
	}
	rootIncoming, err := t.upwardPass(queries, d.canMerge)
	if err != nil {
		return err
	}
	var sem chan struct{}
	if parallel && t.Cfg.Workers > 1 {
		sem = make(chan struct{}, t.Cfg.Workers-1)
	}
	return t.descend(t.Root, rootIncoming, d, sem)
}

// resetDistribution installs the substream statistics and clears all
// coordinator state for a fresh distribution pass.
func (t *Tree) resetDistribution(queries []querygraph.QueryInfo, subRates []float64,
	sourceOfSub []topology.NodeID) error {
	space, err := querygraph.NewSpace(subRates, sourceOfSub)
	if err != nil {
		return fmt.Errorf("hierarchy: %w", err)
	}
	t.sourceOfSub = sourceOfSub
	t.space = space
	t.placement = make(map[string]topology.NodeID, len(queries))
	t.queries = make(map[string]querygraph.QueryInfo, len(queries))
	for _, c := range t.All {
		c.graph, c.ng, c.assign, c.loads = nil, nil, nil, nil
		c.byQuery = nil
		c.upTime, c.downTime = 0, 0
	}
	return nil
}

// DistributeRandom builds the query-graph hierarchy normally but assigns
// coarse vertices uniformly at random during the descent, modelling the
// random initial allocation under inaccurate a-priori statistics of Fig 7.
// Coordinator state stays fully consistent, so Adapt can repair it. The
// descent is sequential: the draws from the one RNG follow the depth-first
// visit order.
func (t *Tree) DistributeRandom(queries []querygraph.QueryInfo, subRates []float64,
	sourceOfSub []topology.NodeID, seed uint64) error {
	if err := t.resetDistribution(queries, subRates, sourceOfSub); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	d := descent{assign: func(c *Coordinator, g *querygraph.Graph, _ *mapping.Mapper) (mapping.Assignment, error) {
		a := make(mapping.Assignment, len(g.Vertices))
		n := c.assignableCount()
		for vi, v := range g.Vertices {
			if v.IsN() {
				a[vi] = v.Clu
				continue
			}
			a[vi] = rng.IntN(n)
		}
		return a, nil
	}}
	return t.run(queries, d, false)
}

// DistributeWith installs an explicit query placement and builds
// consistent coordinator state over it, so that later Adapt rounds and
// insertions start from that placement. It is a test harness for fixed
// starting placements. The placement is restored exactly: every coarsening
// step only merges vertices placed on the same processor, queries stay
// atomic at the leaves, and every vertex is warm-started where its queries
// are.
//
//lint:deadcode test harness: installs the fixed placements of hierarchy's TestAdaptOnExactlyBalancedCluster and sim's TestAdaptConvergesFromRandom and TestAdaptRebalancesSkewedLoad
func (t *Tree) DistributeWith(queries []querygraph.QueryInfo, subRates []float64,
	sourceOfSub []topology.NodeID, placeAt func(q querygraph.QueryInfo) topology.NodeID) error {
	if err := t.resetDistribution(queries, subRates, sourceOfSub); err != nil {
		return err
	}
	for _, q := range queries {
		proc := placeAt(q)
		if _, ok := t.procCap[proc]; !ok {
			return fmt.Errorf("hierarchy: placement of %s targets non-processor %d", q.Name, proc)
		}
		t.placement[q.Name] = proc
	}
	return t.run(queries, descent{assign: t.warmAssign, canMerge: t.samePlacedProc, atomicLeaves: true}, true)
}

// upwardPass runs the bottom-up query-graph hierarchy construction (§3.4).
// canMerge optionally constrains coarsening.
//
// Coordinators of one level are independent (each works on its own
// submissions with its own seeded RNG), so every level runs its graph
// builds and coarsenings across bounded workers, the coordinator with the
// most submissions first; results are appended to the parents in the fixed
// coordinator order, making the outcome identical to the sequential pass.
func (t *Tree) upwardPass(queries []querygraph.QueryInfo,
	canMerge func(u, v *querygraph.Vertex) bool) ([]*querygraph.Vertex, error) {
	// Group queries by the leaf coordinator of their proxy.
	byLeaf := make(map[*Coordinator][]*querygraph.Vertex)
	for _, q := range queries {
		leaf, ok := t.leafOf[q.Proxy]
		if !ok {
			return nil, fmt.Errorf("hierarchy: query %s has non-processor proxy %d", q.Name, q.Proxy)
		}
		t.queries[q.Name] = q
		byLeaf[leaf] = append(byLeaf[leaf], atomVertex(q))
	}
	submissions := make(map[*Coordinator][]*querygraph.Vertex)
	for _, leaf := range t.Leaves {
		submissions[leaf] = byLeaf[leaf]
	}
	if t.Root.Level == 1 {
		return submissions[t.Root], nil
	}
	byLevel := t.coordinatorsByLevel()
	for level := 1; level < t.Root.Level; level++ {
		cs := byLevel[level]
		outs := make([][]*querygraph.Vertex, len(cs))
		errs := make([]error, len(cs))
		order := largestFirst(len(cs), func(i int) int { return len(submissions[cs[i]]) })
		t.forEachParallel(len(cs), func(j int) {
			i := order[j]
			c := cs[i]
			start := time.Now() //lint:nondeterminism wall-clock instrumentation: upTime only feeds timing reports, never a decision
			out, err := t.coarsenAndRegister(c, submissions[c], canMerge)
			c.upTime = time.Since(start) //lint:nondeterminism wall-clock instrumentation: upTime only feeds timing reports, never a decision
			outs[i], errs[i] = out, err
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for i, c := range cs {
			submissions[c.Parent] = append(submissions[c.Parent], outs[i]...)
		}
	}
	return submissions[t.Root], nil
}

// forEachParallel runs fn(0..n-1) across at most Cfg.Workers goroutines,
// inline when parallelism is off.
func (t *Tree) forEachParallel(n int, fn func(int)) {
	workers := t.Cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// largestFirst returns 0..n-1 ordered by size, largest first, ties in index
// order. Handing the largest job out first keeps one worker from running
// the two largest back to back while the others idle.
func largestFirst(n int, size func(i int) int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return size(b) - size(a) })
	return order
}

func atomVertex(q querygraph.QueryInfo) *querygraph.Vertex {
	return &querygraph.Vertex{
		Weight:      q.Load,
		Clu:         querygraph.ClusterUnknown,
		Queries:     []querygraph.QueryInfo{q},
		Interest:    q.Interest,
		ResultRates: map[topology.NodeID]float64{q.Proxy: q.ResultRate},
		StateSize:   q.StateSize,
		Key:         "q:" + q.Name,
		Grain:       0,
	}
}

func (t *Tree) coordinatorsByLevel() map[int][]*Coordinator {
	out := make(map[int][]*Coordinator)
	for _, c := range t.All {
		out[c.Level] = append(out[c.Level], c)
	}
	return out
}

// coarsenAndRegister builds c's working graph over the incoming vertices,
// coarsens it, registers expansions, and returns the query-bearing coarse
// vertices to submit to the parent.
func (t *Tree) coarsenAndRegister(c *Coordinator, incoming []*querygraph.Vertex,
	canMerge func(u, v *querygraph.Vertex) bool) ([]*querygraph.Vertex, error) {
	prep, err := t.prepare(c, incoming)
	if err != nil {
		return nil, err
	}
	res := prep.g.Coarsen(querygraph.CoarsenOptions{
		VMax:     t.Cfg.VMax,
		Rng:      t.coordRng(c),
		CanMerge: canMerge,
	})
	var out []*querygraph.Vertex
	for ci, v := range res.Graph.Vertices {
		if len(v.Queries) == 0 {
			continue
		}
		// Snapshot the fine constituents as clones before register
		// mutates the coarse vertex: an unmerged vertex is the same
		// object in both graphs, and registering it in place would
		// otherwise make it its own (infinite) expansion.
		fines := make([]*querygraph.Vertex, 0, len(res.CoarseToFine[ci]))
		for _, fi := range res.CoarseToFine[ci] {
			fv := prep.g.Vertices[fi]
			if len(fv.Queries) > 0 {
				fines = append(fines, fv.Clone())
			}
		}
		c.register(v, fines)
		out = append(out, v)
	}
	return out, nil
}

// register tags a coarse vertex with this coordinator's identity and
// records its one-level expansion.
func (c *Coordinator) register(v *querygraph.Vertex, fines []*querygraph.Vertex) {
	v.Tag = c.Name
	v.Key = fmt.Sprintf("%s#%d", c.Name, c.keySeq)
	v.Grain = c.Level
	c.keySeq++
	c.expand[v.Key] = fines
}

// coordRng returns a deterministic per-coordinator RNG so coarsening is
// stable across rounds for unchanged graphs.
func (t *Tree) coordRng(c *Coordinator) *rand.Rand {
	var h uint64 = 1469598103934665603
	for _, b := range []byte(c.Name) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return rand.New(rand.NewPCG(t.Cfg.Seed^h, h))
}

// prepared bundles a coordinator's working query graph.
type prepared struct {
	g *querygraph.Graph
	// work are the query-bearing clones, in graph order.
	work []*querygraph.Vertex
}

// prepare builds c's working query graph: clones of the incoming query-
// bearing vertices plus n-vertices for every node they reference (proxies
// from result-rate maps, sources from interest vectors), each pinned to the
// covering child or to its anchor in c's fixed network graph. It computes no
// edges: Coarsen matches on the graph's index and gives only the coarse
// graph it returns its edges.
func (t *Tree) prepare(c *Coordinator, incoming []*querygraph.Vertex) (*prepared, error) {
	if err := t.ensureNG(c); err != nil {
		return nil, err
	}
	g := querygraph.NewOnSpace(t.space)
	prep := &prepared{g: g}

	referenced := make(map[topology.NodeID]bool)
	seenSrc := make([]bool, t.space.NumSources())
	for _, v := range incoming {
		cv := v.Clone()
		g.AddVertex(cv)
		prep.work = append(prep.work, cv)
		for proxy := range cv.ResultRates {
			referenced[proxy] = true
		}
		t.space.MarkSources(cv.Interest, seenSrc)
	}
	for si, ok := range seenSrc {
		if ok {
			referenced[t.space.SourceNode(si)] = true
		}
	}

	nodes := make([]topology.NodeID, 0, len(referenced))
	for n := range referenced {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		pin, ok := c.pinOf(n)
		if !ok {
			return nil, fmt.Errorf("hierarchy: %s has no pin for node %d", c.Name, n)
		}
		g.AddNVertex(n, pin)
	}
	return prep, nil
}

// ensureNG lazily builds the coordinator's fixed network graph: children
// clusters (or member processors at a leaf) first, then zero-capability
// anchors for every data source and every foreign processor. Building it
// once keeps target indices stable across distribution, insertion and
// adaptation.
func (t *Tree) ensureNG(c *Coordinator) error {
	if c.ng != nil {
		return nil
	}
	var verts []netgraph.Vertex
	if c.IsLeaf() {
		for _, p := range c.Procs {
			verts = append(verts, netgraph.Vertex{
				Node:       p,
				Capability: t.procCap[p],
				Members:    []topology.NodeID{p},
			})
		}
	} else {
		for _, ch := range c.Children {
			verts = append(verts, netgraph.Vertex{
				Node:       ch.Node,
				Capability: ch.Capability,
				Members:    ch.Members,
			})
		}
	}
	c.anchorIdx = make(map[topology.NodeID]int)
	addAnchor := func(n topology.NodeID) {
		if _, dup := c.anchorIdx[n]; dup || c.memberSet[n] {
			return
		}
		c.anchorIdx[n] = len(verts)
		verts = append(verts, netgraph.Vertex{Node: n})
	}
	seen := make(map[topology.NodeID]bool)
	for _, src := range t.sourceOfSub {
		if !seen[src] {
			seen[src] = true
			addAnchor(src)
		}
	}
	procs := make([]topology.NodeID, 0, len(t.procCap))
	for p := range t.procCap {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	for _, p := range procs {
		addAnchor(p)
	}
	ng, err := netgraph.New(verts, t.Oracle)
	if err != nil {
		return fmt.Errorf("hierarchy: %s network graph: %w", c.Name, err)
	}
	c.ng = ng
	return nil
}

// pinOf resolves the network-graph target a node is pinned to at this
// coordinator: a child (or member processor) or an anchor.
func (c *Coordinator) pinOf(n topology.NodeID) (idx int, ok bool) {
	if i, covered := c.childOfNode[n]; covered {
		return i, true
	}
	if i, anchored := c.anchorIdx[n]; anchored {
		return i, true
	}
	return 0, false
}

// assignableCount returns the number of load-hosting targets (children or
// member processors), which occupy the first indices of the network graph.
func (c *Coordinator) assignableCount() int {
	if c.IsLeaf() {
		return len(c.Procs)
	}
	return len(c.Children)
}

// descend assigns the incoming vertices at coordinator c under d and
// recurses into the children with their uncoarsened shares (§3.5, §3.7).
// With a non-nil sem, child recursions fan out over goroutines bounded by
// the semaphore's capacity, largest share first, running inline when no
// slot is free; with a nil sem they all run inline, in the depth-first
// index order DistributeRandom's one RNG draws in. Sibling
// subtrees are independent: shares are disjoint, per-coordinator RNGs are
// self-seeded, and the placement reads of the warm start and of
// samePlacedProc touch only the descending subtree's own entries. placeMu
// guards the shared placement map; everything else a branch writes is
// per-coordinator state of its own subtree.
func (t *Tree) descend(c *Coordinator, incoming []*querygraph.Vertex, d descent, sem chan struct{}) error {
	start := time.Now() //lint:nondeterminism wall-clock instrumentation: downTime only feeds timing reports, never a decision

	// Expand to this coordinator's working granularity.
	work, err := t.expandAll(incoming, c.Level-1)
	if err != nil {
		return err
	}
	prep, err := t.prepare(c, work)
	if err != nil {
		return err
	}
	// Coarsen reads the loads refreshWeights sums; the edges it builds
	// depend only on interests, rates and result rates.
	t.refreshWeights(prep.g)
	opts := querygraph.CoarsenOptions{
		VMax:     t.Cfg.VMax,
		Rng:      t.coordRng(c),
		CanMerge: d.canMerge,
	}
	if d.atomicLeaves && c.IsLeaf() {
		opts.VMax = len(prep.g.Vertices) + 1
	}
	res := prep.g.Coarsen(opts)
	m := mapping.NewMapper(res.Graph, c.ng, mapping.Options{Rng: t.coordRng(c)})
	assign, err := d.assign(c, res.Graph, m)
	if err != nil {
		return fmt.Errorf("hierarchy: %s mapping: %w", c.Name, err)
	}
	t.setState(c, res.Graph, assign)

	// Split the fine working vertices by assigned child.
	shares := make([][]*querygraph.Vertex, c.assignableCount())
	for ci, v := range res.Graph.Vertices {
		if len(v.Queries) == 0 {
			continue
		}
		k := assign[ci]
		if k < 0 || k >= len(shares) {
			return fmt.Errorf("hierarchy: %s: coarse vertex %d assigned to non-child target %d", c.Name, ci, k)
		}
		for _, fi := range res.CoarseToFine[ci] {
			fv := prep.g.Vertices[fi]
			if len(fv.Queries) > 0 {
				shares[k] = append(shares[k], fv)
			}
		}
	}
	c.downTime = time.Since(start) //lint:nondeterminism wall-clock instrumentation: downTime only feeds timing reports, never a decision

	if c.IsLeaf() {
		t.placeMu.Lock()
		for k, share := range shares {
			proc := c.ng.Vertices[k].Node
			for _, v := range share {
				for _, q := range v.Queries {
					t.placement[q.Name] = proc
				}
			}
		}
		t.placeMu.Unlock()
		return nil
	}
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	record := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	order := largestFirst(len(shares), func(k int) int { return len(shares[k]) })
	if sem == nil {
		slices.Sort(order)
	}
	for _, k := range order {
		share := shares[k]
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(k int, share []*querygraph.Vertex) {
				defer wg.Done()
				err := t.descend(c.Children[k], share, d, sem)
				<-sem
				record(err)
			}(k, share)
		default:
			// No free worker slot, or no sem (a nil channel never accepts):
			// recurse inline rather than blocking.
			record(t.descend(c.Children[k], share, d, sem))
		}
	}
	wg.Wait()
	return firstErr
}

// setState records the mapped graph as the coordinator's current state for
// online insertion, removal and the next adaptation round.
func (t *Tree) setState(c *Coordinator, g *querygraph.Graph, assign mapping.Assignment) {
	c.graph = g
	c.assign = assign
	c.loads = mapping.Loads(g, c.ng, assign)
	c.byQuery = make(map[string]int)
	for id, v := range g.Vertices {
		if v == nil {
			continue
		}
		for _, q := range v.Queries {
			c.byQuery[q.Name] = id
		}
	}
}

// expandAll expands every vertex until its grain is at most maxGrain, using
// the tagging coordinators' expansion registries.
func (t *Tree) expandAll(verts []*querygraph.Vertex, maxGrain int) ([]*querygraph.Vertex, error) {
	var out []*querygraph.Vertex
	var rec func(v *querygraph.Vertex) error
	rec = func(v *querygraph.Vertex) error {
		if v.Grain <= maxGrain {
			out = append(out, v)
			return nil
		}
		owner, ok := t.byName[v.Tag]
		if !ok {
			return fmt.Errorf("hierarchy: vertex %s tagged by unknown coordinator %q", v.Key, v.Tag)
		}
		fines, ok := owner.expand[v.Key]
		if !ok {
			// No finer detail; treat as atomic at this grain.
			out = append(out, v)
			return nil
		}
		for _, f := range fines {
			if err := rec(f); err != nil {
				return err
			}
		}
		return nil
	}
	for _, v := range verts {
		if err := rec(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// timingReport aggregates coordinator phase times into response (critical
// path) and total time.
func (t *Tree) timingReport() *Report {
	var total time.Duration
	for _, c := range t.All {
		total += c.upTime + c.downTime
	}
	var up func(c *Coordinator) time.Duration
	up = func(c *Coordinator) time.Duration {
		var maxChild time.Duration
		for _, ch := range c.Children {
			if d := up(ch); d > maxChild {
				maxChild = d
			}
		}
		return maxChild + c.upTime
	}
	var down func(c *Coordinator) time.Duration
	down = func(c *Coordinator) time.Duration {
		var maxChild time.Duration
		for _, ch := range c.Children {
			if d := down(ch); d > maxChild {
				maxChild = d
			}
		}
		return maxChild + c.downTime
	}
	return &Report{
		ResponseTime: up(t.Root) + down(t.Root),
		TotalTime:    total,
	}
}

package hierarchy

import (
	"fmt"
	"math/rand/v2"
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
	return t.distribute(queries, subRates, sourceOfSub, nil)
}

// assignFunc overrides the per-coordinator mapping decision during a
// descent (nil selects Algorithm 2 via mapping.Mapper.Map).
type assignFunc func(c *Coordinator, g *querygraph.Graph, m *mapping.Mapper) (mapping.Assignment, error)

func (t *Tree) distribute(queries []querygraph.QueryInfo, subRates []float64,
	sourceOfSub []topology.NodeID, assignFn assignFunc) (*Report, error) {
	if err := t.resetDistribution(queries, subRates, sourceOfSub); err != nil {
		return nil, err
	}

	rootIncoming, err := t.upwardPass(queries, nil)
	if err != nil {
		return nil, err
	}
	// Downward pass from the root. Sibling subtrees are independent, so
	// the recursion fans out over bounded workers — except when an
	// assignFn override is installed, whose closures (e.g. the shared RNG
	// of DistributeRandom) require the sequential visit order.
	var sem chan struct{}
	if assignFn == nil && t.Cfg.Workers > 1 {
		sem = make(chan struct{}, t.Cfg.Workers-1)
	}
	if err := t.descend(t.Root, rootIncoming, assignFn, sem); err != nil {
		return nil, err
	}
	return t.timingReport(), nil
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
		c.expand = make(map[string][]*querygraph.Vertex)
		c.keySeq = 0
		c.graph, c.ng, c.assign, c.loads = nil, nil, nil, nil
		c.byQuery = nil
		c.upTime, c.downTime = 0, 0
	}
	return nil
}

// DistributeRandom builds the query-graph hierarchy normally but assigns
// coarse vertices uniformly at random during the descent, modelling the
// random initial allocation under inaccurate a-priori statistics of Fig 7.
// Coordinator state stays fully consistent, so Adapt can repair it.
func (t *Tree) DistributeRandom(queries []querygraph.QueryInfo, subRates []float64,
	sourceOfSub []topology.NodeID, seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	assignFn := func(c *Coordinator, g *querygraph.Graph, m *mapping.Mapper) (mapping.Assignment, error) {
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
	}
	_, err := t.distribute(queries, subRates, sourceOfSub, assignFn)
	return err
}

// DistributeWith installs an explicit query placement (e.g. random, for the
// inaccurate-statistics experiment of Fig 7, or an external baseline) and
// builds consistent coordinator state so that later Adapt rounds and
// insertions can improve on it. The placement is restored exactly: every
// coarsening step only merges vertices bound to the same target.
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
	// Merging is restricted to vertices placed on the same processor so
	// the forced placement survives coarsening exactly.
	canMerge := func(_ *Coordinator, u, v *querygraph.Vertex) bool {
		return t.samePlacedProc(u, v)
	}
	rootIncoming, err := t.upwardPass(queries, canMerge)
	if err != nil {
		return err
	}
	return t.descendCurrent(t.Root, rootIncoming, false, true, nil)
}

// upwardPass runs the bottom-up query-graph hierarchy construction (§3.4).
// canMerge optionally constrains coarsening per coordinator.
//
// Coordinators of one level are independent (each works on its own
// submissions with its own seeded RNG), so every level runs its graph
// builds and coarsenings across bounded workers; results are appended to
// the parents in the fixed coordinator order, making the outcome identical
// to the sequential pass.
func (t *Tree) upwardPass(queries []querygraph.QueryInfo,
	canMerge func(c *Coordinator, u, v *querygraph.Vertex) bool) ([]*querygraph.Vertex, error) {
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
		t.forEachParallel(len(cs), func(i int) {
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
	canMerge func(c *Coordinator, u, v *querygraph.Vertex) bool) ([]*querygraph.Vertex, error) {
	prep, err := t.prepare(c, incoming)
	if err != nil {
		return nil, err
	}
	opts := querygraph.CoarsenOptions{
		VMax:       t.Cfg.VMax,
		Rng:        t.coordRng(c),
		NoQN:       true,
		CountQOnly: true,
	}
	if canMerge != nil {
		opts.CanMerge = func(u, v *querygraph.Vertex) bool { return canMerge(c, u, v) }
	}
	res := prep.g.Coarsen(opts)
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
// covering child or to its anchor in c's fixed network graph. Edges are
// fully materialized.
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
		pin, assignable, ok := c.pinOf(n)
		if !ok {
			return nil, fmt.Errorf("hierarchy: %s has no pin for node %d", c.Name, n)
		}
		g.AddNVertex(n, pin, assignable)
	}
	g.ComputeEdges()
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
// coordinator, and whether that target can host query load.
func (c *Coordinator) pinOf(n topology.NodeID) (idx int, assignable bool, ok bool) {
	if i, covered := c.childOfNode[n]; covered {
		return i, true, true
	}
	if i, anchored := c.anchorIdx[n]; anchored {
		return i, false, true
	}
	return 0, false, false
}

// assignableCount returns the number of load-hosting targets (children or
// member processors), which occupy the first indices of the network graph.
func (c *Coordinator) assignableCount() int {
	if c.IsLeaf() {
		return len(c.Procs)
	}
	return len(c.Children)
}

// descend maps the incoming vertices at coordinator c and recurses into the
// children with their uncoarsened shares (§3.5). With a non-nil sem, child
// recursions fan out over goroutines bounded by the semaphore's capacity,
// running inline when no slot is free.
func (t *Tree) descend(c *Coordinator, incoming []*querygraph.Vertex, assignFn assignFunc, sem chan struct{}) error {
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
	res := prep.g.Coarsen(querygraph.CoarsenOptions{
		VMax:       t.Cfg.VMax,
		Rng:        t.coordRng(c),
		NoQN:       true,
		CountQOnly: true,
	})
	m := mapping.NewMapper(res.Graph, c.ng, mapping.Options{Alpha: t.Cfg.Alpha, Rng: t.coordRng(c)})
	var assign mapping.Assignment
	if assignFn != nil {
		assign, err = assignFn(c, res.Graph, m)
	} else {
		assign, err = m.Map()
	}
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
	if sem == nil {
		for k, share := range shares {
			if err := t.descend(c.Children[k], share, assignFn, nil); err != nil {
				return err
			}
		}
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
	for k, share := range shares {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(k int, share []*querygraph.Vertex) {
				defer wg.Done()
				err := t.descend(c.Children[k], share, assignFn, sem)
				<-sem
				record(err)
			}(k, share)
		default:
			// No free worker slot: recurse inline rather than blocking.
			record(t.descend(c.Children[k], share, assignFn, sem))
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

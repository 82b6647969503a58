package hierarchy

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/adapt"
	"repro/internal/mapping"
	"repro/internal/querygraph"
)

// AdaptReport summarizes one adaptation round (§3.7).
type AdaptReport struct {
	// Migrations counts queries whose processor changed this round.
	Migrations int
}

// Adapt runs one hierarchical adaptation round, initiated at the root and
// propagated level by level (§3.7): every coordinator refreshes statistics,
// runs the two-phase Algorithm 3 (diffusion-guided re-balance plus
// refinement) over its level, and hands each child its share — expanding
// vertices that migrated in from other subtrees via the tagging
// coordinators' registries. Queries physically migrate only at the end,
// which is when the report counts them.
//
// loadOf, when non-nil, supplies refreshed per-query load estimates (§3.8);
// stream-rate changes are picked up automatically because the tree shares
// the rate slice passed to Distribute.
func (t *Tree) Adapt(loadOf func(name string) float64) (*AdaptReport, error) {
	if t.Root.graph == nil {
		return nil, fmt.Errorf("hierarchy: no distribution state; run Distribute first")
	}
	if loadOf != nil {
		t.loadOf = loadOf
	}
	prev := t.Placement()

	// Refresh per-query load estimates (§3.8).
	if t.loadOf != nil {
		for name, q := range t.queries {
			q.Load = t.loadOf(name)
			t.queries[name] = q
		}
	}
	// Periodic query-graph propagation (§3.4): rebuild the interest-based
	// hierarchy bottom-up over the current query set, so coarse vertices
	// reflect current statistics and group structure rather than the
	// grouping frozen at initial-distribution time.
	queries := make([]querygraph.QueryInfo, 0, len(t.queries))
	for _, q := range t.queries {
		queries = append(queries, q)
	}
	sort.Slice(queries, func(i, j int) bool { return queries[i].Name < queries[j].Name })
	for _, c := range t.All {
		c.expand = make(map[string][]*querygraph.Vertex)
		c.keySeq = 0
	}
	rootIncoming, err := t.upwardPass(queries, nil)
	if err != nil {
		return nil, err
	}
	// Downward pass against the current placement. Sibling subtrees are
	// independent — shares are disjoint, per-coordinator RNGs are
	// self-seeded, and the warm-start reads of t.placement touch only the
	// descending subtree's own (pre-round) entries — so the recursion fans
	// out over bounded workers exactly like Distribute's descent
	// (Workers: 1 is the sequential descent).
	var sem chan struct{}
	if t.Cfg.Workers > 1 {
		sem = make(chan struct{}, t.Cfg.Workers-1)
	}
	if err := t.descendCurrent(t.Root, rootIncoming, true, false, sem); err != nil {
		return nil, err
	}

	rep := &AdaptReport{}
	for name, proc := range t.placement {
		if old, ok := prev[name]; ok && old != proc {
			rep.Migrations++
		}
	}
	return rep, nil
}

// descendCurrent processes one coordinator against the CURRENT placement
// and recurses. The working set comes from the parent's decisions and is
// warm-started from the current placement. With rebalance, Algorithm 3
// runs at this level; without it the warm assignment is installed verbatim
// (placement restoration). With pure, coarsening only merges vertices placed on the
// same processor so the current placement is preserved exactly.
//
// With a non-nil sem, sibling subtrees recurse concurrently over the
// semaphore's worker slots (same bounded fan-out as Distribute's descend);
// the shared tree maps (placement, queries) are then guarded by placeMu in
// the helpers that touch them, and everything else a branch writes is
// per-coordinator state of its own subtree.
func (t *Tree) descendCurrent(c *Coordinator, incoming []*querygraph.Vertex, rebalance, pure bool, sem chan struct{}) error {
	work, err := t.expandAll(incoming, c.Level-1)
	if err != nil {
		return err
	}
	prep, err := t.prepare(c, work)
	if err != nil {
		return err
	}
	// Edge weights depend on interests, rates, and result rates — not
	// on the query loads refreshWeights updates — so the edges built
	// by prepare stay valid.
	t.refreshWeights(prep.g)

	// Coarsen by interest (heavy-edge matching), as in the initial
	// distribution: interest-grouped vertices are what lets the
	// rebalance escape the local minima single-query moves cannot.
	// The per-coordinator RNG is fixed, so grouping is stable
	// across rounds and constituents of a vertex are co-located
	// from the previous round — the warm majority start is then
	// exact except right after workload changes. At the leaf,
	// queries stay atomic: the diffusion flows of Algorithm 3 are
	// small relative to coarse-chunk weights, and per-processor
	// balancing needs query granularity. In pure mode only
	// same-processor merges are allowed, preserving placement.
	opts := querygraph.CoarsenOptions{
		VMax:       t.Cfg.VMax,
		Rng:        t.coordRng(c),
		NoQN:       true,
		CountQOnly: true,
	}
	if pure {
		opts.CanMerge = t.samePlacedProc
	}
	if c.IsLeaf() {
		opts.VMax = len(prep.g.Vertices) + 1
	}
	res := prep.g.Coarsen(opts)
	g := res.Graph
	assign := make(mapping.Assignment, len(g.Vertices))
	m := mapping.NewMapper(g, c.ng, mapping.Options{Alpha: t.Cfg.Alpha, Rng: t.coordRng(c)})
	loads := make([]float64, c.ng.Len())
	for vi, v := range g.Vertices {
		assign[vi] = mapping.Unassigned
		if v.IsN() {
			assign[vi] = v.Clu
		} else if k := t.warmTarget(c, v); k >= 0 {
			assign[vi] = k
		}
		if assign[vi] >= 0 {
			loads[assign[vi]] += v.Weight
		}
	}
	for vi, v := range g.Vertices {
		if assign[vi] == mapping.Unassigned {
			assign[vi] = m.BestTarget(assign, vi, loads)
			loads[assign[vi]] += v.Weight
		}
	}
	fineShares := func(resA mapping.Assignment) ([][]*querygraph.Vertex, error) {
		shares := make([][]*querygraph.Vertex, c.assignableCount())
		for ci, v := range g.Vertices {
			if len(v.Queries) == 0 {
				continue
			}
			k := resA[ci]
			if k < 0 || k >= len(shares) {
				return nil, fmt.Errorf("hierarchy: %s: vertex %d on non-child target %d", c.Name, ci, k)
			}
			for _, fi := range res.CoarseToFine[ci] {
				fv := prep.g.Vertices[fi]
				if len(fv.Queries) > 0 {
					shares[k] = append(shares[k], fv)
				}
			}
		}
		return shares, nil
	}

	final := assign
	if rebalance {
		final, err = adapt.Rebalance(g, c.ng, assign, adapt.Options{
			Alpha: t.Cfg.Alpha,
			Rng:   t.coordRng(c),
		})
		if err != nil {
			return fmt.Errorf("hierarchy: %s: %w", c.Name, err)
		}
	}
	t.setState(c, g, final)

	shares, err := fineShares(final)
	if err != nil {
		return err
	}
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
			if err := t.descendCurrent(c.Children[k], share, rebalance, pure, nil); err != nil {
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
				err := t.descendCurrent(c.Children[k], share, rebalance, pure, sem)
				<-sem
				record(err)
			}(k, share)
		default:
			// No free worker slot: recurse inline rather than blocking.
			record(t.descendCurrent(c.Children[k], share, rebalance, pure, sem))
		}
	}
	wg.Wait()
	return firstErr
}

// samePlacedProc reports whether two query-bearing vertices are currently
// placed on the same processor (pure n-vertices merge freely). Because it
// is applied at every coarsening step, vertices stay placement-pure by
// induction and checking the first constituent suffices. placeMu guards the
// map read against concurrent leaf installs in sibling subtrees; the
// entries read here belong to this subtree and are stable for the round.
func (t *Tree) samePlacedProc(u, v *querygraph.Vertex) bool {
	if len(u.Queries) == 0 || len(v.Queries) == 0 {
		return true
	}
	t.placeMu.Lock()
	pu, okU := t.placement[u.Queries[0].Name]
	pv, okV := t.placement[v.Queries[0].Name]
	t.placeMu.Unlock()
	return okU && okV && pu == pv
}

// warmTarget returns the target index at c where the vertex's constituent
// queries currently live (load-weighted majority), or -1 when unknown.
// placeMu guards the placement reads during the parallel descent; a
// subtree's warm reads only ever see its own pre-round entries, so the
// result does not depend on sibling progress.
func (t *Tree) warmTarget(c *Coordinator, v *querygraph.Vertex) int {
	weights := make(map[int]float64)
	t.placeMu.Lock()
	defer t.placeMu.Unlock()
	for _, q := range v.Queries {
		proc, ok := t.placement[q.Name]
		if !ok {
			continue
		}
		if k, covered := c.childOfNode[proc]; covered {
			w := q.Load
			if w <= 0 {
				w = 1e-9
			}
			weights[k] += w
		}
	}
	best, bestW := -1, 0.0
	for k, w := range weights {
		if w > bestW || (w == bestW && (best < 0 || k < best)) {
			best, bestW = k, w
		}
	}
	return best
}

// refreshWeights re-estimates q-vertex weights from the installed load
// estimator (§3.8). Without an estimator, recorded loads are kept. The
// whole body runs under placeMu: it writes the shared t.queries map and
// calls the user-supplied estimator, which must not observe concurrent
// invocations from sibling subtrees.
func (t *Tree) refreshWeights(g *querygraph.Graph) {
	if t.loadOf == nil {
		return
	}
	t.placeMu.Lock()
	defer t.placeMu.Unlock()
	for _, v := range g.Vertices {
		if v == nil || len(v.Queries) == 0 {
			continue
		}
		var sum float64
		for i := range v.Queries {
			l := t.loadOf(v.Queries[i].Name)
			v.Queries[i].Load = l
			sum += l
			if q, ok := t.queries[v.Queries[i].Name]; ok {
				q.Load = l
				t.queries[v.Queries[i].Name] = q
			}
		}
		v.Weight = sum
	}
}

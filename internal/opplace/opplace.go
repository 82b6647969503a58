// Package opplace implements the operator-placement baseline of the
// prototype study (§4.2): a NiagaraCQ-style global operator graph with
// shared selections and joins, plus a network-aware greedy placement in the
// spirit of Ahmad et al. [3]. COSMOS is compared against it on plan quality
// (weighted communication cost) and optimizer running time (Fig 11).
package opplace

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/query"
	"repro/internal/topology"
)

// Operator is one vertex of the global operator graph.
type Operator struct {
	// Stream is the input stream name (sources) or a description key.
	Stream string
	// Signature is the sharing key: operators with equal signatures are
	// the same operator (NiagaraCQ-style group sharing).
	Signature string
	// Inputs and Consumers wire the DAG.
	Inputs    []*Operator
	Consumers []*Operator
	// OutRate is the estimated output rate in bytes/sec.
	OutRate float64
	// Node is the placement; Pinned operators (sources, sinks) cannot
	// move.
	Node   topology.NodeID
	Pinned bool
}

// Graph is the shared global operator graph.
type Graph struct {
	Ops []*Operator

	bySig map[string]*Operator
}

// NewGraph returns an empty operator graph.
func NewGraph() *Graph {
	return &Graph{bySig: make(map[string]*Operator)}
}

// RateModel supplies the statistics the optimizer needs.
type RateModel interface {
	// StreamRate returns a stream's raw rate in bytes/sec.
	StreamRate(name string) float64
	// SourceOf returns the node publishing a stream.
	SourceOf(name string) (topology.NodeID, bool)
	// Selectivity estimates the pass fraction of a selection
	// conjunction over a stream.
	Selectivity(streamName string, preds []query.Predicate) float64
	// JoinFactor estimates output rate of a join as a fraction of the
	// product of input rates (per byte heuristics folded in).
	JoinFactor(q *query.Query) float64
}

// shared returns the operator with the given signature, creating it with
// mk() on first use.
func (g *Graph) shared(sig string, mk func() *Operator) *Operator {
	if op, ok := g.bySig[sig]; ok {
		return op
	}
	op := mk()
	op.Signature = sig
	g.Ops = append(g.Ops, op)
	g.bySig[sig] = op
	return op
}

func connect(from, to *Operator) {
	for _, c := range from.Consumers {
		if c == to {
			return
		}
	}
	from.Consumers = append(from.Consumers, to)
	to.Inputs = append(to.Inputs, from)
}

// AddQuery expands one query into (shared) operators: a pinned source per
// stream, one selection per FROM entry carrying that alias's predicates, a
// join combining the filtered inputs, and a pinned sink at the proxy.
func (g *Graph) AddQuery(q *query.Query, proxy topology.NodeID, model RateModel) error {
	if err := q.Validate(); err != nil {
		return err
	}
	var joinInputs []*Operator
	for _, ref := range q.From {
		src, ok := model.SourceOf(ref.Stream)
		if !ok {
			return fmt.Errorf("opplace: unknown stream %q in query %s", ref.Stream, q.Name)
		}
		srcOp := g.shared("src:"+ref.Stream, func() *Operator {
			return &Operator{
				Stream:  ref.Stream,
				OutRate: model.StreamRate(ref.Stream),
				Node:    src,
				Pinned:  true,
			}
		})
		sels := q.SelectionsFor(ref.Alias)
		in := srcOp
		if len(sels) > 0 {
			sig := selectionSignature(ref.Stream, sels)
			rate := srcOp.OutRate * model.Selectivity(ref.Stream, sels)
			selOp := g.shared(sig, func() *Operator {
				return &Operator{
					Stream:  ref.Stream,
					OutRate: rate,
					Node:    src, // initial guess; movable
				}
			})
			connect(srcOp, selOp)
			in = selOp
		}
		joinInputs = append(joinInputs, in)
	}

	top := joinInputs[0]
	if len(joinInputs) > 1 {
		sig := joinSignature(q, joinInputs)
		var inRate float64
		for _, in := range joinInputs {
			inRate += in.OutRate
		}
		joinOp := g.shared(sig, func() *Operator {
			return &Operator{
				Stream:  q.Name,
				OutRate: inRate * model.JoinFactor(q),
				Node:    joinInputs[0].Node,
			}
		})
		for _, in := range joinInputs {
			connect(in, joinOp)
		}
		top = joinOp
	}

	sink := &Operator{
		Stream:  q.Name,
		OutRate: 0,
		Node:    proxy,
		Pinned:  true,
	}
	g.Ops = append(g.Ops, sink)
	connect(top, sink)
	return nil
}

func selectionSignature(streamName string, sels []query.Predicate) string {
	parts := make([]string, len(sels))
	for i, p := range sels {
		np := p.Normalize()
		parts[i] = np.Left.Col.Attr + np.Op.String() + np.Right.Lit.String()
	}
	sort.Strings(parts)
	return "sel:" + streamName + ":" + join(parts, "&")
}

func joinSignature(q *query.Query, inputs []*Operator) string {
	ins := make([]string, len(inputs))
	for i, in := range inputs {
		ins[i] = in.Signature
		if ins[i] == "" {
			ins[i] = "src:" + in.Stream
		}
	}
	sort.Strings(ins)
	preds := make([]string, 0, len(q.Where))
	for _, p := range q.JoinPredicates() {
		np := p.Normalize()
		preds = append(preds, np.Left.Col.Attr+np.Op.String()+np.Right.Col.Attr)
	}
	sort.Strings(preds)
	wins := make([]string, len(q.From))
	for i, r := range q.From {
		wins[i] = r.Stream + r.Window.String()
	}
	sort.Strings(wins)
	return "join:" + join(ins, "|") + ":" + join(preds, "&") + ":" + join(wins, ",")
}

func join(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}

// Place runs the network-aware placement: operators are visited in
// topological order and each movable operator lands on the candidate node
// minimizing Σ rate·latency to its placed neighbors; a fixed number of
// refinement sweeps then re-optimizes every operator against both inputs
// and consumers. This mirrors the two-phase optimize-then-place structure
// of the baseline systems ([12] + [3]).
func (g *Graph) Place(oracle *topology.Oracle, candidates []topology.NodeID, sweeps int) {
	if sweeps <= 0 {
		sweeps = 3
	}
	order := g.topoOrder()
	for _, op := range order {
		if op.Pinned {
			continue
		}
		op.Node = bestNode(op, oracle, candidates, false)
	}
	for s := 0; s < sweeps; s++ {
		moved := false
		for _, op := range order {
			if op.Pinned {
				continue
			}
			if n := bestNode(op, oracle, candidates, true); n != op.Node {
				op.Node = n
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

func bestNode(op *Operator, oracle *topology.Oracle, candidates []topology.NodeID, withConsumers bool) topology.NodeID {
	best := op.Node
	bestCost := math.Inf(1)
	for _, cand := range candidates {
		var cost float64
		for _, in := range op.Inputs {
			// The input feed is free when it already flows to cand
			// for another consumer — dissemination deduplicates per
			// destination node.
			if !feedsNode(in, cand, op) {
				cost += in.OutRate * oracle.Latency(in.Node, cand)
			}
		}
		if withConsumers {
			seen := make(map[topology.NodeID]bool, len(op.Consumers))
			for _, c := range op.Consumers {
				if c.Node == cand || seen[c.Node] {
					continue
				}
				seen[c.Node] = true
				cost += op.OutRate * oracle.Latency(cand, c.Node)
			}
		}
		if cost < bestCost {
			best, bestCost = cand, cost
		}
	}
	return best
}

// feedsNode reports whether producer's output already reaches node through
// a consumer other than except (or because the producer sits there).
func feedsNode(producer *Operator, node topology.NodeID, except *Operator) bool {
	if producer.Node == node {
		return true
	}
	for _, c := range producer.Consumers {
		if c != except && c.Node == node {
			return true
		}
	}
	return false
}

// topoOrder returns operators sources-first.
func (g *Graph) topoOrder() []*Operator {
	indeg := make(map[*Operator]int, len(g.Ops))
	for _, op := range g.Ops {
		indeg[op] = len(op.Inputs)
	}
	queue := make([]*Operator, 0, len(g.Ops))
	for _, op := range g.Ops {
		if indeg[op] == 0 {
			queue = append(queue, op)
		}
	}
	out := make([]*Operator, 0, len(g.Ops))
	for len(queue) > 0 {
		op := queue[0]
		queue = queue[1:]
		out = append(out, op)
		for _, c := range op.Consumers {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	return out
}

// Cost returns Σ rate·latency over operator graph edges — the plan's
// weighted communication cost. An operator's output travels once per
// DISTINCT consumer node (co-located consumers share the feed, co-located
// endpoints cost nothing), mirroring the duplicate elimination any
// dissemination substrate provides.
func (g *Graph) Cost(oracle *topology.Oracle) float64 {
	var total float64
	seen := make(map[topology.NodeID]bool, 8)
	for _, op := range g.Ops {
		clear(seen)
		for _, c := range op.Consumers {
			if c.Node == op.Node || seen[c.Node] {
				continue
			}
			seen[c.Node] = true
			total += op.OutRate * oracle.Latency(op.Node, c.Node)
		}
	}
	return total
}

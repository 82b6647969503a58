package pubsub

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
)

// This file holds the maintained posting-list index (attrindex.go, index.go)
// to the discipline PR 19 set for querygraph: after every mutation the
// maintained structure answers exactly as one built from scratch on what
// survives, and everything it kept for removed records is bounded and
// drains.

// withPruneMin runs f once with indexing forced on every population and once
// at the production threshold.
func withPruneMin(t *testing.T, f func(t *testing.T)) {
	for _, min := range []int{0, pruneMin} {
		t.Run(fmt.Sprintf("pruneMin=%d", min), func(t *testing.T) {
			old := pruneMin
			pruneMin = min
			defer func() { pruneMin = old }()
			f(t)
		})
	}
}

// shapedSub draws a subscription whose filter on "a" cycles through every
// bound shape the index must carry — closed, open, half-bounded, point,
// !=, string ==, contradictory, none — beside eqRandomSub's mixed filters on
// the other attributes, with the literal on the left now and then.
func shapedSub(r *rand.Rand, id int) *Subscription {
	s := eqRandomSub(r, id)
	lo := float64(r.IntN(21) - 10)
	hi := lo + float64(r.IntN(6))
	str := stream.StringVal("x")
	var fs []query.Predicate
	switch id % 9 {
	case 0:
		fs = []query.Predicate{filter("a", query.Ge, lo), filter("a", query.Le, hi)}
	case 1:
		fs = []query.Predicate{filter("a", query.Gt, lo), filter("a", query.Lt, hi+1)}
	case 2:
		fs = []query.Predicate{filter("a", query.Ge, lo)}
	case 3:
		fs = []query.Predicate{filter("a", query.Lt, hi)}
	case 4:
		fs = []query.Predicate{filter("a", query.Eq, lo)}
	case 5:
		fs = []query.Predicate{filter("a", query.Ne, lo), filter("a", query.Ge, lo), filter("a", query.Le, hi)}
	case 6:
		fs = []query.Predicate{{Left: query.Operand{Col: &query.ColRef{Attr: "a"}}, Op: query.Eq, Right: query.Operand{Lit: &str}}}
	case 7:
		fs = []query.Predicate{filter("a", query.Gt, hi), filter("a", query.Lt, lo)}
	}
	if len(fs) > 0 && r.IntN(3) == 0 {
		// literal OP column: compileSub must normalise it.
		f := fs[0]
		fs[0] = query.Predicate{Left: f.Right, Op: f.Op.Flip(), Right: f.Left}
	}
	s.Filters = append(s.Filters, fs...)
	return s
}

// survivors returns the list's live records in order.
func survivors(pl *postList) []*compiledSub {
	var out []*compiledSub
	it := pl.scan()
	for c := it.next(); c != nil; c = it.next() {
		out = append(out, c)
	}
	return out
}

// rebuilt freezes the view a from-scratch build over the survivors gives.
func rebuilt(live []*compiledSub) *streamSnap {
	ss := &streamSnap{cands: live}
	if len(live) >= pruneMin {
		ss.idx = buildAttrPruneIndex(ss)
	}
	return ss
}

// walk collects an iterator's candidates.
func walk(it candIter) []*compiledSub {
	var out []*compiledSub
	for c := it.next(); c != nil; c = it.next() {
		out = append(out, c)
	}
	return out
}

func sameSeq(a, b []*compiledSub) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMaintainedIndexMatchesRebuilt: after every step of random add/remove
// sequences over single- and multi-stream subscriptions of every bound
// shape, each posting list answers every match probe and every cover probe
// with the candidate sequence an index built from scratch on the surviving
// list gives — same decision to prune, same attribute, same candidates in
// the same order — and its union is that of the survivors' forwarding lists
// (keep). Removing everything leaves no list behind. The tail size cycles
// over the seeds, so populations straddle flushes and run merges at every
// size.
func TestMaintainedIndexMatchesRebuilt(t *testing.T) {
	withPruneMin(t, func(t *testing.T) {
		var pruned probeCount
		defer func() {
			if !t.Failed() && (pruned.match == 0 || pruned.cover == 0 || pruned.straddled == 0) {
				t.Errorf("%d match and %d cover probes pruned, %d with entries in runs and tail: the test does not exercise the index",
					pruned.match, pruned.cover, pruned.straddled)
			}
		}()
		oldTail := tailMax
		defer func() { tailMax = oldTail }()
		for seed := uint64(0); seed < 200; seed++ {
			tailMax = []int{1, 3, 8, oldTail}[seed%4]
			r := rand.New(rand.NewPCG(seed, 2201))
			d := newDirIndex(map[string]bool{})
			var live []*compiledSub
			var regSeq uint64
			steps := 40 + r.IntN(80)
			for step := 0; step < steps || len(live) > 0; step++ {
				// Grow first, then drain: removals outnumber additions
				// once the step budget is spent.
				if step < steps && (len(live) == 0 || r.IntN(3) > 0) {
					c := compileSub(shapedSub(r, step), nil)
					regSeq++
					c.regSeq = regSeq
					d.add(c)
					live = append(live, c)
				} else {
					i := r.IntN(len(live))
					d.remove(live[i])
					live = append(live[:i], live[i+1:]...)
				}
				checkAgainstRebuilt(t, r, d, seed, step, &pruned)
				if t.Failed() {
					return
				}
			}
			if len(d.subs)+len(d.byStream)+len(d.byID) != 0 {
				t.Fatalf("seed %d: emptied direction keeps %d records, %d posting lists, %d ids", seed, len(d.subs), len(d.byStream), len(d.byID))
			}
		}
	})
}

// TestOlderViewsSurviveChurn: a view stays what it was while later adds and
// removals append to the arrays it shares (cands, dead, rest, a run set's
// tail). Removals of the oldest record append to dead; removals anywhere
// else copy it. After random sequences of both, every view frozen along the
// way still scans its own survivors and answers match probes as a
// from-scratch build over them does.
func TestOlderViewsSurviveChurn(t *testing.T) {
	oldTail := tailMax
	defer func() { tailMax = oldTail }()
	type frozen struct {
		view *streamSnap
		live []*compiledSub
	}
	for seed := uint64(0); seed < 40; seed++ {
		tailMax = []int{1, 3, 8, oldTail}[seed%4]
		r := rand.New(rand.NewPCG(seed, 3501))
		d := newDirIndex(map[string]bool{})
		var live []*compiledSub
		var views []frozen
		for step := 0; step < 160; step++ {
			if len(live) == 0 || r.IntN(3) > 0 {
				c := compileSub(shapedSub(r, step), nil)
				c.regSeq = uint64(step + 1)
				d.add(c)
				live = append(live, c)
			} else {
				i := 0
				if r.IntN(3) == 0 {
					i = r.IntN(len(live))
				}
				d.remove(live[i])
				live = slices.Delete(live, i, i+1)
			}
			for _, s := range eqStreams {
				if pl := d.byStream[s]; pl != nil {
					views = append(views, frozen{pl.streamSnap, survivors(pl)})
				}
			}
		}
		mb, rb := new(routeBufs), new(routeBufs)
		for i, f := range views {
			if !sameSeq(walk(f.view.scan()), f.live) {
				t.Fatalf("seed %d view %d: scans other records than it held when frozen", seed, i)
			}
			want := rebuilt(f.live)
			for trial := 0; trial < 3; trial++ {
				tup := eqRandomTuple(r)
				if !sameSeq(walk(f.view.matchIter(&tup, mb)), walk(want.matchIter(&tup, rb))) {
					t.Fatalf("seed %d view %d: match probe %s selects other candidates than a build over its survivors", seed, i, renderTuple(tup))
				}
			}
		}
	}
}

// probeCount counts the probes the index answered without a full scan, and
// the lists checked while an attribute held entries both in runs and in the
// tail.
type probeCount struct{ match, cover, straddled int }

func checkAgainstRebuilt(t *testing.T, r *rand.Rand, d *dirIndex, seed uint64, step int, pruned *probeCount) {
	t.Helper()
	mb, rb := new(routeBufs), new(routeBufs)
	for _, s := range eqStreams {
		pl := d.byStream[s]
		if pl == nil {
			continue
		}
		live := survivors(pl)
		if len(live) != pl.live() || len(live) == 0 {
			t.Fatalf("seed %d step %d stream %s: %d survivors, live() = %d", seed, step, s, len(live), pl.live())
		}
		if 8*len(pl.dead) > pl.live() {
			t.Fatalf("seed %d step %d stream %s: %d tombstones beside %d records", seed, step, s, len(pl.dead), pl.live())
		}
		if (pl.idx != nil) != (pl.live() >= pruneMin) {
			t.Fatalf("seed %d step %d stream %s: index present = %v at %d records, pruneMin %d", seed, step, s, pl.idx != nil, pl.live(), pruneMin)
		}
		want := rebuilt(live)
		got := pl.streamSnap
		if got.idx != nil && slices.ContainsFunc(got.idx.attrs, func(a attrIndex) bool { return len(a.live.runs) > 0 && len(a.live.tail) > 0 }) {
			pruned.straddled++
		}
		for trial := 0; trial < 6; trial++ {
			tup := eqRandomTuple(r)
			if trial%3 == 0 {
				// Land on bound values, where open and closed differ.
				tup.Attrs["a"] = stream.FloatVal(float64(r.IntN(27)-13) / 2)
			}
			gi, wi := got.matchIter(&tup, mb), want.matchIter(&tup, rb)
			if gi.pruned != wi.pruned || !sameSeq(walk(gi), walk(wi)) {
				t.Fatalf("seed %d step %d stream %s: match probe %s: maintained (pruned=%v) and rebuilt (pruned=%v) select different candidates",
					seed, step, s, renderTuple(tup), gi.pruned, wi.pruned)
			}
			if gi.pruned {
				pruned.match++
			}
			fold := foldSelections(nil, shapedSub(r, trial).Filters)
			gi, wi = got.coverIter(fold, mb), want.coverIter(fold, rb)
			if gi.pruned != wi.pruned || !sameSeq(walk(gi), walk(wi)) {
				t.Fatalf("seed %d step %d stream %s: cover probe %v: maintained (pruned=%v) and rebuilt (pruned=%v) select different candidates",
					seed, step, s, fold, gi.pruned, wi.pruned)
			}
			if gi.pruned {
				pruned.cover++
			}
		}
		keep := map[string]bool{}
		for _, c := range live {
			for _, a := range c.keep {
				keep[a] = true
			}
		}
		if want := slices.Sorted(maps.Keys(keep)); fmt.Sprint(pl.union) != fmt.Sprint(want) {
			t.Fatalf("seed %d step %d stream %s: union %v, survivors give %v", seed, step, s, pl.union, want)
		}
	}
}

// refMirror copies a production broker's records — each one's
// *Subscription, handler, epoch and propagation marks, locals and directions
// in canonical order — into a reference broker, so the reference's cover and
// match functions run on the records the production broker holds.
func refMirror(b *Broker) *refBroker {
	b.mu.Lock()
	defer b.mu.Unlock()
	rb := newRefBroker(nil, b.Node, slices.Clone(b.neighbors))
	mirror := func(c *compiledSub, src topology.NodeID) *refRecord {
		return &refRecord{sub: c.sub, h: c.handler, seq: c.seq, src: src, sentTo: slices.Clone(c.sentTo)}
	}
	for _, c := range b.idx.locals.subs {
		rb.locals = append(rb.locals, mirror(c, -1))
	}
	for _, d := range b.idx.dirOrder {
		for _, c := range b.idx.dirs[d].subs {
			rb.dirs[d] = append(rb.dirs[d], mirror(c, d))
		}
	}
	return rb
}

// TestFirstCoverIdentical: for random (population, subscription, neighbour)
// triples — populations with propagation marks toward random neighbours,
// spread over locals and two directions, part of them removed again — the
// indexed coverFor returns the record the reference's full scan returns over
// the same records.
func TestFirstCoverIdentical(t *testing.T) {
	withPruneMin(t, func(t *testing.T) {
		found := 0
		for seed := uint64(0); seed < 150; seed++ {
			r := rand.New(rand.NewPCG(seed, 2202))
			b := NewBroker(nil, 0)
			b.neighbors = []topology.NodeID{1, 2, 3}
			var recs []*compiledSub
			for i, n := 0, 10+r.IntN(70); i < n; i++ {
				c := compileSub(shapedSub(r, i), nil)
				if r.IntN(2) == 0 {
					// Wide candidates, so covers exist.
					c = compileSub(&Subscription{ID: c.sub.ID, Streams: eqStreams, Filters: c.sub.Filters[:min(1, len(c.sub.Filters))]}, nil)
				}
				b.recCount++
				c.regSeq = b.recCount
				for _, nb := range b.neighbors {
					if r.IntN(3) > 0 {
						c.sentTo.set(nb)
					}
				}
				c.srcDir = topology.NodeID(r.IntN(3) - 1)
				if c.srcDir < 0 {
					b.idx.locals.add(c)
				} else {
					b.idx.dir(c.srcDir + 1).add(c)
				}
				recs = append(recs, c)
			}
			for _, i := range r.Perm(len(recs))[:len(recs)/4] {
				if c := recs[i]; c.srcDir < 0 {
					b.idx.locals.remove(c)
				} else {
					b.idx.dirs[c.srcDir+1].remove(c)
				}
			}
			ref := refMirror(b)
			for trial := 0; trial < 40; trial++ {
				sub := shapedSub(r, 1000+trial)
				n := b.neighbors[r.IntN(3)]
				got, want := b.coverFor(n, compileSub(sub, nil), foldSelections(nil, sub.Filters)), ref.firstCover(n, sub)
				if (got == nil) != (want == nil) || got != nil && got.sub != want.sub {
					t.Fatalf("seed %d: first cover of %s toward %d: indexed %v, full scan %v", seed, sub, n, got, want)
				}
				if got != nil {
					found++
				}
			}
		}
		if found == 0 {
			t.Fatal("no probe found a cover: the test does not exercise the covering path")
		}
	})
}

// TestCompiledCoversMatchesCoversPrepared: the cover scan's compiled test
// equals the reference's refCovers over the random subscription generators,
// operand order included.
func TestCompiledCoversMatchesCoversPrepared(t *testing.T) {
	covering := 0
	for seed := uint64(0); seed < 4000; seed++ {
		r := rand.New(rand.NewPCG(seed, 2203))
		var s, o *Subscription
		if seed%2 == 0 {
			s, o = shapedSub(r, int(seed)), shapedSub(r, int(seed)+1)
		} else {
			s, o = randomSub(r, "w"), randomSub(r, "n")
		}
		want := refCovers(s, o)
		if got := compileSub(s, nil).covers(compileSub(o, nil), foldSelections(nil, o.Filters)); got != want {
			t.Fatalf("seed %d: compiled covers = %v, refCovers = %v for %s over %s", seed, got, want, s, o)
		}
		if want {
			covering++
		}
	}
	if covering < 100 {
		t.Fatalf("only %d covering pairs drawn", covering)
	}
}

// TestFoldMatchesSelectionIntervals: the fold a cover decision reads holds,
// for every attribute, exactly the interval query.SelectionIntervalsByAttr
// computes — over both random generators and hand cases for every predicate
// shape the fold must skip or carry.
func TestFoldMatchesSelectionIntervals(t *testing.T) {
	str := func(attr string, op query.Op, v string) query.Predicate {
		lit := stream.StringVal(v)
		return query.Predicate{Left: query.Operand{Col: &query.ColRef{Attr: attr}}, Op: op, Right: query.Operand{Lit: &lit}}
	}
	col := func(attr string) query.Operand { return query.Operand{Col: &query.ColRef{Attr: attr}} }
	lit := stream.FloatVal(3)
	hand := [][]query.Predicate{
		{str("b", query.Eq, "x"), str(stream.TagAttr, query.Eq, "q1"), filter("timestamp", query.Ge, 5)},
		{str("b", query.Eq, "x"), str("b", query.Eq, "y"), str("b", query.Ne, "x"), str("b", query.Lt, "z")},
		{filter("a", query.Lt, math.NaN()), filter("a", query.Ge, 1), filter("a", query.Ne, math.NaN())},
		{filter("a", query.Gt, 4), filter("a", query.Lt, 2)},
		{filter("a", query.Ge, 1), filter("b", query.Lt, 9), filter("a", query.Ne, 3), filter("a", query.Le, 7)},
		{{Left: query.Operand{Lit: &lit}, Op: query.Lt, Right: col("a")}},
		{{Left: col("a"), Op: query.Lt, Right: col("b")}, filter("b", query.Gt, 0)},
		{{Left: col("a"), Op: query.Eq}, {Left: query.Operand{Lit: &lit}, Op: query.Eq}, filter("a", query.Le, 2)},
		nil,
	}
	// Each input is folded fresh and into the scratch the previous one left,
	// as the broker reuses its own.
	var scratch []attrGroup
	check := func(what string, fs []query.Predicate) {
		t.Helper()
		want := query.SelectionIntervalsByAttr(fs)
		scratch = foldSelections(scratch, fs)
		for _, fold := range [][]attrGroup{foldSelections(nil, fs), scratch} {
			if err := foldEqualsIntervals(fold, want); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
	for i, fs := range hand {
		check(fmt.Sprintf("hand case %d", i), fs)
	}
	for seed := uint64(0); seed < 4000; seed++ {
		r := rand.New(rand.NewPCG(seed, 2206))
		sub := shapedSub(r, int(seed))
		if seed%2 == 1 {
			sub = randomSub(r, "s")
		}
		check(fmt.Sprintf("seed %d, %s", seed, sub), sub.Filters)
	}
}

// FuzzFoldSelections: for filters built from fuzzed fields — every three
// bytes an operator (invalid ones included) and two operands, each nothing, a
// column named from cols, or the literal f1, f2 or str — compileSub does not
// panic, the fold equals query.SelectionIntervalsByAttr, and a tuple over
// the cols (tagged str) cut to the forwarding list of a subscription that
// projects everything away still Matches exactly when the whole tuple does.
func FuzzFoldSelections(f *testing.F) {
	f.Add([]byte{byte(query.Ge), 1, 2, byte(query.Lt), 1, 3}, "x", 0.0, 4.0, "")
	f.Add([]byte{byte(query.Eq), 1, 4, byte(query.Ne), 6, 2, byte(query.Lt), 1, 1}, "a,__q,timestamp", math.NaN(), -1.0, "x")
	f.Fuzz(func(t *testing.T, preds []byte, cols string, f1, f2 float64, str string) {
		names := strings.Split(cols, ",")
		lits := []stream.Value{stream.FloatVal(f1), stream.FloatVal(f2), stream.StringVal(str)}
		operand := func(k byte) query.Operand {
			switch k % 5 {
			case 0:
				return query.Operand{}
			case 1:
				return query.Operand{Col: &query.ColRef{Attr: names[int(k/5)%len(names)]}}
			}
			v := lits[k%5-2]
			return query.Operand{Lit: &v}
		}
		var fs []query.Predicate
		for i := 0; i+3 <= len(preds) && i < 3*6; i += 3 {
			fs = append(fs, query.Predicate{Left: operand(preds[i+1]), Op: query.Op(preds[i] % 8), Right: operand(preds[i+2])})
		}
		sub := &Subscription{ID: "f", Streams: []string{"R"}, Attrs: []string{}, Filters: fs}
		c := compileSub(sub, nil)
		if err := foldEqualsIntervals(foldSelections(nil, fs), query.SelectionIntervalsByAttr(fs)); err != nil {
			t.Fatal(err)
		}
		tp := stream.Tuple{Stream: "R", Tag: str, Attrs: make(map[string]stream.Value, len(names))}
		for i, name := range names {
			tp.Attrs[name] = lits[i%len(lits)]
		}
		if got, want := sub.Matches(projectAttrs(tp, c.keep)), sub.Matches(tp); got != want {
			t.Fatalf("%s: Matches %v on %s, %v on its forwarding list %v", sub, want, renderTuple(tp), got, c.keep)
		}
	})
}

// foldEqualsIntervals reports how a fold differs from the map of intervals it
// must equal, or nil: one group per attribute, each interval reflect-equal to
// the map's once a NaN disequality point (the one NaN an interval can hold)
// compares equal to itself.
func foldEqualsIntervals(fold []attrGroup, want map[string]query.Interval) error {
	canon := func(iv query.Interval) query.Interval {
		iv.NotEq = slices.Clone(iv.NotEq)
		for i, x := range iv.NotEq {
			if math.IsNaN(x) {
				iv.NotEq[i] = math.Inf(1)
			}
		}
		return iv
	}
	if len(fold) != len(want) {
		return fmt.Errorf("fold %v has %d attributes, SelectionIntervalsByAttr %v has %d", fold, len(fold), want, len(want))
	}
	for i, g := range fold {
		w, ok := want[g.attr]
		if !ok || groupOf(fold[:i], g.attr) != nil || !reflect.DeepEqual(canon(g.iv), canon(w)) {
			return fmt.Errorf("attribute %s folds to %v, SelectionIntervalsByAttr has %v", g.attr, g.iv, w)
		}
	}
	return nil
}

// TestClosedBoundsAdmitWhatTheIntervalAdmits: the index's closed bounds
// admit every value the compiled interval admits, and for finite bounds
// nothing its bounds reject.
func TestClosedBoundsAdmitWhatTheIntervalAdmits(t *testing.T) {
	ops := []query.Op{query.Eq, query.Ne, query.Lt, query.Le, query.Gt, query.Ge}
	for seed := uint64(0); seed < 500; seed++ {
		r := rand.New(rand.NewPCG(seed, 2204))
		iv := query.FullInterval()
		for i := r.IntN(4); i > 0; i-- {
			iv = iv.Constrain(ops[r.IntN(len(ops))], stream.FloatVal(float64(r.IntN(9)-4)))
		}
		lo, hi := closedBounds(iv)
		for _, x := range []float64{-5, -4, -3.5, -1, 0, 0.5, 1, 3, 4, 4.5, math.Inf(-1), math.Inf(1)} {
			in := lo <= x && x <= hi
			exact := (x > iv.Lo || (x == iv.Lo && !iv.LoOpen)) && (x < iv.Hi || (x == iv.Hi && !iv.HiOpen))
			if iv.ContainsFloat(x) && !in {
				t.Fatalf("seed %d: %s contains %g, closed bounds [%g, %g] reject it", seed, iv, x, lo, hi)
			}
			if !math.IsInf(x, 0) && in != exact {
				t.Fatalf("seed %d: %s bounds admit %g = %v, closed bounds [%g, %g] say %v", seed, iv, x, exact, lo, hi, in)
			}
		}
	}
}

// indexFootprint sums what a broker's local posting lists hold; a
// tombstoned candidate counts twice among the index entries (live and gone),
// whether a run or the tail holds it.
func indexFootprint(b *Broker) (records, slots, tombstones, entries int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, pl := range b.idx.locals.byStream {
		records += pl.live()
		slots += len(pl.cands)
		tombstones += len(pl.dead)
		if pl.idx != nil {
			for _, a := range pl.idx.attrs {
				for _, rs := range []runSet{a.live, a.gone} {
					entries += len(rs.tail)
					for _, r := range rs.runs {
						entries += len(r.entries)
					}
				}
			}
		}
	}
	return
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestChurnCyclesDrain: 100 000 subscribe/unsubscribe cycles against a
// population of 5 000 on one stream leave the list, its tombstones, its
// index and the heap where they started — removed records are bounded by
// compaction, not accumulated — and removing the population leaves every
// container empty.
func TestChurnCyclesDrain(t *testing.T) {
	cycles := 100000
	if testing.Short() {
		cycles = 10000
	}
	net := lineNet(t)
	b, _ := net.Broker(0)
	const pop = 5000
	popSub := func(i int) *Subscription {
		lo := float64(i)
		return &Subscription{ID: fmt.Sprintf("p%d", i), Streams: []string{"R"}, Attrs: []string{"a"},
			Filters: []query.Predicate{filter("a", query.Ge, lo), filter("a", query.Lt, lo+1.5)}}
	}
	for i := 0; i < pop; i++ {
		if err := b.Subscribe(popSub(i), func(*Subscription, stream.Tuple) {}); err != nil {
			t.Fatal(err)
		}
	}
	bounded := func(when string) {
		t.Helper()
		records, slots, tombstones, entries := indexFootprint(b)
		if records != pop || 8*tombstones > pop || slots != records+tombstones || entries > pop+2*tombstones {
			t.Fatalf("%s: %d records in %d slots, %d tombstones, %d index entries", when, records, slots, tombstones, entries)
		}
	}
	bounded("after preload")
	before := heapInUse()
	for k := 0; k < cycles; k++ {
		lo := 1e6 + float64(k)
		sub := &Subscription{ID: "churn", Streams: []string{"R"}, Attrs: []string{"b"},
			Filters: []query.Predicate{filter("a", query.Ge, lo), filter("a", query.Lt, lo+0.5)}}
		if err := b.Subscribe(sub, func(*Subscription, stream.Tuple) {}); err != nil {
			t.Fatal(err)
		}
		b.Unsubscribe("churn")
		if k%2 == 1 {
			// Replace a stable record too, so tombstones land all over
			// the list and not only at its end.
			if err := b.Subscribe(popSub(k%pop), func(*Subscription, stream.Tuple) {}); err != nil {
				t.Fatal(err)
			}
		}
		if k%997 == 0 {
			bounded(fmt.Sprintf("cycle %d", k))
		}
	}
	bounded("after the cycles")
	if after := heapInUse(); after > before+before/4+(1<<20) {
		t.Fatalf("heap grew from %d to %d bytes over %d cycles", before, after, cycles)
	}
	for i := 0; i < pop; i++ {
		b.Unsubscribe(fmt.Sprintf("p%d", i))
	}
	assertDrained(t, net)
	if left := net.ResidualState(); len(left) != 0 {
		t.Fatalf("residual state after removing everything: %v", left)
	}
}

// TestRoutesBesideChurnOnOneList: four goroutines route against a stable
// population while a fifth subscribes and unsubscribes on the same stream,
// fast enough to take the list through tombstones, run merges and
// compactions. Every route reads one epoch, so the stable subscriptions
// receive exactly the serial count; run under -race, no route may observe
// a half-built index version.
func TestRoutesBesideChurnOnOneList(t *testing.T) {
	net := lineNet(t)
	b, _ := net.Broker(0)
	const stable, routers, perRouter = 64, 4, 3072 // 12 passes over the tuples each
	var delivered atomic.Int64
	for i := 0; i < stable; i++ {
		lo := float64(i)
		sub := &Subscription{ID: fmt.Sprintf("p%d", i), Streams: []string{"R"},
			Filters: []query.Predicate{filter("a", query.Ge, lo), filter("a", query.Lt, lo+2.5)}}
		if err := b.Subscribe(sub, func(*Subscription, stream.Tuple) { delivered.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	tuples := make([]stream.Tuple, 256)
	r := rand.New(rand.NewPCG(5, 2205))
	var want int64
	for i := range tuples {
		tuples[i] = tuple("R", map[string]float64{"a": r.Float64() * stable})
		for j := 0; j < stable; j++ {
			if v := tuples[i].Attrs["a"].F; v >= float64(j) && v < float64(j)+2.5 {
				want++
			}
		}
	}
	want *= routers * perRouter / int64(len(tuples))

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			// Matches no tuple: deliveries stay the stable population's.
			for j := 0; j < 12; j++ {
				lo := 1e6 + float64(j)
				sub := &Subscription{ID: fmt.Sprintf("c%d", j), Streams: []string{"R"},
					Filters: []query.Predicate{filter("a", query.Ge, lo), filter("a", query.Lt, lo+0.5)}}
				if err := b.Subscribe(sub, func(*Subscription, stream.Tuple) { t.Error("churn subscription matched") }); err != nil {
					t.Error(err)
				}
			}
			for j := 0; j < 12; j++ {
				b.Unsubscribe(fmt.Sprintf("c%d", (j+k)%12))
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < routers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perRouter; i++ {
				b.Publish(tuples[(g*perRouter+i)%len(tuples)])
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if got := delivered.Load(); got != want {
		t.Fatalf("stable subscriptions received %d tuples beside churn, serial count is %d", got, want)
	}
}

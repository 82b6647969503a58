package cosmos

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/trace"
)

// lifecycleQuery is one query of TestLifecycleMatchesUnmergedEngine.
type lifecycleQuery struct {
	cql       string
	h         *QueryHandle
	admitted  *query.Query // the superset the query was admitted under
	unchanged bool         // no rewire changed its group since admission
	got, want []string
}

// TestLifecycleMatchesUnmergedEngine runs random interleavings of Publish,
// online Submit and Cancel over a seeded sensor trace on 1–4 processors, with
// an unmerged engine.Engine beside the middleware that admits and drops each
// query at the same point. A query whose group no rewire has changed since
// its admission — it runs under the superset it was admitted under — must
// deliver exactly what the engine delivers for it, as a multiset: a change
// elsewhere, at its processor or not, leaves its windows alone.
func TestLifecycleMatchesUnmergedEngine(t *testing.T) {
	g, procs := testTopology(t)
	var queries, checked, delivering, results int
	for seed := uint64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x11fec7c1e))
		n := 1 + rng.IntN(4)
		m, err := New(g, procs[:n], Config{K: 2, VMax: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 3; d++ {
			def := StreamDef{Name: trace.StreamName(d), Schema: trace.Schema(), Source: procs[4+d%2], Substreams: 2, RatePerSubstream: 5}
			if err := m.RegisterStream(def); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		gen, err := trace.New(trace.Config{Stations: 9, Deployments: 3, PeriodMillis: 1000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ref := engine.New()
		var all, live []*lifecycleQuery
		for op := 0; op < 40; op++ {
			switch r := rng.IntN(10); {
			case r < 5 || len(live) == 0 && r >= 8:
				for _, tup := range slices.Concat(gen.Next(), gen.Next()) {
					if err := m.Publish(tup); err != nil {
						t.Fatal(err)
					}
					ref.Process(tup)
				}
			case r < 8:
				q := &lifecycleQuery{cql: sharingQuery(rng), unchanged: true}
				h, err := m.Submit(q.cql, procs[rng.IntN(n)], func(r Tuple) { q.got = append(q.got, resultKey(r)) })
				if err != nil {
					t.Fatalf("seed %d: Submit %q: %v", seed, q.cql, err)
				}
				pq := query.MustParse(q.cql)
				pq.Name = h.Name
				if err := ref.AddQuery(pq, "ref", func(r stream.Tuple) { q.want = append(q.want, resultKey(r)) }); err != nil {
					t.Fatal(err)
				}
				q.h, q.admitted = h, h.split.super
				all, live = append(all, q), append(live, q)
			default:
				i := rng.IntN(len(live))
				q := live[i]
				if err := q.h.Cancel(); err != nil {
					t.Fatalf("seed %d: Cancel %s: %v", seed, q.h.Name, err)
				}
				if _, err := ref.RemoveQuery(q.h.Name); err != nil {
					t.Fatal(err)
				}
				live = slices.Delete(live, i, i+1)
			}
			for _, q := range live {
				if q.h.split.super != q.admitted {
					q.unchanged = false
				}
			}
		}
		for _, q := range all {
			queries++
			if !q.unchanged {
				continue
			}
			checked++
			results += len(q.want)
			if len(q.want) > 0 {
				delivering++
			}
			sort.Strings(q.got)
			sort.Strings(q.want)
			if !reflect.DeepEqual(q.got, q.want) {
				t.Fatalf("seed %d, %s %q: delivered %d results, the unmerged engine %d\nfirst delivered: %v\nfirst expected:  %v",
					seed, q.h.Name, q.cql, len(q.got), len(q.want), first(q.got), first(q.want))
			}
		}
	}
	t.Logf("%d queries, %d in groups no rewire changed after their admission, %d of them with results, %d results compared", queries, checked, delivering, results)
	if checked*2 < queries || delivering*2 < checked {
		t.Errorf("%d of %d queries checked, %d with results: the comparison means little", checked, queries, delivering)
	}
}

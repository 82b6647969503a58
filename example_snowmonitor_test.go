package cosmos_test

import (
	"fmt"

	cosmos "repro"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Example_snowmonitor runs continuous monitoring of SensorScope-style
// deployments: five sensor deployments publish synthetic snow/weather
// readings, and a fleet of threshold alerts and cross-deployment drift
// comparisons runs on eight processors. It shows early filtering and
// projection in the Pub/Sub, result-stream sharing, and a runtime
// adaptation round after the workload has run for 30 minutes. In this
// pinned run every result an engine emits is delivered, early-dropped
// stays 0 because the Pub/Sub filters out every reading a query's
// selections reject before it reaches an engine, and the adaptation round
// migrates no query.
func Example_snowmonitor() {
	if err := snowmonitor(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// placement: map[Q0:16 Q1:25 Q2:15 Q3:15 Q4:12 Q5:27 Q6:38 Q7:40 Q8:6]
	// results so far: 11229 | engines consumed=1191 emitted=11229 early-dropped=0 | overlay 1258.5 KB, weighted cost 46140728
	//
	// running one adaptation round...
	// adaptation migrated 0 queries
	// results so far: 25162 | engines consumed=2346 emitted=25162 early-dropped=0 | overlay 2698.4 KB, weighted cost 96914009
}

func snowmonitor() error {
	g, err := topology.Generate(topology.Config{
		TransitDomains:      2,
		TransitNodes:        2,
		StubDomainsPerNode:  2,
		StubNodes:           5,
		InterTransitLatency: [2]float64{60, 150},
		IntraTransitLatency: [2]float64{15, 30},
		TransitStubLatency:  [2]float64{3, 8},
		IntraStubLatency:    [2]float64{1, 2},
		Seed:                11,
	})
	if err != nil {
		return err
	}
	nodes, err := topology.SampleNodes(g, topology.Stub, 13, 4, nil)
	if err != nil {
		return err
	}
	processors, srcNodes := nodes[:8], nodes[8:]

	tcfg := trace.Config{Stations: 25, Deployments: 5, PeriodMillis: 60_000, Seed: 2}
	gen, err := trace.New(tcfg)
	if err != nil {
		return err
	}

	m, err := cosmos.New(g, processors, cosmos.Config{K: 2, VMax: 20})
	if err != nil {
		return err
	}
	for d := 0; d < tcfg.Deployments; d++ {
		err := m.RegisterStream(cosmos.StreamDef{
			Name:             trace.StreamName(d),
			Schema:           trace.Schema(),
			Source:           srcNodes[d%len(srcNodes)],
			Substreams:       tcfg.Stations / tcfg.Deployments,
			RatePerSubstream: 1,
		})
		if err != nil {
			return err
		}
	}

	// Monitoring fleet: per-deployment alerts plus cross-deployment
	// drift comparisons.
	counts := make(map[string]*int)
	submit := func(label, cql string, proxy cosmos.NodeID) error {
		n := new(int)
		counts[label] = n
		_, err := m.Submit(cql, proxy, func(cosmos.Tuple) { *n++ })
		return err
	}
	for d := 0; d < tcfg.Deployments; d++ {
		label := fmt.Sprintf("alert-d%d", d)
		cql := fmt.Sprintf(
			`SELECT * FROM %s [Now] WHERE snowHeight > 60`, trace.StreamName(d))
		if err := submit(label, cql, processors[d%len(processors)]); err != nil {
			return err
		}
	}
	for d := 0; d < tcfg.Deployments-1; d++ {
		label := fmt.Sprintf("drift-d%d-d%d", d, d+1)
		cql := fmt.Sprintf(`SELECT A.snowHeight, B.snowHeight, A.timestamp
			FROM %s [Range 10 Minutes] A, %s [Now] B
			WHERE A.snowHeight > B.snowHeight AND A.snowHeight > 40`,
			trace.StreamName(d), trace.StreamName(d+1))
		if err := submit(label, cql, processors[(d+3)%len(processors)]); err != nil {
			return err
		}
	}
	if err := m.Start(); err != nil {
		return err
	}
	fmt.Printf("placement: %v\n", m.Placement())

	feed := func(ticks int) error {
		for i := 0; i < ticks; i++ {
			for _, r := range gen.Next() {
				if err := m.Publish(r); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := feed(30); err != nil { // 30 minutes of readings
		return err
	}
	snowReport(m, counts)

	fmt.Println("\nrunning one adaptation round...")
	migrated, err := m.Adapt()
	if err != nil {
		return err
	}
	fmt.Printf("adaptation migrated %d queries\n", migrated)
	if err := feed(30); err != nil {
		return err
	}
	snowReport(m, counts)
	return nil
}

func snowReport(m *cosmos.Middleware, counts map[string]*int) {
	total := 0
	for _, n := range counts {
		total += *n
	}
	tr := m.Traffic()
	es := m.EngineStats()
	fmt.Printf("results so far: %d | engines consumed=%d emitted=%d early-dropped=%d | overlay %.1f KB, weighted cost %.0f\n",
		total, es.Consumed, es.Emitted, es.Dropped, tr.DataBytes/1024, tr.WeightedCost)
}

package cosmos_test

import (
	"fmt"

	cosmos "repro"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Example_quickstart runs the §2.1 scenario of the paper end to end: two
// users submit the snow-drift queries Q3 and Q4 (Table 1) from different
// proxies, COSMOS places them and wires the content-based Pub/Sub, and each
// user receives its own result tuples. Co-located, the two queries would be
// merged into the superset query Q5 and its result split back per user with
// residual subscriptions; in this pinned run Q3 lands on processor 14 and Q4
// on processor 11, so each runs unmerged. Station2's reading of 12 at minute
// 45 joins, for Q4, both Station1 readings above it within the hour (15 and
// 20) and, for Q3, only the one within 30 minutes (20).
func Example_quickstart() {
	if err := quickstart(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// Q3 runs on processor 14, Q4 on processor 11
	// publishing readings...
	//   user@n4 (Q4) got: map[S1.snowHeight:15 S1.timestamp:0 S2.snowHeight:12 S2.timestamp:2.7e+06]
	//   user@n4 (Q4) got: map[S1.snowHeight:20 S1.timestamp:2.52e+06 S2.snowHeight:12 S2.timestamp:2.7e+06]
	//   user@n3 (Q3) got: map[S2.snowHeight:12 S2.timestamp:2.7e+06]
	//
	// delivered: Q3=1 results, Q4=2 results
	// overlay traffic: 384 data bytes (weighted cost 2658.9)
	// engines: consumed=7 emitted=3 early-dropped=0
}

func quickstart() error {
	// A small wide-area topology: 1 transit domain, a few stub LANs.
	g, err := topology.Generate(topology.Config{
		TransitDomains:      1,
		TransitNodes:        2,
		StubDomainsPerNode:  2,
		StubNodes:           4,
		InterTransitLatency: [2]float64{50, 100},
		IntraTransitLatency: [2]float64{10, 20},
		TransitStubLatency:  [2]float64{2, 5},
		IntraStubLatency:    [2]float64{1, 2},
		Seed:                3,
	})
	if err != nil {
		return err
	}
	nodes, err := topology.SampleNodes(g, topology.Stub, 6, 3, nil)
	if err != nil {
		return err
	}
	processors, sources := nodes[:4], nodes[4:]

	m, err := cosmos.New(g, processors, cosmos.Config{K: 2, VMax: 10})
	if err != nil {
		return err
	}
	schema := stream.Schema{Attrs: []stream.Attribute{{Name: "snowHeight", Type: stream.Float}}}
	for i, name := range []string{"Station1", "Station2"} {
		err := m.RegisterStream(cosmos.StreamDef{
			Name:             name,
			Schema:           schema,
			Source:           sources[i%len(sources)],
			Substreams:       4,
			RatePerSubstream: 10,
		})
		if err != nil {
			return err
		}
	}

	// The paper's Q3 and Q4 (Table 1).
	q3, err := m.Submit(`SELECT S2.*
		FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2
		WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10`,
		processors[0],
		func(t cosmos.Tuple) { fmt.Printf("  user@n3 (Q3) got: %v\n", t.Attrs) })
	if err != nil {
		return err
	}
	q4, err := m.Submit(`SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp
		FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2
		WHERE S1.snowHeight > S2.snowHeight`,
		processors[1],
		func(t cosmos.Tuple) { fmt.Printf("  user@n4 (Q4) got: %v\n", t.Attrs) })
	if err != nil {
		return err
	}

	if err := m.Start(); err != nil {
		return err
	}
	fmt.Printf("Q3 runs on processor %d, Q4 on processor %d\n", q3.Processor(), q4.Processor())

	// Publish a morning of readings.
	const minute = int64(60_000)
	readings := []struct {
		stream string
		ts     int64
		snow   float64
	}{
		{"Station1", 0 * minute, 15},
		{"Station1", 40 * minute, 8},
		{"Station1", 42 * minute, 20},
		{"Station2", 45 * minute, 12},
	}
	fmt.Println("publishing readings...")
	for _, r := range readings {
		err := m.Publish(cosmos.Tuple{
			Stream:    r.stream,
			Timestamp: r.ts,
			Attrs:     map[string]stream.Value{"snowHeight": stream.FloatVal(r.snow)},
		})
		if err != nil {
			return err
		}
	}

	fmt.Printf("\ndelivered: Q3=%d results, Q4=%d results\n", q3.Delivered(), q4.Delivered())
	tr := m.Traffic()
	fmt.Printf("overlay traffic: %.0f data bytes (weighted cost %.1f)\n",
		tr.DataBytes, tr.WeightedCost)
	es := m.EngineStats()
	fmt.Printf("engines: consumed=%d emitted=%d early-dropped=%d\n",
		es.Consumed, es.Emitted, es.Dropped)
	return nil
}

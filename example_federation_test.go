package cosmos_test

import (
	"fmt"
	"math/rand/v2"

	cosmos "repro"
	"repro/internal/pubsub"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Example_federation runs a wide-area federation of sensor deployments
// (three transit domains, intercontinental latencies) with a 60-query
// fleet, twice: once with result-stream sharing (§2.1) and once with
// DisableResultSharing, with a runtime adaptation round halfway through
// each. In this pinned run the sharing run's adaptation round migrates no
// query, and sharing cuts the weighted communication cost by 27.7 % and the
// bytes on the wire by 25.7 %: each user's residual subscription, the age
// tests of the windows its superset widened included, stops what the user
// does not want at the first broker that can tell.
func Example_federation() {
	shared, err := federation(false)
	if err != nil {
		fmt.Println(err)
		return
	}
	solo, err := federation(true)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("== federation summary ==")
	fmt.Printf("with result sharing:    weighted cost %.0f (%.1f KB on the wire)\n",
		shared.WeightedCost, shared.DataBytes/1024)
	fmt.Printf("without result sharing: weighted cost %.0f (%.1f KB on the wire)\n",
		solo.WeightedCost, solo.DataBytes/1024)
	if shared.WeightedCost < solo.WeightedCost {
		fmt.Printf("sharing saved %.1f%% of weighted communication cost\n",
			100*(1-shared.WeightedCost/solo.WeightedCost))
	}
	// Output:
	// adaptation round migrated 0 queries
	// == federation summary ==
	// with result sharing:    weighted cost 1220788940 (26547.3 KB on the wire)
	// without result sharing: weighted cost 1689295698 (35711.1 KB on the wire)
	// sharing saved 27.7% of weighted communication cost
}

// federation runs the workload once and returns its overlay traffic.
func federation(disableSharing bool) (pubsub.TrafficReport, error) {
	const (
		deployments = 6
		queries     = 60
		ticks       = 40
	)
	// An intercontinental overlay: 3 transit domains with high latencies.
	g, err := topology.Generate(topology.Config{
		TransitDomains:      3,
		TransitNodes:        2,
		StubDomainsPerNode:  2,
		StubNodes:           4,
		InterTransitLatency: [2]float64{80, 250},
		IntraTransitLatency: [2]float64{20, 40},
		TransitStubLatency:  [2]float64{3, 10},
		IntraStubLatency:    [2]float64{1, 3},
		Seed:                21,
	})
	if err != nil {
		return pubsub.TrafficReport{}, err
	}
	nodes, err := topology.SampleNodes(g, topology.Stub, 12+deployments, 6, nil)
	if err != nil {
		return pubsub.TrafficReport{}, err
	}
	processors, srcNodes := nodes[:12], nodes[12:]

	tcfg := trace.Config{Stations: 30, Deployments: deployments, PeriodMillis: 60_000, Seed: 4}
	gen, err := trace.New(tcfg)
	if err != nil {
		return pubsub.TrafficReport{}, err
	}
	m, err := cosmos.New(g, processors, cosmos.Config{
		K: 3, VMax: 30, DisableResultSharing: disableSharing,
	})
	if err != nil {
		return pubsub.TrafficReport{}, err
	}
	for d := 0; d < deployments; d++ {
		err := m.RegisterStream(cosmos.StreamDef{
			Name:             trace.StreamName(d),
			Schema:           trace.Schema(),
			Source:           srcNodes[d],
			Substreams:       tcfg.Stations / deployments,
			RatePerSubstream: 1,
		})
		if err != nil {
			return pubsub.TrafficReport{}, err
		}
	}

	// A fleet of randomized monitoring queries: clusters of users watch
	// the same deployment pairs with varying thresholds, which is what
	// result-stream sharing exploits.
	rng := rand.New(rand.NewPCG(9, 99))
	for i := 0; i < queries; i++ {
		d1 := rng.IntN(deployments)
		d2 := (d1 + 1) % deployments
		threshold := 30 + 5*rng.IntN(4)
		spanMin := 5 * (1 + rng.IntN(3))
		cql := fmt.Sprintf(`SELECT A.snowHeight, B.snowHeight, A.timestamp
			FROM %s [Range %d Minutes] A, %s [Now] B
			WHERE A.snowHeight > B.snowHeight AND A.snowHeight > %d`,
			trace.StreamName(d1), spanMin, trace.StreamName(d2), threshold)
		proxy := processors[rng.IntN(len(processors))]
		if _, err := m.Submit(cql, proxy, nil); err != nil {
			return pubsub.TrafficReport{}, err
		}
	}
	if err := m.Start(); err != nil {
		return pubsub.TrafficReport{}, err
	}

	feed := func(n int) error {
		for i := 0; i < n; i++ {
			for _, r := range gen.Next() {
				if err := m.Publish(r); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := feed(ticks / 2); err != nil {
		return pubsub.TrafficReport{}, err
	}
	if migrated, err := m.Adapt(); err != nil {
		return pubsub.TrafficReport{}, err
	} else if !disableSharing {
		fmt.Printf("adaptation round migrated %d queries\n", migrated)
	}
	if err := feed(ticks / 2); err != nil {
		return pubsub.TrafficReport{}, err
	}
	return m.Traffic(), nil
}

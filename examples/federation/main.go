// Federation: a wide-area federation of sensor deployments with a large
// query fleet, demonstrating what the COSMOS middleware buys.
//
// The same workload runs twice — once with result-stream sharing (§2.1)
// enabled and once without — and reports the overlay traffic of both, plus
// a runtime adaptation round. Everything goes through the public API.
//
// Run with: go run ./examples/federation
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	cosmos "repro"
	"repro/internal/topology"
	"repro/internal/trace"
)

const (
	deployments = 6
	queries     = 60
	ticks       = 40
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	shared, err := experiment(false)
	if err != nil {
		return err
	}
	solo, err := experiment(true)
	if err != nil {
		return err
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
	return nil
}

type traffic struct {
	WeightedCost float64
	DataBytes    float64
}

func experiment(disableSharing bool) (traffic, error) {
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
		return traffic{}, err
	}
	nodes, err := topology.SampleNodes(g, topology.Stub, 12+deployments, 6, nil)
	if err != nil {
		return traffic{}, err
	}
	processors, srcNodes := nodes[:12], nodes[12:]

	tcfg := trace.Config{Stations: 30, Deployments: deployments, PeriodMillis: 60_000, Seed: 4}
	gen, err := trace.New(tcfg)
	if err != nil {
		return traffic{}, err
	}
	// Workers parallelizes the optimizer's distribution and adaptation
	// passes across cores; tuple routing is concurrent regardless (the
	// brokers' lock-free snapshot path, CONCURRENCY.md). Placements and
	// deliveries are identical at any worker count; Workers: 1 is the
	// single-goroutine optimizer when bisecting.
	m, err := cosmos.New(g, processors, cosmos.Config{
		K: 3, VMax: 30, Workers: 4, DisableResultSharing: disableSharing,
	})
	if err != nil {
		return traffic{}, err
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
			return traffic{}, err
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
			return traffic{}, err
		}
	}
	if err := m.Start(); err != nil {
		return traffic{}, err
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
		return traffic{}, err
	}
	if migrated, err := m.Adapt(); err != nil {
		return traffic{}, err
	} else if !disableSharing {
		fmt.Printf("adaptation round migrated %d queries\n", migrated)
	}
	if err := feed(ticks / 2); err != nil {
		return traffic{}, err
	}
	tr := m.Traffic()
	return traffic{WeightedCost: tr.WeightedCost, DataBytes: tr.DataBytes}, nil
}

// Package trace generates synthetic SensorScope-style sensor readings — the
// substitute for the proprietary dataset the paper's prototype study uses
// (§4.2). Each station produces periodic readings (snow height, temperature,
// wind speed) following a seeded diurnal pattern with noise and slow drift,
// so that selection predicates over the readings have stable, non-trivial
// selectivities.
package trace

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/stream"
)

// Station is one simulated sensor station.
type Station struct {
	// Stream is the stream name its readings are published under.
	Stream string
	// SensorType partitions stations into classes ("snow", "weather",
	// "wind"), which the prototype queries filter on.
	SensorType string

	baseSnow float64
	baseTemp float64
	baseWind float64
	drift    float64
	rng      *rand.Rand
}

// Config parameterizes the generator.
type Config struct {
	// Stations is the number of stations (paper: 100 sensors).
	Stations int
	// Deployments is the number of independent deployments (paper: 5
	// source nodes); station i belongs to deployment i % Deployments and
	// publishes on that deployment's stream.
	Deployments int
	// PeriodMillis is the sampling period per station.
	PeriodMillis int64
	Seed         uint64
}

// DefaultConfig mirrors the prototype study's setup.
func DefaultConfig() Config {
	return Config{Stations: 100, Deployments: 5, PeriodMillis: 1000, Seed: 1}
}

// Generator produces tuples for a set of stations.
type Generator struct {
	Cfg      Config
	Stations []*Station
	now      int64
}

// SensorTypes lists the station classes in rotation order.
var SensorTypes = []string{"snow", "weather", "wind"}

// Schema returns the reading schema shared by all deployment streams.
func Schema() stream.Schema {
	return stream.Schema{Attrs: []stream.Attribute{
		{Name: "station", Type: stream.Int},
		{Name: "sensorType", Type: stream.String},
		{Name: "snowHeight", Type: stream.Float},
		{Name: "temperature", Type: stream.Float},
		{Name: "windSpeed", Type: stream.Float},
	}}
}

// StreamName returns the stream name of deployment d.
func StreamName(d int) string { return fmt.Sprintf("Deployment%d", d) }

// New builds a generator with deterministic station characteristics.
func New(cfg Config) (*Generator, error) {
	if cfg.Stations < 1 || cfg.Deployments < 1 {
		return nil, fmt.Errorf("trace: need >=1 stations and deployments, got %d/%d",
			cfg.Stations, cfg.Deployments)
	}
	if cfg.PeriodMillis <= 0 {
		cfg.PeriodMillis = 1000
	}
	g := &Generator{Cfg: cfg}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x7ace))
	for i := 0; i < cfg.Stations; i++ {
		g.Stations = append(g.Stations, &Station{
			Stream:     StreamName(i % cfg.Deployments),
			SensorType: SensorTypes[i%len(SensorTypes)],
			baseSnow:   20 + rng.Float64()*60,  // cm
			baseTemp:   -15 + rng.Float64()*20, // °C
			baseWind:   2 + rng.Float64()*10,   // m/s
			drift:      (rng.Float64() - 0.5) * 0.01,
			rng:        rand.New(rand.NewPCG(cfg.Seed+uint64(i)+1, 0x5eed)),
		})
	}
	return g, nil
}

// Next advances time by one period and returns the batch of readings, one
// per station, all stamped with the new timestamp.
func (g *Generator) Next() []stream.Tuple {
	g.now += g.Cfg.PeriodMillis
	out := make([]stream.Tuple, 0, len(g.Stations))
	for i, s := range g.Stations {
		out = append(out, s.reading(i, g.now))
	}
	return out
}

// reading produces one tuple: a diurnal sinusoid plus drift and noise.
func (s *Station) reading(idx int, now int64) stream.Tuple {
	dayFrac := float64(now%86_400_000) / 86_400_000
	diurnal := math.Sin(2 * math.Pi * dayFrac)
	noise := func(scale float64) float64 { return (s.rng.Float64() - 0.5) * scale }

	snow := s.baseSnow + s.drift*float64(now)/1000 - 2*diurnal + noise(1.5)
	if snow < 0 {
		snow = 0
	}
	temp := s.baseTemp + 5*diurnal + noise(1)
	wind := s.baseWind + 2*math.Abs(diurnal) + noise(2)
	if wind < 0 {
		wind = 0
	}
	attrs := map[string]stream.Value{
		"station":     stream.IntVal(int64(idx)),
		"sensorType":  stream.StringVal(s.SensorType),
		"snowHeight":  stream.FloatVal(snow),
		"temperature": stream.FloatVal(temp),
		"windSpeed":   stream.FloatVal(wind),
	}
	return stream.Tuple{
		Stream:    s.Stream,
		Timestamp: now,
		Attrs:     attrs,
		Size:      16 + 8*len(attrs),
	}
}

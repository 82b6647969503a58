package trace

import (
	"testing"
)

func TestGeneratorBasics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stations = 12
	cfg.Deployments = 3
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	batch := g.Next()
	if len(batch) != 12 {
		t.Fatalf("batch = %d readings", len(batch))
	}
	streams := make(map[string]int)
	for _, r := range batch {
		streams[r.Stream]++
		if r.Timestamp != g.now {
			t.Errorf("reading timestamp %d != now %d", r.Timestamp, g.now)
		}
		for _, attr := range []string{"station", "sensorType", "snowHeight", "temperature", "windSpeed"} {
			if _, ok := r.Attrs[attr]; !ok {
				t.Errorf("reading missing %s", attr)
			}
		}
		if snow := r.Attrs["snowHeight"].F; snow < 0 {
			t.Errorf("negative snow height %v", snow)
		}
		if wind := r.Attrs["windSpeed"].F; wind < 0 {
			t.Errorf("negative wind speed %v", wind)
		}
	}
	if len(streams) != 3 {
		t.Errorf("streams = %v, want 3 deployments", streams)
	}
	for name, n := range streams {
		if n != 4 {
			t.Errorf("stream %s has %d stations, want 4", name, n)
		}
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stations = 6
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ba, bb := a.Next(), b.Next()
	for i := range ba {
		if ba[i].Attrs["snowHeight"].F != bb[i].Attrs["snowHeight"].F {
			t.Fatalf("station %d diverges between identical seeds", i)
		}
	}
}

func TestTimestampsAdvance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stations = 2
	cfg.PeriodMillis = 500
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t1 := g.Next()[0].Timestamp
	t2 := g.Next()[0].Timestamp
	if t2-t1 != 500 {
		t.Errorf("period = %d, want 500", t2-t1)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{Stations: 0, Deployments: 1}); err == nil {
		t.Error("zero stations accepted")
	}
	if _, err := New(Config{Stations: 5, Deployments: 0}); err == nil {
		t.Error("zero deployments accepted")
	}
}

func TestSensorTypesRotate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stations = 9
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, s := range g.Stations {
		counts[s.SensorType]++
	}
	for _, typ := range SensorTypes {
		if counts[typ] != 3 {
			t.Errorf("type %s count = %d, want 3", typ, counts[typ])
		}
	}
}

package metrics

import (
	"sync"
	"testing"
)

func TestCounterRegistry(t *testing.T) {
	r := new(Registry)
	a := r.Counter("test.counters.a")
	if again := r.Counter("test.counters.a"); again != a {
		t.Fatal("Counter returned a different instance for the same name")
	}
	rolled := Counters()["test.counters.a"]
	a.Inc()
	a.Add(4)
	if got := a.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	if got := r.Snapshot()["test.counters.a"]; got != 5 {
		t.Fatalf("snapshot value = %d, want 5", got)
	}
	// A second registry counts apart, and both roll up into Default.
	r2 := new(Registry)
	r2.Counter("test.counters.a").Add(2)
	if got := a.Value(); got != 5 {
		t.Fatalf("another registry moved this one's counter to %d", got)
	}
	if got := Counters()["test.counters.a"] - rolled; got != 7 {
		t.Fatalf("Default moved by %d, want the two registries' sum 7", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := new(Registry).Counter("test.counters.concurrent")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent increments lost: %d, want 8000", got)
	}
}

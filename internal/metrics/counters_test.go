package metrics

import (
	"sync"
	"testing"
)

func TestCounterRegistry(t *testing.T) {
	a := GetCounter("test.counters.a")
	if again := GetCounter("test.counters.a"); again != a {
		t.Fatal("GetCounter returned a different instance for the same name")
	}
	base := a.Value()
	a.Inc()
	a.Add(4)
	if got := a.Value(); got != base+5 {
		t.Fatalf("counter value = %d, want %d", got, base+5)
	}
	snap := Counters()
	if snap["test.counters.a"] != base+5 {
		t.Fatalf("snapshot value = %d, want %d", snap["test.counters.a"], base+5)
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := GetCounter("test.counters.concurrent")
	base := c.Value()
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
	if got := c.Value(); got != base+8000 {
		t.Fatalf("concurrent increments lost: %d, want %d", got, base+8000)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/metrics"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer (or between two arrival stamps). Spans of one operation share a
// trace id — the tuple's sequence number or the operation's index — and
// name the span that caused them; Root names the operation they belong to.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Root   string `json:"root"`
	Trace  int64  `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call records a flat span around one call: its own root, no parent.
func (t *tracer) call(name string, id int64, start, end int64) {
	t.add(span{Name: name, Root: name, Trace: id, Start: start, End: end})
}

// budget folds the spans into the per-layer budget table: for every span
// name, the self time (duration minus the time its child spans cover) over
// all its instances, and the share of its root operation's total time. A
// root row carries the operation's whole duration; the rows under it tile
// it, so their shares sum to 1.
func (t *tracer) budget() []budgetRow {
	type key struct {
		root  string
		trace int64
	}
	childTime := make(map[key]map[string]int64) // per operation: parent name -> covered ns
	for _, s := range t.spans {
		if s.Parent == "" {
			continue
		}
		k := key{s.Root, s.Trace}
		if childTime[k] == nil {
			childTime[k] = make(map[string]int64)
		}
		childTime[k][s.Parent] += s.End - s.Start
	}
	type agg struct {
		root string
		self []float64
	}
	type rowKey struct{ root, name string }
	byName := make(map[rowKey]*agg)
	var order []rowKey
	rootTotal := make(map[string]float64)
	for _, s := range t.spans {
		self := s.End - s.Start
		if s.Name != s.Root {
			// A root row keeps its whole duration: it is the figure
			// the rows under it must sum to.
			self -= childTime[key{s.Root, s.Trace}][s.Name]
		}
		if self < 0 {
			self = 0
		}
		rk := rowKey{s.Root, s.Name}
		a := byName[rk]
		if a == nil {
			a = &agg{root: s.Root}
			byName[rk] = a
			order = append(order, rk)
		}
		a.self = append(a.self, float64(self)/1e3)
		if s.Name == s.Root {
			rootTotal[s.Root] += float64(s.End-s.Start) / 1e3
		}
	}
	rows := make([]budgetRow, 0, len(order))
	for _, rk := range order {
		a := byName[rk]
		var total float64
		for _, v := range a.self {
			total += v
		}
		row := budgetRow{Root: a.root, Name: rk.name, Count: len(a.self), MeanUs: metrics.Mean(a.self), P50Us: metrics.Median(a.self)}
		if rt := rootTotal[a.root]; rt > 0 {
			row.Share = total / rt
		}
		rows = append(rows, row)
	}
	return rows
}

func printBudget(w io.Writer, wl string, rows []budgetRow) {
	fmt.Fprintf(w, "budget table — %s (self time per span name; share is of the root operation)\n", wl)
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %7s\n", "span", "count", "mean_us", "p50_us", "share")
	for _, r := range rows {
		name := r.Name
		if name != r.Root {
			name = "  " + name
		}
		fmt.Fprintf(w, "  %-28s %8d %12.2f %12.2f %6.1f%%\n", name, r.Count, r.MeanUs, r.P50Us, 100*r.Share)
	}
}

// writeTo dumps the spans as JSON lines.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write span: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush %s: %w", path, err)
	}
	return f.Close()
}

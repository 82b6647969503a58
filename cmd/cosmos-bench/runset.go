package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
)

// runSetFile is what a run set writes and -compare reads.
type runSetFile struct {
	Seconds float64   `json:"seconds"`
	Runs    []*result `json:"runs"`
}

// runSet runs every workload `repeat` times, each run in a fresh child
// process — a clean heap and a clean process-global counter registry — and
// prints the set as JSON. With tracing on, every untraced run is followed
// by a traced run of half the length, which carries the per-layer metrics
// and the budget table.
func runSet(seed uint64, seconds float64, trace bool, repeat int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-bench:", err)
		return 1
	}
	set := runSetFile{Seconds: seconds}
	code := 0
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			modes := []bool{false}
			if trace {
				modes = append(modes, true)
			}
			for _, traced := range modes {
				secs := seconds
				if traced {
					secs = seconds / 2
				}
				res, err := runChild(self, w.Name, seed+uint64(rep), secs, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "cosmos-bench: %s: %v\n", w.Name, err)
					code = 1
					continue
				}
				if !res.Correct {
					code = 1
				}
				printResult(os.Stderr, res)
				set.Runs = append(set.Runs, res)
			}
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-bench:", err)
		return 1
	}
	data = append(data, '\n')
	if out != "" {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cosmos-bench:", err)
			return 1
		}
	}
	if _, err := os.Stdout.Write(data); err != nil {
		return 1
	}
	return code
}

// runChild runs one workload in a child process and parses the full result
// off the last line of its standard output.
func runChild(self, workload string, seed uint64, seconds float64, traced bool) (*result, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", t, "--full")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("parse child result: %w", err)
	}
	return &res, nil // a child that printed a result exits 1 only for an oracle mismatch
}

// printResult lists every metric of one run by name, with unit and sample
// count.
func printResult(w io.Writer, r *result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d %.0fs %s: correct=%v valid=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Correct, r.Valid, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		if r.Trace && m.N == 0 {
			continue // a layer this workload does not exercise
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-8s n=%d\n", name, m.Value, m.Unit, m.N)
	}
}

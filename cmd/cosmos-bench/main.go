// Command cosmos-bench is the repository's end-to-end benchmark: five
// workloads over real TCP overlays, the in-memory query middleware and the
// optimizer, each checked against a reference, with a per-layer budget
// table from a traced run. README.md describes the workloads, the metrics
// and how to read the output; BENCHMARK.json at the repo root is the
// driver's view of it.
//
//	cosmos-bench --workload chain_relay --seed 1 --seconds 20 --trace 0
//	    one workload in this process; the last line of standard output is
//	    the result object {correct, attempted, failed, metrics}
//	cosmos-bench [-repeat N] [-trace 1] [-out set.json]
//	    a run set: every workload, each in a fresh child process
//	cosmos-bench -compare a.json b.json
//	    compare two run sets against the end-to-end bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("cosmos-bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in-process (default: a run set of all, each in a child process)")
	seed := fs.Uint64("seed", 1, "seed of every generated subscription, tuple and query")
	seconds := fs.Float64("seconds", runSeconds, "seconds one run measures")
	trace := fs.Int("trace", 0, "1: traced run, reports the per-layer metrics and the budget table; 0: end-to-end metrics")
	traceOut := fs.String("trace-out", "", "traced run: write the spans here as JSON lines")
	full := fs.Bool("full", false, "print the full result object (sample counts, notes, budget, environment) as the last line")
	out := fs.String("out", "", "run set: also write the set here")
	repeat := fs.Int("repeat", 1, "run set: runs per workload, on seeds seed..seed+repeat-1")
	compare := fs.Bool("compare", false, "compare two run-set files given as arguments")
	printSpec := fs.Bool("print-spec", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(currentSpec()); err != nil {
			fmt.Fprintln(os.Stderr, "cosmos-bench:", err)
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "cosmos-bench: -compare takes two run-set files")
			return 2
		}
		return compareSets(os.Stdout, fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0:
		fmt.Fprintf(os.Stderr, "cosmos-bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *workload == "":
		return runSet(*seed, *seconds, *trace != 0, *repeat, *out)
	}

	res, err := runWorkload(*workload, *seed, *seconds, *trace != 0, 1, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-bench:", err)
		return 1
	}
	var line []byte
	if *full {
		line, err = json.Marshal(res)
	} else {
		line, err = json.Marshal(contractLine(res))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process and returns its result. An
// error means the workload could not run at all; an oracle mismatch is a
// result with Correct false.
func runWorkload(name string, seed uint64, seconds float64, trace bool, scale float64, traceOut string) (*result, error) {
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].Name == name {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 || scale <= 0 {
		return nil, fmt.Errorf("seconds and scale must be positive")
	}
	ctx := newRunCtx(name, seed, seconds, trace, scale)
	if err := spec.run(ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	ctx.finish()
	if trace {
		ctx.res.Budget = ctx.tr.budget()
		printBudget(os.Stderr, name, ctx.res.Budget)
		if traceOut != "" {
			if err := ctx.tr.writeTo(traceOut); err != nil {
				return nil, err
			}
		}
	}
	return ctx.res, nil
}

// contract is the result object the benchmark driver reads: with tracing
// off every end-to-end metric, with it on every per-layer metric.
type contract struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractLine(r *result) contract {
	c := contract{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]contractMetric)}
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	for _, s := range specs {
		m := r.Metrics[s.Name]
		c.Metrics[s.Name] = contractMetric{Value: m.Value, Unit: s.Unit}
	}
	return c
}

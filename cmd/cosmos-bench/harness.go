package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// epoch anchors the benchmark's one clock: every stamp is nanoseconds of
// monotonic time since process start.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// metricValue is one reported number with its unit and sample count.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// budgetRow is one line of the per-layer budget table: a span name with its
// self time over the traced operations. A root row carries the operation's
// whole duration; the rows under it tile it.
type budgetRow struct {
	Root   string  `json:"root"`
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	Share  float64 `json:"share"`
}

type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

// result is everything one run of one workload produced. The driver's
// contract line is a projection of it (see contractLine).
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Valid     bool                   `json:"valid"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Budget    []budgetRow            `json:"budget,omitempty"`
	Env       envInfo                `json:"env"`
}

// runCtx is what a workload sees: its parameters and the sinks for metrics,
// operation counts and oracle verdicts.
type runCtx struct {
	seed    uint64
	seconds float64
	trace   bool
	// scale shrinks populations (subscriptions, queries) for the smoke
	// test; 1 is the benchmark's size.
	scale float64
	res   *result
	tr    *tracer
}

func newRunCtx(wl string, seed uint64, seconds float64, trace bool, scale float64) *runCtx {
	c := &runCtx{seed: seed, seconds: seconds, trace: trace, scale: scale}
	c.res = &result{
		Workload: wl, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: true, Valid: true,
		Metrics: make(map[string]metricValue),
		Env: envInfo{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		},
	}
	if trace {
		c.tr = &tracer{}
	}
	return c
}

var specUnits = func() map[string]string {
	m := make(map[string]string)
	for _, s := range endToEnd {
		m[s.Name] = s.Unit
	}
	for _, s := range perLayer {
		m[s.Name] = s.Unit
	}
	return m
}()

// set records a metric; the name must be in the spec.
func (c *runCtx) set(name string, v float64, n int) {
	unit, ok := specUnits[name]
	if !ok {
		panic("cosmos-bench: metric not in spec: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		c.failf("metric %s is %v", name, v)
		v = 0
	}
	c.res.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

// failf records an oracle mismatch: the run is incorrect and exits non-zero.
func (c *runCtx) failf(format string, args ...any) {
	c.res.Correct = false
	c.note("ORACLE: "+format, args...)
}

// invalidf marks a measurement the generator could not make honestly (ran
// late, backlog grew): the number is the harness's, not the system's.
func (c *runCtx) invalidf(format string, args ...any) {
	c.res.Valid = false
	c.note("INVALID: "+format, args...)
}

func (c *runCtx) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.res.Notes = append(c.res.Notes, msg)
	fmt.Fprintln(os.Stderr, "cosmos-bench:", c.res.Workload+":", msg)
}

// ops counts operations against the number attempted.
func (c *runCtx) ops(attempted, failed int64) {
	c.res.Attempted += attempted
	c.res.Failed += failed
}

// scaled shrinks a population by the smoke-test scale, keeping at least min.
func (c *runCtx) scaled(n, min int) int {
	v := int(float64(n) * c.scale)
	if v < min {
		v = min
	}
	return v
}

// dur is a share of the run's measured seconds.
func (c *runCtx) dur(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// finish fills in the harness metrics and the per-layer metrics a workload
// had no work for.
func (c *runCtx) finish() {
	r := c.res
	if r.Attempted < 1 {
		c.failf("no operation attempted")
		r.Attempted = 1
	}
	if r.Failed > 0 {
		c.failf("%d of %d operations failed", r.Failed, r.Attempted)
	}
	if c.trace {
		c.set("bench.loss_ratio", float64(r.Failed)/float64(r.Attempted), int(r.Attempted))
		c.set("bench.valid", b2f(r.Valid), 1)
		for _, s := range perLayer {
			if _, ok := r.Metrics[s.Name]; !ok {
				r.Metrics[s.Name] = metricValue{Unit: s.Unit}
			}
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapMB is the live heap after a collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// repeatSetup runs a workload's set-up several times — at least three, and
// up to forty while they add up to under a tenth of the run's measured
// seconds — and returns the
// durations in seconds plus the last instance, which the run then measures;
// earlier instances are torn down. One set-up is too noisy to guard: on the
// wire workloads it is a handful of dials and flush windows.
func repeatSetup[T any](ctx *runCtx, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	var durs []float64
	var total float64
	for i := 0; i < 3 || (i < 40 && total < ctx.seconds/10); i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		t0 := nowNs()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		d := float64(nowNs()-t0) / 1e9
		durs = append(durs, d)
		total += d
		last = v
	}
	return last, durs, nil
}

// ---- statistics ----

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile off a sorted sample (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func nsToFloat(xs []int64, div float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / div
	}
	return out
}

// tailQuantile reports the q-quantile only where at least ten samples lie
// beyond it; a tail read off fewer is noise.
func tailQuantile(sorted []float64, q float64) (float64, bool) {
	if float64(len(sorted))*(1-q) < 10 {
		return 0, false
	}
	return quantile(sorted, q), true
}

// sleepUntil sleeps (never spins) until the clock reads t.
func sleepUntil(t int64) {
	if d := t - nowNs(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// waitFor polls pred until it holds or the timeout ends, sleeping between
// polls. A sleep lasts at least one timer tick — 1.1 ms on the reference
// box, whatever is asked — so that is the resolution of everything timed
// through it; spinning instead would burn one of the two cores the system
// under test needs.
func waitFor(timeout time.Duration, pred func() bool) bool {
	deadline := nowNs() + int64(timeout)
	for {
		if pred() {
			return true
		}
		if nowNs() > deadline {
			return false
		}
		time.Sleep(20 * time.Microsecond)
	}
}

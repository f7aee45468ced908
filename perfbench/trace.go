package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program,
// recorded from the benchmark's side of the call. Spans of one public
// call or one request share a root: Parent names the span that caused it
// (0 for a root).
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent,omitempty"`
	Name    string             `json:"name"`
	StartMs float64            `json:"startMs"`
	EndMs   float64            `json:"endMs"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory for the traced run and writes them out
// once at exit. A disabled tracer records nothing, so the end-to-end runs
// pay only a nil check.
type tracer struct {
	on    bool
	dir   string // where the span file and replay scratch go
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool, dir string) *tracer { return &tracer{on: on, dir: dir, t0: time.Now()} }

// add records a finished span and returns its ID (0 when disabled).
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]float64) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartMs: ms(start.Sub(t.t0)), EndMs: ms(end.Sub(t.t0)),
		Attrs: attrs,
	})
	return id
}

// timeCall runs fn, records it as a root span and returns its duration.
func (t *tracer) timeCall(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add(0, name, start, end, nil)
	return end.Sub(start), err
}

// write stores the spans as JSON under the tracer's directory.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(t.dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	t.mu.Lock()
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}

// metricDef names one reported metric. The lists below are the contract
// BENCHMARK.json declares; TestBenchmarkJSONMatches keeps them in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"solve_s", "s", "lower"},
	{"final_cost", "U", "lower"},
	{"heap_retained_mib", "MiB", "lower"},
	{"alloc_mib", "MiB", "lower"},
	{"plan_p50_ms", "ms", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
}

var perLayer = []metricDef{
	{"tail.plan_p99_ms", "ms", "lower"},
	{"tail.query_p99_ms", "ms", "lower"},
	{"topology.build_ms", "ms", "lower"},
	{"topology.retained_mib", "MiB", "lower"},
	{"markov.solve_ms", "ms", "lower"},
	{"cost.sweep_ms", "ms", "lower"},
	{"cost.probe_ms", "ms", "lower"},
	{"cost.gradient_ms", "ms", "lower"},
	{"descent.iters", "count", "lower"},
	{"descent.probes_per_iter", "count", "lower"},
	{"descent.accept_ratio", "ratio", "higher"},
	{"descent.iter_ms", "ms", "lower"},
	{"descent.probe_share", "ratio", "lower"},
	{"descent.explained", "ratio", "higher"},
	{"par.probe_waste", "ratio", "lower"},
	{"fleet.eval_ms", "ms", "lower"},
	{"fleet.gradient_ms", "ms", "lower"},
	{"fleet.iters", "count", "lower"},
	{"fleet.probes_per_iter", "count", "lower"},
	{"coverage.persist_ms", "ms", "lower"},
	{"coverage.fingerprint_us", "us", "lower"},
	{"jobs.queue_wait_ms", "ms", "lower"},
	{"jobs.run_ms", "ms", "lower"},
	{"jobs.ckpt_puts", "count", "lower"},
	{"jobs.ckpt_kib", "KiB", "lower"},
	{"jobs.ckpt_put_ms", "ms", "lower"},
	{"plans.query_direct_ms", "ms", "lower"},
	{"plans.hit_ratio", "ratio", "higher"},
	{"plans.fill_jobs_per_miss", "ratio", "lower"},
	{"http.overhead_ms", "ms", "lower"},
	{"http.requests", "count", "higher"},
	{"http.non2xx", "count", "lower"},
}

// replayStats are the per-call layer timings replayed on a workload's own
// start and plan matrices, plus the descent counts read from the
// IterationEvent hook of its traced public calls. For a fleet, one probe
// and one gradient cover the whole K-matrix stack (fleet.Model), while
// the markov/cost rows stay per sensor.
type replayStats struct {
	solveMs, sweepMs, probeMs, gradientMs float64
	fleetProbeMs, fleetGradientMs         float64
	sensors                               int
	iters                                 int
	probesPerIter, acceptRatio, iterMs    float64
	workers                               int
}

// fill writes the markov/cost/descent rows into layer.
func (r replayStats) fill(layer map[string]float64) {
	layer["markov.solve_ms"] = r.solveMs
	layer["cost.sweep_ms"] = r.sweepMs
	layer["cost.probe_ms"] = r.probeMs
	layer["cost.gradient_ms"] = r.gradientMs
	layer["descent.iters"] = float64(r.iters)
	layer["descent.probes_per_iter"] = r.probesPerIter
	layer["descent.accept_ratio"] = r.acceptRatio
	layer["descent.iter_ms"] = r.iterMs
	layer["descent.probe_share"] = r.probeTime() / r.iterMs
	layer["descent.explained"] = r.explained()
}

// probe and gradient return the cost of one line-search probe and one
// gradient as the descent sees them: the whole stack for a fleet.
func (r replayStats) probe() float64 {
	if r.sensors > 0 {
		return r.fleetProbeMs
	}
	return r.probeMs
}

func (r replayStats) gradient() float64 {
	if r.sensors > 0 {
		return r.fleetGradientMs
	}
	return r.gradientMs
}

// probeTime is the wall time the probes of one iteration take, assuming
// the batched probes overlap perfectly on the descent's workers.
func (r replayStats) probeTime() float64 {
	return r.probesPerIter * r.probe() / float64(max(r.workers, 1))
}

func (r replayStats) explained() float64 {
	return (r.probeTime() + r.gradient()) / r.iterMs
}

// printLedger writes the per-layer breakdown of one descent iteration in
// the shape of the ROADMAP Baseline: probe share, the probe's split into
// Markov solve and cover sweep, the gradient, and how much of the
// measured iteration the replayed calls account for.
func (r replayStats) printLedger(w io.Writer, title string) {
	pct := func(v float64) float64 { return 100 * v / r.iterMs }
	fmt.Fprintf(w, "ledger %s: one iteration = %.3f ms (%d iterations, workers=%d, sensors=%d)\n",
		title, r.iterMs, r.iters, r.workers, max(r.sensors, 1))
	fmt.Fprintf(w, "  %-30s %10.3f ms  %6.1f%%\n",
		fmt.Sprintf("probes %.1f x %.3f ms", r.probesPerIter, r.probe()), r.probeTime(), pct(r.probeTime()))
	split := func(v float64) float64 { return 100 * v / r.probeMs }
	fmt.Fprintf(w, "    %-28s %10.3f ms  %6.1f%% of a sensor probe\n", "markov solve (pi, Z, Z2)", r.solveMs, split(r.solveMs))
	fmt.Fprintf(w, "    %-28s %10.3f ms  %6.1f%% of a sensor probe\n", "cost sweep (cover+exposure)", r.sweepMs, split(r.sweepMs))
	fmt.Fprintf(w, "  %-30s %10.3f ms  %6.1f%%\n", "gradient", r.gradient(), pct(r.gradient()))
	fmt.Fprintf(w, "  %-30s %10s     %6.1f%%\n", "explained", "", 100*r.explained())
}

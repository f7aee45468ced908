// Command perfbench is the repository's benchmark: it runs one workload
// of the optimizer or of the serving stack for a fixed time, checks every
// output, and prints the end-to-end metrics — or, with --trace 1, the
// per-layer metrics, a ledger of where one descent iteration goes, and a
// span file. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.0091, "unit": "s"}, ...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	sh perfbench/run.sh --workload grid64-dense --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	grid64-dense    coverage.Optimize on an 8×8 grid, dense solver, 1 worker
//	city256-sparse  coverage.Optimize on 256 placed PoIs, sparse solver, 2 workers
//	fleet3-grid64   coverage.OptimizeFleet with 3 sensors on the 8×8 grid
//	serve-mix       jobs + plans + obs stack over loopback HTTP: one writer
//	                submitting small jobs beside one exact-hit query reader
//
// Every input is generated from --seed; the program under test only sees
// the generated scenarios.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// result is what one run measured.
type result struct {
	attempted, failed int
	errs              []string
	notes             []string
	e2e               map[string]float64
	layer             map[string]float64
	ledger            *replayStats
}

// newResult starts the per-layer rows the workload does not exercise at
// zero (no work); every other row must be measured, or report fails it.
func newResult(workload string) *result {
	r := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, d := range perLayer {
		if !applies(workload, d.Name) {
			r.layer[d.Name] = 0
		}
	}
	return r
}

// applies reports whether a workload exercises the layer of a per-layer
// row, named by the row's prefix.
func applies(workload, row string) bool {
	layer, _, _ := strings.Cut(row, ".")
	switch layer {
	case "tail", "coverage":
		return true
	case "fleet":
		return optWorkloads[workload].sensors > 0
	case "jobs", "plans", "http":
		return workload == "serve-mix"
	default: // topology, markov, cost, descent, par
		return workload != "serve-mix"
	}
}

// fail records one failed operation or output check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human-readable lines and returns the JSON summary:
// the end-to-end metrics, or the per-layer ones for a traced run. A
// metric that was not measured counts as a failed check.
func (r *result) report(w io.Writer, workload string, traced bool) summary {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	s := summary{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s was not measured", d.Name)
			v = 0
		}
		s.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	s.Correct = r.failed == 0
	s.Attempted, s.Failed = max(r.attempted, 1), r.failed

	for _, n := range r.notes {
		fmt.Fprintf(w, "%s: %s\n", workload, n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "%s: CHECK FAILED: %s\n", workload, e)
	}
	fmt.Fprintf(w, "%s: %d operations, %d failed, error_ratio %.4g\n",
		workload, r.attempted, r.failed, float64(r.failed)/float64(s.Attempted))
	show := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
		}
	}
	if traced {
		fmt.Fprintf(w, "%s: end-to-end values with tracing on\n", workload)
	}
	show(endToEnd, r.e2e)
	if traced {
		fmt.Fprintf(w, "%s: per-layer\n", workload)
		show(perLayer, r.layer)
		if r.ledger != nil {
			r.ledger.printLedger(w, workload)
		}
	}
	return s
}

func workloadNames() []string {
	names := []string{"serve-mix"}
	for n := range optWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func runWorkload(name string, seed uint64, window time.Duration, tr *tracer) (*result, error) {
	if name == "serve-mix" {
		return runServe(seed, window, tr)
	}
	s, ok := optWorkloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	return runOptimizer(name, s, seed, window, tr)
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	var (
		workload = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", 1, "input seed")
		seconds  = fs.Float64("seconds", 10, "length of the timed window")
		trace    = fs.Int("trace", 0, "1 for the traced run (per-layer metrics, ledger, span file)")
		out      = fs.String("out", ".bench_build/perfbench-traces", "directory for span files and the traced checkpoint replay")
	)
	fs.Parse(os.Args[1:])
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	tr := newTracer(*trace == 1, *out)
	res, err := runWorkload(*workload, *seed, time.Duration(*seconds*float64(time.Second)), tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if tr.on {
		path, err := tr.write(*workload, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d spans written to %s\n", *workload, len(tr.spans), path)
	}
	s := res.report(os.Stdout, *workload, tr.on)
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !s.Correct {
		os.Exit(1)
	}
}

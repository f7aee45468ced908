package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"sort"
	"testing"
)

// solveCounts are the exact counts of one public call: they repeat bit
// for bit on the same inputs, whatever the machine's speed.
type solveCounts struct {
	iters         int
	probesPerIter float64
	cost          float64
	allocMiB      float64
}

func countSolve(t *testing.T, name string, seed uint64) solveCounts {
	t.Helper()
	s := optWorkloads[name]
	p, err := buildProblem(s, genOptInputs(name, s, seed))
	if err != nil {
		t.Fatal(err)
	}
	var log iterLog
	a0 := totalAlloc()
	plan, err := p.optimize(s.workers, log.hook)
	a1 := totalAlloc()
	if err != nil {
		t.Fatal(err)
	}
	return solveCounts{
		iters:         len(log.events),
		probesPerIter: log.probesPerIter(),
		cost:          plan.Cost,
		allocMiB:      mib(a1 - a0),
	}
}

// TestExactCounts runs every optimizer workload twice per seed and
// requires identical iteration counts and final cost, and — at one
// worker, where the line search is serial — identical probes per
// iteration and allocated bytes within 0.1%: a sync.Pool refilled after a
// collection moves a few KiB between otherwise identical calls. A second
// seed must change the inputs without breaking that.
func TestExactCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every optimizer workload four times")
	}
	for _, name := range workloadNames() {
		s, ok := optWorkloads[name]
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			costs := map[uint64]float64{}
			countSolve(t, name, 1) // settle lazily initialized package state
			for _, seed := range []uint64{1, 2} {
				a, b := countSolve(t, name, seed), countSolve(t, name, seed)
				if a.iters != b.iters || math.Float64bits(a.cost) != math.Float64bits(b.cost) {
					t.Errorf("seed %d: iterations %d/%d, cost %v/%v", seed, a.iters, b.iters, a.cost, b.cost)
				}
				if s.workers == 1 && (a.probesPerIter != b.probesPerIter || math.Abs(a.allocMiB-b.allocMiB) > 1e-3*a.allocMiB) {
					t.Errorf("seed %d: probes/iter %v/%v, alloc %v/%v MiB", seed, a.probesPerIter, b.probesPerIter, a.allocMiB, b.allocMiB)
				}
				if a.iters == 0 || a.probesPerIter == 0 {
					t.Errorf("seed %d: no descent work recorded: %+v", seed, a)
				}
				costs[seed] = a.cost
			}
			if costs[1] == costs[2] {
				t.Errorf("seeds 1 and 2 gave the same cost %v: the seed does not reach the inputs", costs[1])
			}
		})
	}
}

// checkpointPuts submits n serve-mix jobs through HTTP and returns each
// job's checkpoint put count.
func checkpointPuts(t *testing.T, seed uint64, n int) []int {
	t.Helper()
	in, err := genServeInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := bootStack(in.prefill[:serveBatch], false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.shutdown(); err != nil {
			t.Error(err)
		}
	}()
	run := &serveRun{st: st, in: in, tr: newTracer(false, ""), cli: &http.Client{}}
	defer run.cli.CloseIdleConnections()
	var puts []int
	for i := 0; i < n; i++ {
		rec, err := run.writeJob(i)
		if err != nil {
			t.Fatal(err)
		}
		puts = append(puts, st.store.jobStat(rec.id).puts)
	}
	return puts
}

func TestCheckpointPutsRepeat(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		a, b := checkpointPuts(t, seed, 3), checkpointPuts(t, seed, 3)
		if !reflect.DeepEqual(a, b) || a[0] == 0 {
			t.Errorf("seed %d: checkpoint puts per job %v then %v", seed, a, b)
		}
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames())
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer %v, program reports %v", bf.PerLayer, perLayer)
	}
}

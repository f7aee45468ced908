package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/coverage"
	"repro/internal/cost"
	"repro/internal/fleet"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/par"
)

// optSpec fixes one optimizer workload: the field, the solver and worker
// count of the public call, and how many iterations one call runs.
type optSpec struct {
	rows, cols int     // grid field; 0 for a placed city
	cityM      int     // PoIs placed in a side×side square
	side       float64 // city square side
	sensors    int     // 0 for the single-sensor Optimize
	solver     string
	workers    int
	maxIters   int
}

// Set-up repeats for at least setupBudget and setupMin times.
const (
	setupBudget = time.Second
	setupMin    = 5
)

// Calls are a few iterations long so a run holds many of them: on a host
// shared with other machines, the median over many short calls moves far
// less from run to run than the median over a few long ones. Every
// iteration still runs the full ~40-probe line search.
var optWorkloads = map[string]optSpec{
	"grid64-dense":   {rows: 8, cols: 8, solver: "dense", workers: 1, maxIters: 3},
	"city256-sparse": {cityM: 256, side: 16, solver: "sparse", workers: 2, maxIters: 1},
	"fleet3-grid64":  {rows: 8, cols: 8, sensors: 3, solver: "dense", workers: 1, maxIters: 2},
}

var benchObjectives = coverage.Objectives{Alpha: 1, Beta: 1e-3}

// optInputs is everything a workload seed generates: the targets, the
// PoI placement of a city, and one start matrix per sensor.
type optInputs struct {
	name   string
	target []float64
	pois   []coverage.PoI
	start  [][][]float64
}

func (s optSpec) m() int {
	if s.cityM > 0 {
		return s.cityM
	}
	return s.rows * s.cols
}

func genOptInputs(name string, s optSpec, seed uint64) optInputs {
	m := s.m()
	in := optInputs{name: name, target: target(stream(seed, streamTarget), m, 0.2)}
	if s.cityM > 0 {
		in.pois = cityPoIs(stream(seed, streamPlace), m, s.side)
	}
	r := stream(seed, streamStart)
	for k := 0; k < max(s.sensors, 1); k++ {
		in.start = append(in.start, stochastic(r, m))
	}
	return in
}

// problem is a built scenario together with the public call's options.
type problem struct {
	spec optSpec
	scn  coverage.Scenario
	obj  coverage.Objectives
	opts coverage.Options
}

// buildProblem turns generated inputs into a scenario and validates it —
// the work setup_s times.
func buildProblem(s optSpec, in optInputs) (*problem, error) {
	var scn coverage.Scenario
	if s.cityM > 0 {
		scn = coverage.Scenario{Name: in.name, PoIs: in.pois, Target: in.target}
	} else {
		var err error
		if scn, err = coverage.GridScenario(in.name, s.rows, s.cols, in.target); err != nil {
			return nil, err
		}
	}
	p := &problem{spec: s, scn: scn, obj: benchObjectives, opts: coverage.Options{
		MaxIters: s.maxIters,
		Seed:     1,
		Workers:  s.workers,
		Solver:   s.solver,
	}}
	if s.sensors > 0 {
		p.opts.InitialMatrices = in.start
		return p, coverage.ValidateFleet(scn, p.obj, s.sensors, nil)
	}
	p.opts.InitialMatrix = in.start[0]
	return p, coverage.Validate(scn, p.obj)
}

// optimize is the public call under test.
func (p *problem) optimize(workers int, onIter func(coverage.IterationEvent)) (*coverage.Plan, error) {
	opts := p.opts
	opts.Workers = workers
	opts.OnIteration = onIter
	if p.spec.sensors > 0 {
		return coverage.OptimizeFleet(p.scn, p.obj, opts, p.spec.sensors, nil)
	}
	return coverage.Optimize(p.scn, p.obj, opts)
}

// matrices returns every transition matrix of a plan (K for a fleet).
func matrices(plan *coverage.Plan) [][][]float64 {
	if plan.Fleet != nil {
		return plan.Fleet.TransitionMatrices
	}
	return [][][]float64{plan.TransitionMatrix}
}

// evaluate prices matrices (K for a fleet) through the public read-only
// entry point; on a returned plan's matrices it must reproduce plan.Cost.
func (p *problem) evaluate(ms [][][]float64) (float64, error) {
	var ev *coverage.Plan
	var err error
	if p.spec.sensors > 0 {
		ev, err = coverage.EvaluateFleetMatrices(p.scn, p.obj, ms, nil)
	} else {
		ev, err = coverage.EvaluateMatrix(p.scn, p.obj, ms[0])
	}
	if err != nil {
		return 0, err
	}
	return ev.Cost, nil
}

// costTolerance is the relative agreement required between plan.Cost
// and its re-evaluation: dense evaluation is bit-exact, the sparse solver
// agrees with the dense re-evaluation to markov.SparseTol.
func (p *problem) costTolerance() float64 {
	if p.spec.solver == "sparse" {
		return 1e-6
	}
	return 0
}

// checkStochastic reports the first matrix entry or row sum that makes a
// plan's matrices not row-stochastic.
func checkStochastic(plan *coverage.Plan) error {
	for k, p := range matrices(plan) {
		for i, row := range p {
			var s float64
			for j, v := range row {
				if !(v >= 0 && v <= 1) {
					return fmt.Errorf("matrix %d: p[%d][%d] = %v", k, i, j, v)
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return fmt.Errorf("matrix %d: row %d sums to %v", k, i, s)
			}
		}
	}
	return nil
}

// sameCost reports whether got agrees with want within tol (relative).
func sameCost(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

func samePlan(a, b *coverage.Plan) bool {
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		return false
	}
	ma, mb := matrices(a), matrices(b)
	if len(ma) != len(mb) {
		return false
	}
	for k := range ma {
		for i := range ma[k] {
			for j := range ma[k][i] {
				if math.Float64bits(ma[k][i][j]) != math.Float64bits(mb[k][i][j]) {
					return false
				}
			}
		}
	}
	return true
}

// iterLog collects the IterationEvents of one public call with the time
// each arrived.
type iterLog struct {
	events []coverage.IterationEvent
	at     []time.Time
}

func (l *iterLog) hook(ev coverage.IterationEvent) {
	l.events = append(l.events, ev)
	l.at = append(l.at, time.Now())
}

func (l *iterLog) probesPerIter() float64 {
	if len(l.events) == 0 {
		return 0
	}
	var n int
	for _, ev := range l.events {
		n += ev.Probes
	}
	return float64(n) / float64(len(l.events))
}

func (l *iterLog) acceptRatio() float64 {
	if len(l.events) == 0 {
		return 0
	}
	var n int
	for _, ev := range l.events {
		if ev.Accepted {
			n++
		}
	}
	return float64(n) / float64(len(l.events))
}

// spans records the iteration spans of a call under its span.
func (l *iterLog) spans(tr *tracer, parent int, start time.Time) {
	prev := start
	for i, ev := range l.events {
		accepted := 0.0
		if ev.Accepted {
			accepted = 1
		}
		tr.add(parent, "descent.iteration", prev, l.at[i], map[string]float64{
			"iteration": float64(ev.Iteration), "probes": float64(ev.Probes), "accepted": accepted,
		})
		prev = l.at[i]
	}
}

// replayModel is the benchmark's own copy of a workload's problem: the
// topology and cost model the public calls build internally, for the
// heap reading and the traced layer replays.
type replayModel struct {
	model  *cost.Model
	fleet  *fleet.Model // nil for one sensor
	ws     *cost.Workspace
	method markov.Method
	tol    float64
}

func newReplayModel(p *problem) (*replayModel, error) {
	top, err := internalTopology(p.scn)
	if err != nil {
		return nil, err
	}
	rm := &replayModel{method: markov.MethodDense, tol: p.costTolerance()}
	if p.spec.solver == "sparse" {
		rm.method = markov.MethodSparse
	}
	if rm.model, err = cost.NewModel(top, cost.Uniform(top.M(), p.obj.Alpha, p.obj.Beta)); err != nil {
		return nil, err
	}
	if p.spec.sensors > 0 {
		if rm.fleet, err = fleet.NewModel(rm.model, p.spec.sensors, nil); err != nil {
			return nil, err
		}
	}
	rm.ws = rm.model.NewWorkspace()
	rm.ws.SetSolver(rm.method)
	return rm, nil
}

// gradientCost runs one gradient — which builds the model's lazy tables
// the descent uses (the dense M³ at table, the sparse cover lists) — and
// checks that its cost reproduces want, the program's own cost of the
// same matrices, so this copy of the problem cannot drift from the one
// the public calls solve.
func (rm *replayModel) gradientCost(ms [][][]float64, want float64) error {
	stack, err := toMatrices(ms)
	if err != nil {
		return err
	}
	var got float64
	if rm.fleet != nil {
		ev, _, err := rm.fleet.Gradient(stack)
		if err != nil {
			return err
		}
		got = ev.U
	} else {
		ev, _, err := rm.model.GradientIn(rm.ws, stack[0])
		if err != nil {
			return err
		}
		got = ev.U
	}
	if !sameCost(got, want, rm.tol) {
		return fmt.Errorf("replayed model cost %v, the program's %v", got, want)
	}
	return nil
}

// heapMiB forces a collection and returns the live heap.
func heapMiB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return mib(st.HeapAlloc)
}

func totalAlloc() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// solveRecord is one timed public call of the window.
type solveRecord struct {
	plan    *coverage.Plan
	solve   time.Duration
	allocMB float64
	log     iterLog
}

func runOptimizer(name string, s optSpec, seed uint64, window time.Duration, tr *tracer) (*result, error) {
	res := newResult(name)
	in := genOptInputs(name, s, seed)

	// Set-up: scenario build + Validate, repeated from a collected heap
	// for setupBudget; the last problem is the one the window solves.
	var p *problem
	var setups []float64
	for begin := time.Now(); len(setups) < setupMin || time.Since(begin) < setupBudget; {
		runtime.GC()
		start := time.Now()
		var err error
		p, err = buildProblem(s, in)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		tr.add(0, "setup.validate", start, end, nil)
		setups = append(setups, end.Sub(start).Seconds())
	}
	res.e2e["setup_s"] = median(setups)
	res.layer["topology.build_ms"] = 1000 * median(setups)

	// The problem held resident during a solve: topology, cost model and
	// the lazy tables its first gradient builds, checked against the
	// public evaluation of the same start matrices.
	startCost, err := p.evaluate(in.start)
	if err != nil {
		return nil, fmt.Errorf("evaluate start: %w", err)
	}
	before := heapMiB()
	rm, err := newReplayModel(p)
	if err != nil {
		return nil, err
	}
	res.attempted++
	if err := rm.gradientCost(in.start, startCost); err != nil {
		res.fail("start matrices: %v", err)
	}
	held := heapMiB()
	res.e2e["heap_retained_mib"] = held
	res.layer["topology.retained_mib"] = held - before
	if !tr.on {
		rm = nil // the end-to-end window does not need it
	}

	// The window: two thirds solving, one third querying.
	var recs []solveRecord
	var first *coverage.Plan
	runtime.GC()
	windowStart := time.Now()
	for time.Since(windowStart) < window*2/3 {
		var rec solveRecord
		var hook func(coverage.IterationEvent)
		if tr.on {
			hook = rec.log.hook
		}
		res.attempted++
		a0 := totalAlloc()
		start := time.Now()
		plan, err := p.optimize(s.workers, hook)
		end := time.Now()
		a1 := totalAlloc()
		if err != nil {
			res.fail("optimize: %v", err)
			break
		}
		call := tr.add(0, "coverage.optimize", start, end, map[string]float64{"iterations": float64(plan.Iterations)})
		rec.log.spans(tr, call, start)
		rec.plan, rec.solve, rec.allocMB = plan, end.Sub(start), mib(a1-a0)

		if err := checkStochastic(plan); err != nil {
			res.fail("plan not row-stochastic: %v", err)
		}
		if first == nil {
			first = plan
		} else if !samePlan(first, plan) {
			res.fail("repeated call returned a different plan (cost %v vs %v)", plan.Cost, first.Cost)
		}
		recs = append(recs, rec)
	}
	busy := time.Since(windowStart)
	if len(recs) == 0 {
		return res, nil
	}

	// Query phase: the public read-only evaluation of the returned plan,
	// which must reproduce its cost; at least three calls.
	var queries []float64
	for i := 0; i < 3 || time.Since(windowStart) < window; i++ {
		res.attempted++
		var got float64
		d, err := tr.timeCall("coverage.evaluate_matrix", func() error {
			var err error
			got, err = p.evaluate(matrices(first))
			return err
		})
		if err != nil {
			res.fail("evaluate: %v", err)
			break
		}
		if !sameCost(got, first.Cost, p.costTolerance()) {
			res.fail("EvaluateMatrix cost %v does not reproduce plan cost %v", got, first.Cost)
		}
		queries = append(queries, ms(d))
	}

	var solves, allocs []float64
	for _, r := range recs {
		solves = append(solves, r.solve.Seconds())
		allocs = append(allocs, r.allocMB)
	}
	res.e2e["solve_s"] = median(solves)
	res.e2e["final_cost"] = first.Cost
	res.e2e["alloc_mib"] = median(allocs)
	res.e2e["plan_p50_ms"] = 1000 * median(solves)
	res.layer["tail.plan_p99_ms"] = 1000 * percentile(solves, 99)
	res.e2e["query_p50_ms"] = median(queries)
	res.layer["tail.query_p99_ms"] = percentile(queries, 99)
	res.e2e["jobs_per_s"] = float64(len(recs)) / busy.Seconds()
	res.notef("%d public calls (%d iterations each) and %d evaluations in %.1f s; p99 call %.4g ms, p99 evaluation %.4g ms",
		len(recs), first.Iterations, len(queries), busy.Seconds(), res.layer["tail.plan_p99_ms"], res.layer["tail.query_p99_ms"])

	if tr.on {
		if err := traceOptimizer(res, p, rm, in, recs, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceOptimizer fills the per-layer rows of an optimizer workload by
// replaying layer calls on its own start and plan matrices.
func traceOptimizer(res *result, p *problem, rm *replayModel, in optInputs, recs []solveRecord, tr *tracer) error {
	s := p.spec
	plan := recs[0].plan
	res.attempted++
	if err := rm.gradientCost(matrices(plan), plan.Cost); err != nil {
		res.fail("plan matrices: %v", err)
	}
	var solveS []float64
	for _, r := range recs {
		solveS = append(solveS, r.solve.Seconds())
	}
	rs, err := replayLayers(rm.model, rm.method, s.workers, [][][]float64{in.start[0], matrices(plan)[0]}, tr)
	if err != nil {
		return err
	}
	log := recs[0].log
	rs.iters = len(log.events)
	rs.probesPerIter = log.probesPerIter()
	rs.acceptRatio = log.acceptRatio()
	// One iteration: the call less its problem build, per iteration.
	rs.iterMs = (1000*median(solveS) - res.layer["topology.build_ms"]) / float64(max(rs.iters, 1))

	// Probes a second worker count spends on the same problem.
	other := 2
	if s.workers > 1 {
		other = 1
	}
	var alt iterLog
	if _, err := p.optimize(other, alt.hook); err != nil {
		return fmt.Errorf("optimize at %d workers: %w", other, err)
	}
	w1, w2 := log.probesPerIter(), alt.probesPerIter()
	if s.workers > 1 {
		w1, w2 = w2, w1
	}
	if w1 > 0 {
		res.layer["par.probe_waste"] = w2/w1 - 1
	}

	if fm := rm.fleet; fm != nil {
		stacks := [][]*mat.Matrix{}
		for _, rows := range [][][][]float64{in.start, matrices(plan)} {
			stack, err := toMatrices(rows)
			if err != nil {
				return err
			}
			stacks = append(stacks, stack)
		}
		res.layer["fleet.eval_ms"], err = repeatMs(tr, "fleet.evaluate", len(stacks), func(i int) error {
			_, err := fm.Evaluate(stacks[i])
			return err
		})
		if err != nil {
			return err
		}
		res.layer["fleet.gradient_ms"], err = repeatMs(tr, "fleet.gradient", len(stacks), func(i int) error {
			_, _, err := fm.Gradient(stacks[i])
			return err
		})
		if err != nil {
			return err
		}
		res.layer["fleet.iters"] = float64(rs.iters)
		res.layer["fleet.probes_per_iter"] = rs.probesPerIter
		rs.sensors = s.sensors
		rs.fleetProbeMs, rs.fleetGradientMs = res.layer["fleet.eval_ms"], res.layer["fleet.gradient_ms"]
	}
	rs.fill(res.layer)
	res.ledger = &rs
	return tracePersist(res, p.scn, p.obj, s.sensors, plan, tr)
}

// tracePersist times the plan's WritePlan+ReadPlan round trip and the
// scenario fingerprint.
func tracePersist(res *result, scn coverage.Scenario, obj coverage.Objectives, sensors int, plan *coverage.Plan, tr *tracer) error {
	var err error
	res.layer["coverage.persist_ms"], err = repeatMs(tr, "coverage.persist", 1, func(int) error {
		var buf bytes.Buffer
		if err := coverage.WritePlan(&buf, plan); err != nil {
			return err
		}
		back, err := coverage.ReadPlan(&buf)
		if err != nil {
			return err
		}
		if !samePlan(plan, back) {
			return errors.New("plan changed in a WritePlan/ReadPlan round trip")
		}
		return nil
	})
	if err != nil {
		return err
	}
	fpMs, err := repeatMs(tr, "coverage.fingerprint", 1, func(int) error {
		var err error
		if sensors > 0 {
			_, err = coverage.FleetFingerprint(scn, obj, sensors, nil)
		} else {
			_, err = coverage.ScenarioFingerprint(scn, obj)
		}
		return err
	})
	res.layer["coverage.fingerprint_us"] = 1000 * fpMs
	return err
}

func toMatrices(rows [][][]float64) ([]*mat.Matrix, error) {
	out := make([]*mat.Matrix, len(rows))
	for i, r := range rows {
		m, err := mat.NewFromRows(r)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// Replays repeat each call for at least replayMin calls and replayBudget
// of wall time, whichever is longer, and report the median.
const (
	replayMin    = 7
	replayMax    = 400
	replayBudget = time.Second
)

// repeatMs times fn(i mod n) repeatedly after one untimed warm-up call
// per input, records a span per call, and returns the median in ms.
func repeatMs(tr *tracer, name string, n int, fn func(i int) error) (float64, error) {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	var times []float64
	begin := time.Now()
	for i := 0; i < replayMax && (i < replayMin || time.Since(begin) < replayBudget); i++ {
		d, err := tr.timeCall(name, func() error { return fn(i % n) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		times = append(times, ms(d))
	}
	return median(times), nil
}

// replayLayers times the Markov solve, the cover sweep, one probe and
// one gradient on each of the given matrices, with the solver method and
// worker pool the descent uses. The four calls run round-robin, so all
// four medians see the same interference from the rest of the machine.
func replayLayers(model *cost.Model, method markov.Method, workers int, rows [][][]float64, tr *tracer) (replayStats, error) {
	rs := replayStats{workers: workers}
	ps, err := toMatrices(rows)
	if err != nil {
		return rs, err
	}
	solver := markov.NewSolver(model.Topology().M())
	solver.SetMethod(method)
	ws := model.NewWorkspace()
	ws.SetSolver(method)
	if workers > 1 {
		pool := par.New(workers)
		defer pool.Stop()
		ws.SetPool(pool)
	}
	var sol *markov.Solution
	layers := []struct {
		name  string
		out   *float64
		prep  func(p *mat.Matrix) error
		timed func(p *mat.Matrix) error
	}{
		{"markov.solve", &rs.solveMs, nil, func(p *mat.Matrix) error {
			_, err := solver.Solve(p)
			return err
		}},
		// The sweep reads a fresh solution of the same matrix; the solve
		// before it is untimed.
		{"cost.sweep", &rs.sweepMs, func(p *mat.Matrix) (err error) {
			sol, err = solver.Solve(p)
			return err
		}, func(*mat.Matrix) error {
			_, err := model.EvaluateSolved(sol)
			return err
		}},
		{"cost.probe", &rs.probeMs, nil, func(p *mat.Matrix) error {
			_, err := model.EvaluateIn(ws, p)
			return err
		}},
		{"cost.gradient", &rs.gradientMs, nil, func(p *mat.Matrix) error {
			_, _, err := model.GradientIn(ws, p)
			return err
		}},
	}
	times := make([][]float64, len(layers))
	begin := time.Now()
	// Round 0 is an untimed warm-up that also builds lazy model tables.
	for round := 0; round <= replayMin || (round <= replayMax && time.Since(begin) < replayBudget); round++ {
		p := ps[round%len(ps)]
		for l, layer := range layers {
			if layer.prep != nil {
				if err := layer.prep(p); err != nil {
					return rs, fmt.Errorf("%s: %w", layer.name, err)
				}
			}
			d, err := tr.timeCall(layer.name, func() error { return layer.timed(p) })
			if err != nil {
				return rs, fmt.Errorf("%s: %w", layer.name, err)
			}
			if round > 0 {
				times[l] = append(times[l], ms(d))
			}
		}
	}
	for l, layer := range layers {
		*layer.out = median(times[l])
	}
	return rs, nil
}

// Package repro_test holds the benchmark harness: one testing.B benchmark
// per paper table and figure (regenerating the experiment at a reduced
// scale per iteration), the ablation benches from DESIGN.md, and
// micro-benchmarks of the numerical kernels.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benches report wall time for a full (quick-scale)
// regeneration of each artifact; use cmd/experiments -scale paper for the
// full-size runs recorded in EXPERIMENTS.md.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/coverage"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/jobs"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/mcmc"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topology"
)

// benchScale keeps each experiment iteration fast while preserving its
// structure; see exp.Quick for the shape.
var benchScale = exp.Scale{
	Runs:        4,
	OptIters:    150,
	SimSteps:    5000,
	SimReps:     2,
	TracePoints: 10,
	Seed:        1,
}

// --- One bench per paper table. ---

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableI(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableII(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableIII(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableIV(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One bench per paper figure. ---

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.Figure2(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure3(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure4(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.Figure5(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.Figure6(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.Figure7(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := exp.Figure8(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations and baselines (DESIGN.md experiment index). ---

func BenchmarkAblationStepSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationStepSize(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationNoise(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWarmStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationWarmStart(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineMCMC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.BaselineMCMC(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalysisMixing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableMixing(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalysisDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableDetection(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableFleet(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.ExtensionEnergy(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionEntropy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.ExtensionEntropy(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the numerical kernels. ---

// benchModel builds the Topology 3 cost model used by the kernel benches.
func benchModel(b *testing.B) (*cost.Model, *mat.Matrix) {
	b.Helper()
	top := topology.Topology3()
	model, err := cost.NewModel(top, cost.Uniform(top.M(), 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	p := descent.RandomInit(rng.New(1), top.M(), 1e-7)
	return model, p
}

// benchModelSized builds a cost model on a random M-PoI topology, for the
// scaling sub-benchmarks. M = 4 uses the paper's Topology 3 so the historic
// single-size numbers stay comparable.
func benchModelSized(b *testing.B, m int) (*cost.Model, *mat.Matrix) {
	b.Helper()
	if m == 4 {
		return benchModel(b)
	}
	top, err := topology.Random(rng.New(uint64(m)), topology.RandomConfig{
		M: m, Width: 40 * float64(m), Height: 40 * float64(m),
	})
	if err != nil {
		b.Fatal(err)
	}
	model, err := cost.NewModel(top, cost.Uniform(m, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	p := descent.RandomInit(rng.New(1), m, 1e-7)
	return model, p
}

// benchSizes are the PoI counts the evaluation-pipeline benches sweep.
var benchSizes = []struct {
	name string
	m    int
}{{"M4", 4}, {"M8", 8}, {"M16", 16}, {"M32", 32}, {"M64", 64}, {"M128", 128}}

// BenchmarkEvaluate measures one closed-form cost evaluation
// (π, Z, R solve plus the Eq. 9 terms) through a reused Workspace — the
// path the descent hot loop takes. Steady state allocates nothing.
func BenchmarkEvaluate(b *testing.B) {
	for _, size := range benchSizes {
		model, p := benchModelSized(b, size.m)
		ws := model.NewWorkspace()
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := model.EvaluateIn(ws, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProbe measures one line-search probe: the chain solve plus
// only the terms of U, through a reused Workspace. It returns the same
// bits as BenchmarkEvaluate's U; the gap between the two is what the
// descent saves per probe.
func BenchmarkProbe(b *testing.B) {
	for _, size := range benchSizes {
		model, p := benchModelSized(b, size.m)
		ws := model.NewWorkspace()
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := model.ProbeIn(ws, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluateAlloc measures the convenience Evaluate path, which
// builds a fresh Workspace per call — the pre-workspace baseline.
func BenchmarkEvaluateAlloc(b *testing.B) {
	for _, size := range benchSizes {
		model, p := benchModelSized(b, size.m)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := model.Evaluate(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGradient measures the analytic Eq. 10 gradient (evaluation
// plus the O(M³) tensor contractions) through a reused Workspace.
func BenchmarkGradient(b *testing.B) {
	for _, size := range benchSizes {
		model, p := benchModelSized(b, size.m)
		ws := model.NewWorkspace()
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := model.GradientIn(ws, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGradientAlloc measures the convenience Gradient path (fresh
// Workspace per call), the pre-workspace baseline.
func BenchmarkGradientAlloc(b *testing.B) {
	for _, size := range benchSizes {
		model, p := benchModelSized(b, size.m)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := model.Gradient(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// largeBenchFixtures caches the city-scale models and matrices: the
// M=512 topology and its kNN transition matrix are expensive to build,
// so each size is constructed once per process and shared by the dense
// and sparse sub-benches (the dense path's lazy cover table likewise
// builds once and stays cached on the model).
var largeBenchFixtures = map[int]struct {
	model *cost.Model
	p     *mat.Matrix
}{}

// benchLargeFixture builds a random-geometric topology with a kNN
// support-restricted transition matrix: each row keeps its self-loop,
// its ring successor, and its 8 nearest neighbors, uniformly weighted,
// with exact zeros off support — the city-scale sparsity the sparse
// solver path exists for.
func benchLargeFixture(b *testing.B, m int) (*cost.Model, *mat.Matrix) {
	b.Helper()
	if f, ok := largeBenchFixtures[m]; ok {
		return f.model, f.p
	}
	top, err := topology.Random(rng.New(uint64(m)), topology.RandomConfig{
		M: m, Width: 40 * float64(m), Height: 40 * float64(m),
	})
	if err != nil {
		b.Fatal(err)
	}
	model, err := cost.NewModel(top, cost.Uniform(m, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	const k = 8
	p := mat.New(m, m)
	pd := p.Data()
	for i := 0; i < m; i++ {
		row := pd[i*m : (i+1)*m]
		row[i] = 1
		row[(i+1)%m] = 1
		drow := top.DistanceRow(i)
		for s := 0; s < k; s++ {
			best, bestD := -1, math.Inf(1)
			for j := 0; j < m; j++ {
				if j == i || row[j] != 0 {
					continue
				}
				if drow[j] < bestD {
					best, bestD = j, drow[j]
				}
			}
			if best < 0 {
				break
			}
			row[best] = 1
		}
		var cnt float64
		for _, v := range row {
			cnt += v
		}
		for j := range row {
			row[j] /= cnt
		}
	}
	largeBenchFixtures[m] = struct {
		model *cost.Model
		p     *mat.Matrix
	}{model, p}
	return model, p
}

// BenchmarkGradientLarge pits the dense and sparse solver paths against
// each other at city scale (M=256, M=512) on kNN support-restricted
// chains. DESIGN.md §11 records the measured crossover; the CI bench
// gate tracks both paths so a regression in either is caught.
func BenchmarkGradientLarge(b *testing.B) {
	for _, m := range []int{256, 512} {
		for _, sv := range []struct {
			name   string
			method markov.Method
		}{{"dense", markov.MethodDense}, {"sparse", markov.MethodSparse}} {
			b.Run(fmt.Sprintf("M%d/%s", m, sv.name), func(b *testing.B) {
				model, p := benchLargeFixture(b, m)
				ws := model.NewWorkspace()
				ws.SetSolver(sv.method)
				// Warm-up builds the model's lazy tables outside the
				// timed region.
				if _, _, err := model.GradientIn(ws, p); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := model.GradientIn(ws, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFleetGradient measures one joint fleet evaluation + stacked
// gradient (K single-sensor Eq. 10 assemblies with the fleet couplings,
// DESIGN.md §14.1) across fleet sizes and field sizes — the hot loop of
// the stacked descent, gating the fleet job path in CI.
func BenchmarkFleetGradient(b *testing.B) {
	for _, k := range []int{2, 4} {
		for _, m := range []int{32, 128} {
			b.Run(fmt.Sprintf("K%d/M%d", k, m), func(b *testing.B) {
				model, _ := benchModelSized(b, m)
				fm, err := fleet.NewModel(model, k, nil)
				if err != nil {
					b.Fatal(err)
				}
				ps := make([]*mat.Matrix, k)
				for s := range ps {
					ps[s] = descent.RandomInit(rng.New(uint64(s+1)), m, 1e-7)
				}
				// Warm-up builds the model's lazy tables outside the
				// timed region.
				if _, _, err := fm.Gradient(ps); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := fm.Gradient(ps); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGradientFiniteDifference measures the finite-difference
// alternative the analytic gradient replaces: 2·M² central-difference
// evaluations (ablation A3 — the cost of not having Eq. 10).
func BenchmarkGradientFiniteDifference(b *testing.B) {
	model, p := benchModel(b)
	n := p.Rows()
	const h = 1e-6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < n; k++ {
			for l := 0; l < n; l++ {
				up := p.Clone()
				up.Add(k, l, h)
				dn := p.Clone()
				dn.Add(k, l, -h)
				// Renormalize rows to stay stochastic (zero-row-sum pairs).
				up.Add(k, (l+1)%n, -h)
				dn.Add(k, (l+1)%n, h)
				evUp, err := model.Evaluate(up)
				if err != nil {
					b.Fatal(err)
				}
				evDn, err := model.Evaluate(dn)
				if err != nil {
					b.Fatal(err)
				}
				_ = (evUp.U - evDn.U) / (2 * h)
			}
		}
	}
}

// BenchmarkChainSolve measures the Markov substrate: π, Z, Z², R for one
// 9-state chain.
func BenchmarkChainSolve(b *testing.B) {
	p := descent.RandomInit(rng.New(2), 9, 1e-7)
	chain, err := markov.New(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chain.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationStep measures the Markov walk simulator per
// transition.
func BenchmarkSimulationStep(b *testing.B) {
	top := topology.Topology3()
	p := descent.RandomInit(rng.New(3), top.M(), 1e-7)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := sim.Run(sim.Config{
		Topology: top, P: p, Steps: b.N + 1, Seed: 4, TimeModel: sim.Physical,
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOptimizerIteration measures one perturbed-descent iteration
// (gradient, noise, line search, acceptance) on Topology 1.
func BenchmarkOptimizerIteration(b *testing.B) {
	top := topology.Topology1()
	model, err := cost.NewModel(top, cost.Uniform(top.M(), 0, 1))
	if err != nil {
		b.Fatal(err)
	}
	opt, err := descent.New(model, descent.Options{
		Variant:    descent.Perturbed,
		MaxIters:   b.N,
		Seed:       5,
		StallIters: b.N + 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := opt.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRoutePlanning measures the visibility-graph path planner on a
// field with several obstacles.
func BenchmarkRoutePlanning(b *testing.B) {
	planner, err := route.New([]route.Rect{
		{MinX: 2, MinY: 2, MaxX: 4, MaxY: 4},
		{MinX: 5, MinY: 0, MaxX: 6, MaxY: 3},
		{MinX: 1, MinY: 5, MaxX: 3, MaxY: 6},
		{MinX: 6, MinY: 5, MaxX: 8, MaxY: 6},
	}, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	a := geom.Point{X: 0.5, Y: 0.5}
	dest := geom.Point{X: 8.5, Y: 6.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Route(a, dest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncidentSimulation measures the Poisson incident overlay per
// Markov transition.
func BenchmarkIncidentSimulation(b *testing.B) {
	top := topology.Topology3()
	p := descent.RandomInit(rng.New(6), top.M(), 1e-7)
	rates := []float64{1, 1, 1, 1}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := sim.RunIncidents(sim.Config{
		Topology: top, P: p, Steps: b.N + 1, Seed: 7,
	}, rates); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChainAnalysis measures the full ChainAnalysis (SLEM, mixing,
// moments) on a 4-state chain.
func BenchmarkChainAnalysis(b *testing.B) {
	top := topology.Topology1()
	planner, err := core.NewPlanner(top, cost.Uniform(top.M(), 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	p := descent.RandomInit(rng.New(8), top.M(), 1e-7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Analyze(p, core.AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetropolisConstruction measures the baseline chain builder.
func BenchmarkMetropolisConstruction(b *testing.B) {
	tau := topology.Topology4().Target()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcmc.MetropolisHastings(tau); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicOptimize measures an end-to-end public-API optimization
// at a small budget.
func BenchmarkPublicOptimize(b *testing.B) {
	scn, err := coverage.PaperTopology(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coverage.Optimize(scn,
			coverage.Objectives{Alpha: 1, Beta: 1e-4},
			coverage.Options{MaxIters: 50, Seed: uint64(i + 1)},
		); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateLarge pits the dense and sparse evaluation paths
// against each other at city scale on the same kNN fixture as
// BenchmarkGradientLarge. The dense row exercises the M³ coverage-table
// sweep in evaluateInto — the hot loop of every line-search probe — so
// the bench gate catches dispatch regressions the M≤128 sweep hides in
// solver time.
func BenchmarkEvaluateLarge(b *testing.B) {
	for _, m := range []int{256} {
		for _, sv := range []struct {
			name   string
			method markov.Method
		}{{"dense", markov.MethodDense}, {"sparse", markov.MethodSparse}} {
			b.Run(fmt.Sprintf("M%d/%s", m, sv.name), func(b *testing.B) {
				model, p := benchLargeFixture(b, m)
				ws := model.NewWorkspace()
				ws.SetSolver(sv.method)
				// Warm-up builds the model's lazy tables outside the
				// timed region.
				if _, err := model.EvaluateIn(ws, p); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := model.EvaluateIn(ws, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchShardSpec is the 12-restart M=64 job the sharding bench runs.
func benchShardSpec(b *testing.B) jobs.Spec {
	b.Helper()
	target := make([]float64, 64)
	for i := range target {
		target[i] = 1.0 / 64
	}
	scn, err := coverage.GridScenario("bench-shard", 8, 8, target)
	if err != nil {
		b.Fatal(err)
	}
	return jobs.Spec{
		Scenario:   scn,
		Objectives: coverage.Objectives{Alpha: 1, Beta: 1e-3},
		Options:    coverage.Options{MaxIters: 15, Seed: 42},
		Restarts:   12,
	}
}

// BenchmarkShardedOptimizeBest runs a 12-restart M=64 job end to end
// through the shard/lease/merge protocol, with one vs three manager
// nodes sharing a single FSStore. On multi-core hosts the three nodes
// overlap restarts and the ratio approaches 3×; on a single core the
// nodes time-slice one CPU and the comparison instead measures the
// protocol's coordination overhead (lease CAS, checkpoint writes,
// merge). Setup and teardown run off the clock.
func BenchmarkShardedOptimizeBest(b *testing.B) {
	spec := benchShardSpec(b)
	for _, nodes := range []int{1, 3} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				mgrs := make([]*jobs.Manager, nodes)
				for n := range mgrs {
					m, err := jobs.New(jobs.Config{
						Workers: 1,
						Dir:     dir,
						Shard: jobs.ShardConfig{
							Enabled:  true,
							Node:     fmt.Sprintf("bench%d", n),
							LeaseTTL: 10 * time.Second,
							Poll:     5 * time.Millisecond,
						},
					})
					if err != nil {
						b.Fatal(err)
					}
					mgrs[n] = m
				}
				b.StartTimer()
				v, err := mgrs[0].Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				for {
					got, err := mgrs[0].Get(v.ID)
					if err != nil {
						b.Fatal(err)
					}
					if got.State.Terminal() {
						if got.State != jobs.StateDone {
							b.Fatalf("job finished %s", got.State)
						}
						break
					}
					time.Sleep(2 * time.Millisecond)
				}
				b.StopTimer()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				for _, m := range mgrs {
					if err := m.Shutdown(ctx); err != nil {
						b.Fatal(err)
					}
				}
				cancel()
				b.StartTimer()
			}
		})
	}
}

package cost

import (
	"errors"
	"math"
	"testing"

	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/topology"
)

// sparseAgreeTol is the documented cost/gradient agreement bound for the
// sparse solver path (DESIGN.md §11): the markov quantities agree to
// markov.SparseTol, and the cost layer's folds amplify that by at most a
// couple of orders of magnitude on well-conditioned instances.
const sparseAgreeTol = 1e-6

// knnSupportP builds a support-restricted stochastic matrix over the
// topology: each row keeps its self-loop, its ring successor, and its K
// nearest neighbors, uniformly weighted, with exact zeros off support —
// the city-scale shape the sparse path exists for.
func knnSupportP(top *topology.Topology, k int) *mat.Matrix {
	n := top.M()
	p := mat.New(n, n)
	pd := p.Data()
	for i := 0; i < n; i++ {
		row := pd[i*n : (i+1)*n]
		row[i] = 1
		row[(i+1)%n] = 1
		drow := top.DistanceRow(i)
		for s := 0; s < k; s++ {
			best, bestD := -1, math.Inf(1)
			for j := 0; j < n; j++ {
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
	return p
}

// equivCase pairs a topology with a transition matrix for the
// sparse-vs-dense table.
type equivCase struct {
	name string
	top  *topology.Topology
	p    func(*topology.Topology) *mat.Matrix
}

func equivCases(t *testing.T) []equivCase {
	t.Helper()
	geo, err := topology.Random(rng.New(19), topology.RandomConfig{
		M: 24, Width: 40 * 24, Height: 40 * 24,
	})
	if err != nil {
		t.Fatalf("random topology: %v", err)
	}
	dense := func(top *topology.Topology) *mat.Matrix {
		return randomErgodicP(rng.New(uint64(top.M())), top.M())
	}
	return []equivCase{
		{"topology1", topology.Topology1(), dense},
		{"topology2", topology.Topology2(), dense},
		{"topology3", topology.Topology3(), dense},
		{"topology4", topology.Topology4(), dense},
		{"random-geometric", geo, dense},
		{"random-geometric-knn", geo, func(top *topology.Topology) *mat.Matrix {
			return knnSupportP(top, 6)
		}},
	}
}

func relDiff(a, b, scale float64) float64 {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / scale
}

// TestSparseMatchesDenseCostAndGradient is the tentpole cross-check:
// table-driven over the four paper topologies, a random-geometric
// topology, and a kNN support-restricted matrix with exact zeros, the
// sparse solver path must reproduce the dense path's cost breakdown and
// Eq. 10 gradient within the documented tolerance.
func TestSparseMatchesDenseCostAndGradient(t *testing.T) {
	for _, tc := range equivCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewModel(tc.top, Uniform(tc.top.M(), 1, 1))
			if err != nil {
				t.Fatalf("NewModel: %v", err)
			}
			p := tc.p(tc.top)
			dws := m.NewWorkspace()
			dev, dgrad, err := m.GradientIn(dws, p)
			if err != nil {
				t.Fatalf("dense GradientIn: %v", err)
			}
			sws := m.NewWorkspace()
			sws.SetSolver(markov.MethodSparse)
			if sws.Solver() != markov.MethodSparse {
				t.Fatalf("Solver() did not report the sparse method")
			}
			sev, sgrad, err := m.GradientIn(sws, p)
			if err != nil {
				t.Fatalf("sparse GradientIn: %v", err)
			}

			uScale := math.Max(1, math.Abs(dev.Objective))
			for _, q := range []struct {
				name string
				d, s float64
			}{
				{"Objective", dev.Objective, sev.Objective},
				{"CoverageTerm", dev.CoverageTerm, sev.CoverageTerm},
				{"ExposureTerm", dev.ExposureTerm, sev.ExposureTerm},
				{"Penalty", dev.Penalty, sev.Penalty},
				{"U", dev.U, sev.U},
				{"DeltaC", dev.DeltaC, sev.DeltaC},
				{"EBar", dev.EBar, sev.EBar},
			} {
				if d := relDiff(q.d, q.s, uScale); d > sparseAgreeTol {
					t.Errorf("%s: dense %g vs sparse %g (rel %g)", q.name, q.d, q.s, d)
				}
			}

			gd, sd := dgrad.Data(), sgrad.Data()
			gScale := 1.0
			for _, v := range gd {
				if a := math.Abs(v); a > gScale {
					gScale = a
				}
			}
			worst := 0.0
			for i := range gd {
				if d := math.Abs(gd[i]-sd[i]) / gScale; d > worst {
					worst = d
				}
			}
			if worst > sparseAgreeTol {
				t.Fatalf("gradient max rel diff %g > %g", worst, sparseAgreeTol)
			}
		})
	}
}

// TestSparseGradientAbsorbingRowGuard exercises the PR 1 exposure guard
// on the sparse path: a doctored absorbing row must surface
// ErrNotErgodic from the sparse gradient assembly exactly as on the
// dense path.
func TestSparseGradientAbsorbingRowGuard(t *testing.T) {
	top := topology.Topology3()
	m, err := NewModel(top, Uniform(top.M(), 1, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	ws := m.NewWorkspace()
	ws.SetSolver(markov.MethodSparse)
	p := randomErgodicP(rng.New(31), top.M())
	ev, err := m.EvaluateIn(ws, p)
	if err != nil {
		t.Fatalf("EvaluateIn: %v", err)
	}
	if ev.Sol.Method != markov.MethodSparse {
		t.Fatal("test setup: workspace did not take the sparse path")
	}
	if ev.EBarI[0] == 0 {
		t.Fatal("test setup: exposure term inactive for state 0")
	}
	n := top.M()
	for j := 0; j < n; j++ {
		ev.Sol.P.Set(0, j, 0)
	}
	ev.Sol.P.Set(0, 0, 1)
	grad, err := m.gradientInto(ws, ev)
	if !errors.Is(err, markov.ErrNotErgodic) {
		t.Fatalf("sparse gradientInto on absorbing row: err = %v, want ErrNotErgodic", err)
	}
	if grad != nil {
		t.Error("gradientInto returned a gradient alongside the error")
	}
}

// TestSparseEvaluateExtensions covers the §VII energy/entropy extensions
// on the sparse path (they read π and P, not Z², but must still agree).
func TestSparseEvaluateExtensions(t *testing.T) {
	top := topology.Topology2()
	w := Uniform(top.M(), 1, 1)
	w.EnergyWeight = 0.5
	w.EnergyTarget = 1
	w.EntropyWeight = 0.25
	m, err := NewModel(top, w)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	p := randomErgodicP(rng.New(77), top.M())
	dev, err := m.Evaluate(p)
	if err != nil {
		t.Fatalf("dense Evaluate: %v", err)
	}
	sws := m.NewWorkspace()
	sws.SetSolver(markov.MethodSparse)
	sev, err := m.EvaluateIn(sws, p)
	if err != nil {
		t.Fatalf("sparse EvaluateIn: %v", err)
	}
	scale := math.Max(1, math.Abs(dev.U))
	for _, q := range []struct {
		name string
		d, s float64
	}{
		{"EnergyTerm", dev.EnergyTerm, sev.EnergyTerm},
		{"EntropyTerm", dev.EntropyTerm, sev.EntropyTerm},
		{"U", dev.U, sev.U},
	} {
		if d := relDiff(q.d, q.s, scale); d > sparseAgreeTol {
			t.Errorf("%s: dense %g vs sparse %g (rel %g)", q.name, q.d, q.s, d)
		}
	}
}

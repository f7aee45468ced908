package cost

import (
	"errors"
	"math"
	"testing"

	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/topology"
)

// probeWeights are the weight configurations the probe must reproduce
// EvaluateIn's U under: the §VII extensions off (the probe skips them)
// and on (the probe folds them in).
func probeWeights(m int) map[string]Weights {
	ext := Uniform(m, 1, 0.5)
	ext.EnergyWeight = 0.5
	ext.EnergyTarget = 0.3
	ext.EntropyWeight = 0.05
	return map[string]Weights{
		"plain":      Uniform(m, 1, 0.5),
		"extensions": ext,
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestProbeInMatchesEvaluateU pins the line-search probe to the full
// evaluation: on paper topologies 1–3 and a random geometric one, with
// both solvers and with the extensions off and on, ProbeIn must return
// EvaluateIn's U bit for bit — including at exact-zero entries (the kNN
// support) and inside the barrier region.
func TestProbeInMatchesEvaluateU(t *testing.T) {
	var cases []equivCase
	for _, tc := range equivCases(t) {
		if tc.name != "topology4" {
			cases = append(cases, tc)
		}
	}
	for _, tc := range cases {
		n := tc.top.M()
		mats := []*mat.Matrix{
			tc.p(tc.top),
			randomErgodicP(rng.New(5), n),
			flooredErgodicP(rng.New(6), n, 2, 1e-6),
		}
		for wname, w := range probeWeights(n) {
			m, err := NewModel(tc.top, w)
			if err != nil {
				t.Fatalf("NewModel: %v", err)
			}
			for _, method := range []markov.Method{markov.MethodDense, markov.MethodSparse} {
				t.Run(tc.name+"/"+wname+"/"+method.String(), func(t *testing.T) {
					ws := m.NewWorkspace()
					ws.SetSolver(method)
					for k, p := range mats {
						got, err := m.ProbeIn(ws, p)
						if err != nil {
							t.Fatalf("matrix %d: ProbeIn: %v", k, err)
						}
						ev, err := m.EvaluateIn(ws, p)
						if err != nil {
							t.Fatalf("matrix %d: EvaluateIn: %v", k, err)
						}
						if ev.Sol.Method != method {
							t.Fatalf("matrix %d: solved with %v, want %v", k, ev.Sol.Method, method)
						}
						if !sameBits(got, ev.U) {
							t.Fatalf("matrix %d: ProbeIn = %v, EvaluateIn U = %v", k, got, ev.U)
						}
					}
				})
			}
		}
	}
}

// TestProbeInErrorsMatchEvaluateIn checks that ProbeIn rejects exactly
// what EvaluateIn rejects, with the same error.
func TestProbeInErrorsMatchEvaluateIn(t *testing.T) {
	top := topology.Topology2()
	m, err := NewModel(top, Uniform(top.M(), 1, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	reducible, _ := mat.NewFromRows([][]float64{
		{1, 0, 0},
		{0, 0.5, 0.5},
		{0, 0.5, 0.5},
	})
	periodic, _ := mat.NewFromRows([][]float64{
		{0, 1, 0},
		{0, 0, 1},
		{1, 0, 0},
	})
	unnormalized, _ := mat.NewFromRows([][]float64{
		{0.5, 0.5, 0.5},
		{0.2, 0.3, 0.5},
		{0.2, 0.3, 0.5},
	})
	for _, tc := range []struct {
		name string
		p    *mat.Matrix
		want error
	}{
		{"reducible", reducible, markov.ErrNotErgodic},
		{"periodic", periodic, markov.ErrNotErgodic},
		{"row-sum", unnormalized, markov.ErrNotStochastic},
		{"shape", mat.New(2, 2), markov.ErrNotStochastic},
	} {
		for _, method := range []markov.Method{markov.MethodDense, markov.MethodSparse} {
			ws := m.NewWorkspace()
			ws.SetSolver(method)
			_, perr := m.ProbeIn(ws, tc.p)
			_, eerr := m.EvaluateIn(ws, tc.p)
			if !errors.Is(perr, tc.want) || !errors.Is(eerr, tc.want) {
				t.Fatalf("%s/%v: ProbeIn err = %v, EvaluateIn err = %v, want %v", tc.name, method, perr, eerr, tc.want)
			}
			if perr.Error() != eerr.Error() {
				t.Fatalf("%s/%v: ProbeIn err %q differs from EvaluateIn err %q", tc.name, method, perr, eerr)
			}
		}
	}
}

// TestProbeInZeroAlloc: once warm, a dense probe allocates nothing. The
// sparse chain solve allocates its CSR assembly per call, so on the
// sparse path the check covers the probe's own folds given a solution.
func TestProbeInZeroAlloc(t *testing.T) {
	top := topology.Topology3()
	w := probeWeights(top.M())["extensions"]
	m, err := NewModel(top, w)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	p := randomErgodicP(rng.New(808), top.M())
	ws := m.NewWorkspace()
	if _, err := m.ProbeIn(ws, p); err != nil {
		t.Fatalf("ProbeIn warmup: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.ProbeIn(ws, p); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("dense ProbeIn allocates %v times per call in steady state, want 0", allocs)
	}

	sws := m.NewWorkspace()
	sws.SetSolver(markov.MethodSparse)
	ev, err := m.EvaluateIn(sws, p)
	if err != nil {
		t.Fatalf("sparse EvaluateIn: %v", err)
	}
	sol := ev.Sol
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.probeInto(ev.G, ev.EBarI, ev.CoverTime, sol); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("sparse probe folds allocate %v times per call, want 0", allocs)
	}
}

// stickyP returns a chain whose state 0 leaves with probability only
// leave, every other row uniform. For leave ≲ 1e-13 the no-pivoting
// sparse factorization rejects state 0's pivot and a MethodSparse solve
// falls back to the dense path.
func stickyP(n int, leave float64) *mat.Matrix {
	p := mat.New(n, n)
	for j := 0; j < n; j++ {
		p.Set(0, j, leave/float64(n-1))
		for i := 1; i < n; i++ {
			p.Set(i, j, 1/float64(n))
		}
	}
	p.Set(0, 0, 1-leave)
	return p
}

// TestSparseFallbackMatchesDense: when a sparse workspace's solve falls
// back to the dense path, the solution is marked dense and the whole
// evaluation, the probe and the Eq. 10 gradient carry the bits of a pure
// dense workspace.
func TestSparseFallbackMatchesDense(t *testing.T) {
	top := topology.Topology3()
	w := probeWeights(top.M())["extensions"]
	m, err := NewModel(top, w)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	p := stickyP(top.M(), 1e-13)

	dws := m.NewWorkspace()
	dev, dgrad, err := m.GradientIn(dws, p)
	if err != nil {
		t.Fatalf("dense GradientIn: %v", err)
	}
	dev = dev.Clone()
	dgrad = dgrad.Clone()

	// A healthy sparse solve first, so the fallback has to overwrite the
	// workspace solution's sparse marker.
	sws := m.NewWorkspace()
	sws.SetSolver(markov.MethodSparse)
	if ev, err := m.EvaluateIn(sws, randomErgodicP(rng.New(3), top.M())); err != nil || ev.Sol.Method != markov.MethodSparse {
		t.Fatalf("test setup: healthy sparse solve: err %v", err)
	}
	u, err := m.ProbeIn(sws, p)
	if err != nil {
		t.Fatalf("sparse ProbeIn: %v", err)
	}
	sev, sgrad, err := m.GradientIn(sws, p)
	if err != nil {
		t.Fatalf("sparse GradientIn: %v", err)
	}
	if sev.Sol.Method != markov.MethodDense || sev.Sol.Sparse() != nil {
		t.Fatalf("fallback solution marked %v with factors %v, want a dense solution",
			sev.Sol.Method, sev.Sol.Sparse() != nil)
	}
	if dev.Penalty == 0 {
		t.Fatal("test setup: sticky chain should sit in the barrier region")
	}
	for _, s := range [][3]any{
		{"U", dev.U, sev.U}, {"probe U", dev.U, u},
		{"Objective", dev.Objective, sev.Objective}, {"Penalty", dev.Penalty, sev.Penalty},
		{"DeltaC", dev.DeltaC, sev.DeltaC}, {"EBar", dev.EBar, sev.EBar},
		{"TotalTime", dev.TotalTime, sev.TotalTime},
		{"Energy", dev.Energy, sev.Energy}, {"Entropy", dev.Entropy, sev.Entropy},
	} {
		if !sameBits(s[1].(float64), s[2].(float64)) {
			t.Fatalf("%s: fallback %v, dense %v", s[0], s[2], s[1])
		}
	}
	for name, pair := range map[string][2][]float64{
		"G": {dev.G, sev.G}, "CBar": {dev.CBar, sev.CBar},
		"EBarI": {dev.EBarI, sev.EBarI}, "CoverTime": {dev.CoverTime, sev.CoverTime},
		"gradient": {dgrad.Data(), sgrad.Data()},
	} {
		for i := range pair[0] {
			if !sameBits(pair[0][i], pair[1][i]) {
				t.Fatalf("%s[%d]: fallback %v, dense %v", name, i, pair[1][i], pair[0][i])
			}
		}
	}
}

// TestSparseCoverageMatchesFullSweep pins the sparse path's cover-list
// walk to the plain fold over every PoI of every transition: skipping the
// exact-zero cover times must leave the coverage sums bit-identical.
func TestSparseCoverageMatchesFullSweep(t *testing.T) {
	for _, tc := range equivCases(t) {
		top := tc.top
		n := top.M()
		m, err := NewModel(top, Uniform(n, 1, 1))
		if err != nil {
			t.Fatalf("NewModel: %v", err)
		}
		ws := m.NewWorkspace()
		ws.SetSolver(markov.MethodSparse)
		ev, err := m.EvaluateIn(ws, tc.p(top))
		if err != nil {
			t.Fatalf("%s: EvaluateIn: %v", tc.name, err)
		}
		sol := ev.Sol
		if sol.Method != markov.MethodSparse {
			t.Fatalf("%s: test setup: sparse solve fell back to dense", tc.name)
		}
		coverNum := make([]float64, n)
		var total float64
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				w := sol.Pi[j] * sol.P.At(j, k)
				if w == 0 {
					continue
				}
				total += w * top.TravelTime(j, k)
				for i, c := range top.CoverRow(j, k) {
					coverNum[i] += w * c
				}
			}
		}
		if !sameBits(ev.TotalTime, total) {
			t.Fatalf("%s: TotalTime %v, full sweep %v", tc.name, ev.TotalTime, total)
		}
		for i := range coverNum {
			g := coverNum[i] - top.TargetAt(i)*total
			if !sameBits(ev.CoverTime[i], coverNum[i]) || !sameBits(ev.G[i], g) {
				t.Fatalf("%s: PoI %d: CoverTime %v G %v, full sweep %v and %v",
					tc.name, i, ev.CoverTime[i], ev.G[i], coverNum[i], g)
			}
		}
	}
}

// TestGradientFormsZ2InScratch: the dense gradient forms Z² itself, in
// workspace scratch, and it must be exactly Z·Z — with or without a pool,
// whose row-partitioned product has the serial product's bits.
func TestGradientFormsZ2InScratch(t *testing.T) {
	top, err := topology.Random(rng.New(19), topology.RandomConfig{
		M: 24, Width: 40 * 24, Height: 40 * 24,
	})
	if err != nil {
		t.Fatalf("random topology: %v", err)
	}
	m, err := NewModel(top, Uniform(top.M(), 1, 1))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	p := randomErgodicP(rng.New(91), top.M())
	pool := par.New(2)
	defer pool.Stop()
	for _, pl := range []*par.Pool{nil, pool} {
		ws := m.NewWorkspace()
		ws.SetPool(pl)
		ev, _, err := m.GradientIn(ws, p)
		if err != nil {
			t.Fatalf("GradientIn: %v", err)
		}
		zz, err := mat.Mul(ev.Sol.Z, ev.Sol.Z)
		if err != nil {
			t.Fatalf("Z*Z: %v", err)
		}
		got, want := ws.tmp.Data(), zz.Data()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("workers %d: Z² scratch[%d] = %v, Z·Z = %v", pl.Workers(), i, got[i], want[i])
			}
		}
	}
}

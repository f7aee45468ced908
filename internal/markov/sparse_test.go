package markov

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// sparseRingP builds an n-state chain whose support is a ring plus k
// random shortcuts per row, with exact zeros off-support — the structural
// shape of city-scale topologies the sparse path targets.
func sparseRingP(src *rng.Source, n, k int) *mat.Matrix {
	p := mat.New(n, n)
	pd := p.Data()
	for i := 0; i < n; i++ {
		row := pd[i*n : (i+1)*n]
		row[i] = 1
		row[(i+1)%n] = 1
		for s := 0; s < k; s++ {
			row[src.IntN(n)] = 1
		}
		cnt := 0.0
		for _, v := range row {
			cnt += v
		}
		for j := range row {
			row[j] /= cnt
		}
	}
	return p
}

func maxRelDiff(a, b *mat.Matrix) float64 {
	ad, bd := a.Data(), b.Data()
	scale := 0.0
	for _, v := range bd {
		if m := math.Abs(v); m > scale {
			scale = m
		}
	}
	if scale == 0 {
		scale = 1
	}
	worst := 0.0
	for i := range ad {
		if d := math.Abs(ad[i]-bd[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

func solveBoth(t *testing.T, p *mat.Matrix) (dense, sparse *Solution) {
	t.Helper()
	n := p.Rows()
	ds := NewSolver(n)
	dsol, err := ds.Solve(p)
	if err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	ss := NewSolver(n)
	ss.SetMethod(MethodSparse)
	ssol, err := ss.Solve(p)
	if err != nil {
		t.Fatalf("sparse solve: %v", err)
	}
	return dsol, ssol
}

func TestSparseSolveMatchesDense(t *testing.T) {
	cases := []struct {
		name string
		p    *mat.Matrix
	}{
		{"dense-random-12", randomErgodic(rng.New(7), 12).P()},
		{"dense-random-40", randomErgodic(rng.New(11), 40).P()},
		{"sparse-ring-64", sparseRingP(rng.New(3), 64, 3)},
		{"sparse-ring-128", sparseRingP(rng.New(5), 128, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dsol, ssol := solveBoth(t, tc.p)
			piScale := 0.0
			for _, v := range dsol.Pi {
				if m := math.Abs(v); m > piScale {
					piScale = m
				}
			}
			for i := range dsol.Pi {
				if d := math.Abs(dsol.Pi[i]-ssol.Pi[i]) / piScale; d > SparseTol {
					t.Fatalf("π_%d differs by %g (> %g)", i, d, SparseTol)
				}
			}
			if d := maxRelDiff(ssol.Z, dsol.Z); d > SparseTol {
				t.Fatalf("Z differs by %g (> %g)", d, SparseTol)
			}
			if d := maxRelDiff(ssol.R, dsol.R); d > SparseTol {
				t.Fatalf("R differs by %g (> %g)", d, SparseTol)
			}
			if ssol.Method != MethodSparse || dsol.Method != MethodDense {
				t.Fatalf("solutions marked %v (sparse) and %v (dense)", ssol.Method, dsol.Method)
			}
			if ssol.Sparse() == nil {
				t.Fatalf("sparse solve did not attach factors")
			}
			if dsol.Sparse() != nil {
				t.Fatalf("dense solve attached sparse factors")
			}
		})
	}
}

func TestSparseFactorsSolveTranspose(t *testing.T) {
	p := sparseRingP(rng.New(9), 48, 3)
	dsol, ssol := solveBoth(t, p)
	n := p.Rows()
	src := rng.New(17)
	b := make([]float64, n)
	for i := range b {
		b[i] = src.Float64() - 0.5
	}
	x := make([]float64, n)
	if err := ssol.Sparse().SolveTranspose(x, b); err != nil {
		t.Fatalf("SolveTranspose: %v", err)
	}
	// x should equal Zᵀ b.
	want := make([]float64, n)
	zd := dsol.Z.Data()
	for j := 0; j < n; j++ {
		var acc float64
		for i := 0; i < n; i++ {
			acc += zd[i*n+j] * b[i]
		}
		want[j] = acc
	}
	for i := range x {
		if d := math.Abs(x[i] - want[i]); d > 1e-8 {
			t.Fatalf("x[%d] = %g, want %g (diff %g)", i, x[i], want[i], d)
		}
	}
	// And the non-transposed solve should reproduce Z b.
	if err := ssol.Sparse().Solve(x, b); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := mat.MulVecTo(want, dsol.Z, b); err != nil {
		t.Fatalf("dense Z b: %v", err)
	}
	for i := range x {
		if d := math.Abs(x[i] - want[i]); d > 1e-8 {
			t.Fatalf("Zb[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestSparseSolutionCloneAndDZ(t *testing.T) {
	p := sparseRingP(rng.New(21), 24, 2)
	dsol, ssol := solveBoth(t, p)

	c := ssol.Clone()
	if c.Method != MethodSparse {
		t.Fatalf("clone of sparse solution marked %v, want sparse", c.Method)
	}
	if c.Sparse() != nil {
		t.Fatalf("clone carried the solver-owned sparse factors")
	}

	// DZ rebuilds Z² itself and must agree with the dense solution's DZ.
	n := p.Rows()
	v := mat.New(n, n)
	vd := v.Data()
	src := rng.New(33)
	for i := 0; i < n; i++ {
		row := vd[i*n : (i+1)*n]
		var sum float64
		for j := 0; j < n-1; j++ {
			row[j] = src.Float64() - 0.5
			sum += row[j]
		}
		row[n-1] = -sum
	}
	got, err := ssol.DZ(v)
	if err != nil {
		t.Fatalf("sparse DZ: %v", err)
	}
	want, err := dsol.DZ(v)
	if err != nil {
		t.Fatalf("dense DZ: %v", err)
	}
	if d := maxRelDiff(got, want); d > 1e-7 {
		t.Fatalf("DZ differs by %g", d)
	}
}

func TestSolverMethodSwitchRestoresDense(t *testing.T) {
	p := sparseRingP(rng.New(41), 16, 2)
	s := NewSolver(16)
	s.SetMethod(MethodSparse)
	sol, err := s.Solve(p)
	if err != nil {
		t.Fatalf("sparse solve: %v", err)
	}
	if sol.Method != MethodSparse || sol.Sparse() == nil {
		t.Fatalf("sparse solve marked %v with factors %v", sol.Method, sol.Sparse() != nil)
	}
	s.SetMethod(MethodDense)
	sol, err = s.Solve(p)
	if err != nil {
		t.Fatalf("dense solve after sparse: %v", err)
	}
	if sol.Method != MethodDense {
		t.Fatalf("dense solve after sparse marked %v", sol.Method)
	}
	if sol.Sparse() != nil {
		t.Fatalf("dense solve kept stale sparse factors")
	}
	// The dense solve after a sparse one must reproduce a fresh dense
	// solver's bits: nothing of the sparse solve may leak through.
	requireSameSolution(t, sol, denseSolve(t, p))
}

// stickyP returns an n-state chain whose state 0 leaves with probability
// only leave: every other row is uniform. The stationary system's pivot
// for state 0 is ~leave against row entries of 1/n, which the
// no-pivoting sparse factorization rejects for leave ≲ 1e-13 while the
// pivoted dense LU solves it.
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

func denseSolve(t *testing.T, p *mat.Matrix) *Solution {
	t.Helper()
	sol, err := NewSolver(p.Rows()).Solve(p)
	if err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	return sol
}

// requireSameSolution fails unless got and want hold bit-identical
// P, π, W, Z and R.
func requireSameSolution(t *testing.T, got, want *Solution) {
	t.Helper()
	for name, pair := range map[string][2][]float64{
		"P":  {got.P.Data(), want.P.Data()},
		"Pi": {got.Pi, want.Pi},
		"W":  {got.W.Data(), want.W.Data()},
		"Z":  {got.Z.Data(), want.Z.Data()},
		"R":  {got.R.Data(), want.R.Data()},
	} {
		for i := range pair[1] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("%s[%d] = %v, dense reference has %v", name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestSolverSparseFallbackMarkedDense drives the ErrSingular fallback of
// a MethodSparse Solve between two healthy sparse solves: the fallback
// solution must come from the dense path, be marked MethodDense with no
// factors, and match a pure dense solve bit for bit, and the healthy
// solves on either side must be marked sparse.
func TestSolverSparseFallbackMarkedDense(t *testing.T) {
	for _, n := range []int{3, 8} {
		sticky := stickyP(n, 1e-13)
		healthy := sparseRingP(rng.New(3), n, 2)
		s := NewSolver(n)
		s.SetMethod(MethodSparse)
		if _, err := s.solveSparse(sticky); !errors.Is(err, mat.ErrSingular) {
			t.Fatalf("n=%d: sparse factorization err = %v, want ErrSingular", n, err)
		}
		for step, p := range []*mat.Matrix{healthy, sticky, healthy} {
			sol, err := s.Solve(p)
			if err != nil {
				t.Fatalf("n=%d step %d: Solve: %v", n, step, err)
			}
			if p == healthy {
				if sol.Method != MethodSparse || sol.Sparse() == nil {
					t.Fatalf("n=%d step %d: healthy solve marked %v", n, step, sol.Method)
				}
				continue
			}
			if sol.Method != MethodDense || sol.Sparse() != nil {
				t.Fatalf("n=%d: fallback marked %v with factors %v", n, sol.Method, sol.Sparse() != nil)
			}
			requireSameSolution(t, sol, denseSolve(t, p))
		}
	}
}

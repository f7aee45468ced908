package mat

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
)

// diagDominantSparse builds a random sparse strictly diagonally dominant
// matrix — the shape (up to the weak/strict distinction) of the shifted
// Markov systems the no-pivoting factorization is designed for.
func diagDominantSparse(src *rng.Source, n int, density float64) *Matrix {
	a := New(n, n)
	d := a.Data()
	for i := 0; i < n; i++ {
		row := d[i*n : (i+1)*n]
		var sum float64
		for j := range row {
			if j != i && src.Float64() < density {
				row[j] = src.Float64()*2 - 1
				sum += math.Abs(row[j])
			}
		}
		row[i] = sum + 0.5 + src.Float64()
	}
	return a
}

func TestFactorSparseSolvesLikeDense(t *testing.T) {
	src := rng.New(4)
	for _, tc := range []struct {
		n       int
		density float64
	}{
		{1, 1}, {5, 0.6}, {24, 0.2}, {80, 0.06}, {80, 0.5},
	} {
		a := diagDominantSparse(src, tc.n, tc.density)
		sp := FromDense(a, 0)
		f, err := FactorSparse(sp, 0)
		if err != nil {
			t.Fatalf("n=%d: FactorSparse: %v", tc.n, err)
		}
		if f.Order() != tc.n {
			t.Fatalf("Order = %d, want %d", f.Order(), tc.n)
		}
		if f.NNZ() < tc.n {
			t.Fatalf("NNZ = %d below order %d", f.NNZ(), tc.n)
		}
		dl, err := Factor(a)
		if err != nil {
			t.Fatalf("dense Factor: %v", err)
		}
		b := make([]float64, tc.n)
		for i := range b {
			b[i] = src.Float64() - 0.5
		}
		got := make([]float64, tc.n)
		want := make([]float64, tc.n)
		if err := f.SolveVecTo(got, b); err != nil {
			t.Fatalf("sparse solve: %v", err)
		}
		if err := dl.SolveVecTo(want, b); err != nil {
			t.Fatalf("dense solve: %v", err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d dens=%g: x[%d] = %g, want %g", tc.n, tc.density, i, got[i], want[i])
			}
		}
		// Transpose solve against the densely factored transpose.
		at := Transpose(a)
		dt, err := Factor(at)
		if err != nil {
			t.Fatalf("dense Factor(aᵀ): %v", err)
		}
		if err := f.SolveVecTransTo(got, b); err != nil {
			t.Fatalf("sparse solve-T: %v", err)
		}
		if err := dt.SolveVecTo(want, b); err != nil {
			t.Fatalf("dense solve-T: %v", err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d dens=%g: xT[%d] = %g, want %g", tc.n, tc.density, i, got[i], want[i])
			}
		}
	}
}

// TestFactorSparseDenseRowPinned checks the Markov shape specifically:
// sparse rows plus one dense last row (the e_nπᵀ shift). The fill ordering
// pins the dense row last so the factor fill stays near the input fill.
func TestFactorSparseDenseRowPinned(t *testing.T) {
	src := rng.New(6)
	n := 60
	a := diagDominantSparse(src, n, 0.05)
	d := a.Data()
	last := d[(n-1)*n : n*n]
	var sum float64
	for j := 0; j < n-1; j++ {
		last[j] = 0.1 + src.Float64()
		sum += last[j]
	}
	last[n-1] = sum + 1
	sp := FromDense(a, 0)
	f, err := FactorSparse(sp, 0)
	if err != nil {
		t.Fatalf("FactorSparse: %v", err)
	}
	// Fill should stay well under dense (n² = 3600); with the dense row
	// pinned last it is input-fill plus modest BFS-band fill.
	if f.NNZ() > n*n/2 {
		t.Fatalf("fill %d suggests the dense row was not pinned (dense would be %d)", f.NNZ(), n*n)
	}
	dl, err := Factor(a)
	if err != nil {
		t.Fatalf("dense Factor: %v", err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = src.Float64()
	}
	got, want := make([]float64, n), make([]float64, n)
	if err := f.SolveVecTo(got, b); err != nil {
		t.Fatalf("sparse solve: %v", err)
	}
	if err := dl.SolveVecTo(want, b); err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestFactorSparseRejectsSingular(t *testing.T) {
	// Zero row: rowMax == 0.
	zr, _ := NewFromRows([][]float64{{1, 0, 0}, {0, 0, 0}, {0, 0, 1}})
	if _, err := FactorSparse(FromDense(zr, 0), 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero row: err = %v, want ErrSingular", err)
	}
	// Exactly dependent rows: the second pivot cancels to zero.
	dep, _ := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorSparse(FromDense(dep, 0), 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("dependent rows: err = %v, want ErrSingular", err)
	}
	// Near-dependent rows: pivot collapses below the scaled threshold.
	near, _ := NewFromRows([][]float64{{1, 2}, {2, 4 + 4e-16}})
	if _, err := FactorSparse(FromDense(near, 0), 1e-12); !errors.Is(err, ErrSingular) {
		t.Fatalf("near-dependent rows: err = %v, want ErrSingular", err)
	}
	// Rectangular input.
	if _, err := FactorSparse(FromDense(New(2, 3), 0), 0); !errors.Is(err, ErrDimension) {
		t.Fatalf("rectangular: err = %v, want ErrDimension", err)
	}
}

func TestLowRankSolverMatchesDense(t *testing.T) {
	src := rng.New(8)
	n := 40
	a := diagDominantSparse(src, n, 0.15)
	sp := FromDense(a, 0)
	base, err := FactorSparse(sp, 0)
	if err != nil {
		t.Fatalf("FactorSparse: %v", err)
	}

	// Rank-2 update A + u₁v₁ᵀ + u₂v₂ᵀ with small random columns (small so
	// the update cannot make the matrix singular).
	u := [][]float64{make([]float64, n), make([]float64, n)}
	v := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		u[0][i] = 0.1 * (src.Float64() - 0.5)
		u[1][i] = 0.1 * (src.Float64() - 0.5)
		v[0][i] = 0.1 * (src.Float64() - 0.5)
		v[1][i] = 0.1 * (src.Float64() - 0.5)
	}
	lr, err := NewLowRankSolver(base, u, v)
	if err != nil {
		t.Fatalf("NewLowRankSolver: %v", err)
	}

	// Dense reference: B = A + Σ uᵢvᵢᵀ factored directly.
	bm := a.Clone()
	bd := bm.Data()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			bd[i*n+j] += u[0][i]*v[0][j] + u[1][i]*v[1][j]
		}
	}
	dl, err := Factor(bm)
	if err != nil {
		t.Fatalf("dense Factor(B): %v", err)
	}
	dt, err := Factor(Transpose(bm))
	if err != nil {
		t.Fatalf("dense Factor(Bᵀ): %v", err)
	}

	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = src.Float64() - 0.5
	}
	got, want := make([]float64, n), make([]float64, n)
	if err := lr.SolveVecTo(got, rhs); err != nil {
		t.Fatalf("low-rank solve: %v", err)
	}
	if err := dl.SolveVecTo(want, rhs); err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if err := lr.SolveVecTransTo(got, rhs); err != nil {
		t.Fatalf("low-rank solve-T: %v", err)
	}
	if err := dt.SolveVecTo(want, rhs); err != nil {
		t.Fatalf("dense solve-T: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("xT[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestLowRankSolverRowPerturbation exercises the line-search probe
// pattern: k rows of A change, expressed as Σ e_{rᵢ}·δᵢᵀ over the
// unperturbed factorization, so the probe reuses the base LU instead of
// refactoring.
func TestLowRankSolverRowPerturbation(t *testing.T) {
	src := rng.New(12)
	n := 50
	a := diagDominantSparse(src, n, 0.12)
	base, err := FactorSparse(FromDense(a, 0), 0)
	if err != nil {
		t.Fatalf("FactorSparse: %v", err)
	}

	rows := []int{3, 17, 41}
	u := make([][]float64, len(rows))
	v := make([][]float64, len(rows))
	pert := a.Clone()
	pd := pert.Data()
	for i, r := range rows {
		u[i] = make([]float64, n)
		u[i][r] = 1
		v[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			// Small perturbation keeps the matrix dominant and nonsingular.
			delta := 0.05 * (src.Float64() - 0.5)
			v[i][j] = delta
			pd[r*n+j] += delta
		}
	}
	lr, err := NewLowRankSolver(base, u, v)
	if err != nil {
		t.Fatalf("NewLowRankSolver: %v", err)
	}
	dl, err := Factor(pert)
	if err != nil {
		t.Fatalf("dense Factor(perturbed): %v", err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = src.Float64() - 0.5
	}
	got, want := make([]float64, n), make([]float64, n)
	if err := lr.SolveVecTo(got, b); err != nil {
		t.Fatalf("low-rank probe solve: %v", err)
	}
	if err := dl.SolveVecTo(want, b); err != nil {
		t.Fatalf("dense probe solve: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("probe x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestLowRankSolverRejectsBadShapes(t *testing.T) {
	a := diagDominantSparse(rng.New(14), 5, 0.5)
	base, err := FactorSparse(FromDense(a, 0), 0)
	if err != nil {
		t.Fatalf("FactorSparse: %v", err)
	}
	if _, err := NewLowRankSolver(base, nil, nil); !errors.Is(err, ErrDimension) {
		t.Fatalf("rank 0: err = %v, want ErrDimension", err)
	}
	if _, err := NewLowRankSolver(base, [][]float64{make([]float64, 4)}, [][]float64{make([]float64, 5)}); !errors.Is(err, ErrDimension) {
		t.Fatalf("short column: err = %v, want ErrDimension", err)
	}
}

package markov

import (
	"fmt"
	"slices"

	"repro/internal/mat"
)

// Method selects the linear-algebra backend a Solver uses for the
// fundamental-matrix systems.
type Method int

const (
	// MethodDense is the bit-exact reference path: dense LU with partial
	// pivoting and a full LU inverse for Z (the default; golden traces
	// pin it).
	MethodDense Method = iota
	// MethodSparse factors the sparse replaced-row stationary system with
	// a fill-reducing sparse LU and absorbs the W = 1πᵀ densification of
	// the fundamental-matrix system as a rank-2 Sherman–Morrison–Woodbury
	// update of that one factorization, so per-solve cost scales with
	// the factor fill instead of M³. Results agree with MethodDense to
	// SparseTol (see below). When the no-pivoting sparse factorization
	// rejects a near-singular pivot the solver transparently falls back
	// to the dense path (and the Solution's Method records MethodDense),
	// so MethodSparse never trades correctness for speed.
	MethodSparse
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodDense:
		return "dense"
	case MethodSparse:
		return "sparse"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// SparseTol is the documented agreement tolerance of the sparse path: for
// the well-conditioned Markov systems this package solves (κ bounded by
// the chain's mixing structure), sparse-vs-dense results for π, Z and R
// agree to SparseTol in max norm relative to the quantity's magnitude.
// The cross-check tests in cost assert exactly this contract on the four
// paper topologies plus random geometric instances.
const SparseTol = 1e-8

// SetMethod selects the solver backend for subsequent Solve calls.
func (s *Solver) SetMethod(m Method) { s.method = m }

// Method returns the solver's current backend.
func (s *Solver) Method() Method { return s.method }

// SparseFactors exposes the factorization behind a sparse Solve so
// downstream consumers (the cost gradient's Eq. 10 contractions) can
// solve against A = I − P + W and its transpose at factor-fill cost
// instead of re-deriving dense O(M³) products from Z.
type SparseFactors struct {
	lr  *mat.LowRankSolver
	nnz int // factor fill, for diagnostics
}

// SolveTranspose solves Aᵀ x = b, where A = I − P + W is the system whose
// inverse is the fundamental matrix Z; equivalently x = Zᵀ b up to the
// factorization's accuracy. x must not alias b.
func (f *SparseFactors) SolveTranspose(x, b []float64) error {
	return f.lr.SolveVecTransTo(x, b)
}

// SolveTransposeMulti solves Aᵀ X = B for k right-hand sides in the n×k
// row-major block layout of mat.SparseLU.SolveMultiTo (column r is one
// right-hand side). x and b may alias. This is the gradient's bulk
// Zᵀ·(·) contraction: one traversal of the factor covers every column.
func (f *SparseFactors) SolveTransposeMulti(x, b []float64, k int) error {
	return f.lr.SolveMultiTransTo(x, b, k)
}

// Solve solves A x = b (x = Z b up to factorization accuracy). x must
// not alias b.
func (f *SparseFactors) Solve(x, b []float64) error {
	return f.lr.SolveVecTo(x, b)
}

// FactorNNZ returns the stored entries of the underlying sparse LU.
func (f *SparseFactors) FactorNNZ() int { return f.nnz }

// Sparse returns the sparse factorization handle when the Solution came
// from a MethodSparse solve, nil otherwise (including after Clone, which
// detaches from solver-owned state).
func (s *Solution) Sparse() *SparseFactors { return s.sparse }

// sparseScratch holds the sparse path's per-solve assembly buffers plus
// the cached factorization machinery. Both the fill-reducing ordering
// (which depends only on the support pattern) and the SparseLU's flat
// factor storage (whose fill pattern is fixed for a fixed support and
// ordering) are reused across solves: line-search probes and successive
// descent iterates keep P's support, so after the first solve each
// Refactor allocates nothing and only pays the elimination flops.
// Consequence: a Solution's SparseFactors handle is backed by
// solver-owned storage and is invalidated by the solver's next Solve,
// exactly like the Solution itself (Clone detaches, dropping the handle).
type sparseScratch struct {
	rcols [][]int32
	rvals [][]float64
	u     []float64
	u2    []float64
	e     []float64
	x     []float64

	sig     []int32      // current stationary-system pattern signature
	pat     []int32      // pattern the cached ordering was computed for
	patPerm []int        // cached mat.FillOrder of pat
	lu      mat.SparseLU // factor storage, reused across Refactor calls
}

// solveSparse is the MethodSparse implementation. One sparse LU — of the
// transposed replaced-row stationary system S (rows of (I − P)ᵀ with the
// last row replaced by the Σπ = 1 normalization) — serves both solves:
// π comes from S x = e_n, and the fundamental-matrix system is a rank-2
// Woodbury update of Sᵀ,
//
//	A = I − P + 1πᵀ = Sᵀ + 1·πᵀ + (g − 1)·e_nᵀ,
//
// where g is the last column of I − P (Sᵀ differs from I − P only in
// that column, which the normalization row replaced). Z then arrives in
// one blocked multi-RHS solve against the identity. Any mat.ErrSingular
// from the no-pivoting factorization is returned for the caller to fall
// back to the dense path.
func (s *Solver) solveSparse(p *mat.Matrix) (*Solution, error) {
	n := s.n
	if s.sp == nil {
		s.sp = &sparseScratch{
			rcols: make([][]int32, n),
			rvals: make([][]float64, n),
			u:     make([]float64, n),
			u2:    make([]float64, n),
			e:     make([]float64, n),
			x:     make([]float64, n),
		}
	}
	sp := s.sp
	pd := p.Data()

	// Column-oriented access to P for the transposed stationary system.
	pt := mat.FromDense(p, 0).Transpose()

	// Stationary system S: rows i < n−1 hold (I − P)ᵀ, the last row is
	// all ones (the normalization Σπ = 1), right-hand side e_{n−1}.
	for i := 0; i < n-1; i++ {
		cols := sp.rcols[i][:0]
		vals := sp.rvals[i][:0]
		tc, tv := pt.Row(i)
		diagDone := false
		for k, c := range tc {
			j := int(c)
			if !diagDone && j >= i {
				if j == i {
					if v := 1 - tv[k]; v != 0 {
						cols = append(cols, c)
						vals = append(vals, v)
					}
					diagDone = true
					continue
				}
				cols = append(cols, int32(i))
				vals = append(vals, 1)
				diagDone = true
			}
			if v := -tv[k]; v != 0 {
				cols = append(cols, c)
				vals = append(vals, v)
			}
		}
		if !diagDone {
			cols = append(cols, int32(i))
			vals = append(vals, 1)
		}
		sp.rcols[i], sp.rvals[i] = cols, vals
	}
	{
		cols := sp.rcols[n-1][:0]
		vals := sp.rvals[n-1][:0]
		for j := 0; j < n; j++ {
			cols = append(cols, int32(j))
			vals = append(vals, 1)
		}
		sp.rcols[n-1], sp.rvals[n-1] = cols, vals
	}
	statSys, err := mat.NewSparseFromRows(n, n, sp.rcols, sp.rvals)
	if err != nil {
		return nil, err
	}
	// The fill-reducing ordering depends only on the support pattern;
	// recompute it only when the pattern changed since the last solve.
	sig := sp.sig[:0]
	for i := 0; i < n; i++ {
		sig = append(sig, int32(len(sp.rcols[i])))
		sig = append(sig, sp.rcols[i]...)
	}
	sp.sig = sig
	if !slices.Equal(sig, sp.pat) {
		sp.pat = append(sp.pat[:0], sig...)
		sp.patPerm = mat.FillOrder(statSys)
	}
	statLU := &sp.lu
	if err := statLU.Refactor(statSys, sp.patPerm, 0); err != nil {
		return nil, err
	}
	for i := range sp.e {
		sp.e[i] = 0
	}
	sp.e[n-1] = 1
	if err := statLU.SolveVecTo(s.sol.Pi, sp.e); err != nil {
		return nil, err
	}
	pi := s.sol.Pi
	if err := checkPositive(pi); err != nil {
		return nil, err
	}

	// W has every row equal to π (kept dense; O(n²) like the dense path).
	wd := s.sol.W.Data()
	for i := 0; i < n; i++ {
		copy(wd[i*n:(i+1)*n], pi)
	}

	// A = Sᵀ + 1·πᵀ + (g − 1)·e_{n−1}ᵀ: the same factorization that
	// produced π absorbs the fundamental-matrix system as a rank-2
	// Woodbury update, where g_j = δ_{j,n−1} − p_{j,n−1} is the last
	// column of I − P that the normalization row displaced.
	for i := range sp.u {
		sp.u[i] = 1
	}
	last := n - 1
	for j := 0; j < n; j++ {
		g := -pd[j*n+last]
		if j == last {
			g++
		}
		sp.u2[j] = g - 1
	}
	// sp.e still holds e_{n−1} from the π solve.
	lr, err := mat.NewLowRankSolverTrans(statLU,
		[][]float64{sp.u, sp.u2}, [][]float64{pi, sp.e})
	if err != nil {
		return nil, err
	}

	// Z = A⁻¹ in one blocked multi-RHS solve against the identity: the
	// n×n row-major block layout of SolveMultiTo (rhs r in column r)
	// coincides with Z's own layout, so the solve lands directly in Z.
	zd := s.sol.Z.Data()
	for i := range zd {
		zd[i] = 0
	}
	for i := 0; i < n; i++ {
		zd[i*n+i] = 1
	}
	if err := lr.SolveMultiTo(zd, zd, n); err != nil {
		return nil, err
	}

	// R_ij = (δ_ij − z_ij + z_jj) / π_j, as on the dense path.
	rd := s.sol.R.Data()
	zdiag := s.b
	for j := 0; j < n; j++ {
		zdiag[j] = zd[j*n+j]
	}
	for i := 0; i < n; i++ {
		zrow := zd[i*n : (i+1)*n]
		rrow := rd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			d := 0.0
			if i == j {
				d = 1
			}
			rrow[j] = (d - zrow[j] + zdiag[j]) / pi[j]
		}
	}

	if err := s.sol.P.CopyFrom(p); err != nil {
		return nil, err
	}
	s.sol.sparse = &SparseFactors{lr: lr, nnz: statLU.NNZ()}
	s.sol.Method = MethodSparse
	return &s.sol, nil
}

package markov

import (
	"errors"
	"fmt"

	"repro/internal/mat"
)

// Solver computes chain Solutions into preallocated buffers so that the
// optimizer's inner loop — which solves the same-sized chain thousands of
// times — performs no allocations in steady state.
//
// A Solver owns the Solution it returns: every call to Solve overwrites
// the previous result, so callers that need a Solution to outlive the next
// call must Clone it. A Solver is not safe for concurrent use; give each
// goroutine its own (the descent package allocates one per optimizer).
type Solver struct {
	n      int
	sol    Solution
	method Method

	lu  *mat.LU
	zin *mat.Matrix // holds I - P + W, then the stationary system (I-P)^T
	b   []float64   // right-hand side of the stationary system

	// Sparse-path assembly scratch, allocated on first sparse solve.
	sp *sparseScratch

	// Graph-check scratch for the ergodicity test.
	seen  []bool
	level []int
	queue []int
}

// NewSolver returns a Solver for n-state chains with all buffers
// preallocated.
func NewSolver(n int) *Solver {
	return &Solver{
		n: n,
		sol: Solution{
			P:  mat.New(n, n),
			Pi: make([]float64, n),
			W:  mat.New(n, n),
			Z:  mat.New(n, n),
			R:  mat.New(n, n),
		},
		lu:    mat.NewLU(n),
		zin:   mat.New(n, n),
		b:     make([]float64, n),
		seen:  make([]bool, n),
		level: make([]int, n),
		queue: make([]int, 0, n),
	}
}

// Solve validates p, checks ergodicity, and computes the stationary
// distribution and derived matrices into the Solver's buffers. The
// returned Solution aliases those buffers and is valid until the next
// Solve call. No allocations occur on the success path.
func (s *Solver) Solve(p *mat.Matrix) (*Solution, error) {
	n := s.n
	if p.Rows() != n || p.Cols() != n {
		return nil, fmt.Errorf("%w: solver for %d states got %dx%d",
			ErrNotStochastic, n, p.Rows(), p.Cols())
	}
	if err := CheckStochastic(p); err != nil {
		return nil, err
	}
	if !s.ergodic(p) {
		// Error path only: rebuild the diagnostic detail with the Chain
		// helpers (these allocate, which is fine off the hot path).
		c := &Chain{p: p}
		return nil, fmt.Errorf("%w: irreducible=%v period=%d",
			ErrNotErgodic, c.IsIrreducible(), c.Period())
	}
	if s.method == MethodSparse {
		sol, err := s.solveSparse(p)
		if err == nil {
			return sol, nil
		}
		if !errors.Is(err, mat.ErrSingular) {
			return nil, err
		}
		// Near-singular pivot in the no-pivoting sparse factorization:
		// fall back to the pivoted dense reference for this solve.
	}
	return s.solveDense(p)
}

// solveDense is the bit-exact dense reference path.
func (s *Solver) solveDense(p *mat.Matrix) (*Solution, error) {
	n := s.n
	s.sol.sparse = nil
	s.sol.Method = MethodDense
	if err := s.stationary(p); err != nil {
		return nil, err
	}
	pi := s.sol.Pi

	// W has every row equal to π.
	wd := s.sol.W.Data()
	for i := 0; i < n; i++ {
		copy(wd[i*n:(i+1)*n], pi)
	}

	// Z = (I - P + W)^{-1}: build the operand, factor, invert into Z.
	// The entry order (I - P) + W matches the original two-step SubM/AddM
	// construction bit for bit.
	zd := s.zin.Data()
	pd := p.Data()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := 0.0
			if i == j {
				d = 1
			}
			zd[i*n+j] = (d - pd[i*n+j]) + wd[i*n+j]
		}
	}
	if err := s.lu.Refactor(s.zin); err != nil {
		return nil, fmt.Errorf("markov: invert I-P+W: %w", err)
	}
	if err := s.lu.InverseTo(s.sol.Z); err != nil {
		return nil, fmt.Errorf("markov: invert I-P+W: %w", err)
	}

	// R_ij = (δ_ij - z_ij + z_jj) / π_j. The diagonal of Z is staged into
	// the RHS scratch (idle here) so the inner loop streams three
	// contiguous rows instead of re-reading a strided column.
	zdd := s.sol.Z.Data()
	rd := s.sol.R.Data()
	zdiag := s.b
	for j := 0; j < n; j++ {
		zdiag[j] = zdd[j*n+j]
	}
	for i := 0; i < n; i++ {
		zrow := zdd[i*n : (i+1)*n]
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
	return &s.sol, nil
}

// stationary solves π(I - P) = 0 with Σπ = 1 into s.sol.Pi, replacing one
// equation of the transposed homogeneous system with the normalization
// constraint (the same system the package-level stationary builds).
func (s *Solver) stationary(p *mat.Matrix) error {
	n := s.n
	a := s.zin.Data()
	pd := p.Data()
	for i := 0; i < n; i++ {
		arow := a[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			v := -pd[j*n+i]
			if i == j {
				v += 1
			}
			arow[j] = v
		}
	}
	for j := 0; j < n; j++ {
		a[(n-1)*n+j] = 1
	}
	for i := range s.b {
		s.b[i] = 0
	}
	s.b[n-1] = 1
	if err := s.lu.Refactor(s.zin); err != nil {
		if errors.Is(err, mat.ErrSingular) {
			return fmt.Errorf("%w: stationary system singular", ErrNotErgodic)
		}
		return err
	}
	if err := s.lu.SolveVecTo(s.sol.Pi, s.b); err != nil {
		return err
	}
	return checkPositive(s.sol.Pi)
}

// ergodic reports whether p's positive-probability graph is irreducible
// and aperiodic, using the Solver's scratch buffers. It mirrors
// Chain.IsErgodic exactly but allocates nothing.
func (s *Solver) ergodic(p *mat.Matrix) bool {
	if !s.reachesAll(p, false) || !s.reachesAll(p, true) {
		return false
	}
	return s.period(p) == 1
}

// reachesAll runs a BFS from state 0 over the positive-probability edge
// graph (or its reverse) and reports whether every state was visited.
func (s *Solver) reachesAll(p *mat.Matrix, reverse bool) bool {
	n := s.n
	for i := range s.seen {
		s.seen[i] = false
	}
	s.queue = s.queue[:0]
	s.seen[0] = true
	s.queue = append(s.queue, 0)
	pd := p.Data()
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		for v := 0; v < n; v++ {
			var w float64
			if reverse {
				w = pd[v*n+u]
			} else {
				w = pd[u*n+v]
			}
			if w > edgeTol && !s.seen[v] {
				s.seen[v] = true
				s.queue = append(s.queue, v)
			}
		}
	}
	return len(s.queue) == n
}

// period returns the gcd of cycle lengths through state 0, as in
// Chain.Period, using the Solver's scratch.
func (s *Solver) period(p *mat.Matrix) int {
	n := s.n
	for i := range s.level {
		s.level[i] = -1
	}
	s.level[0] = 0
	s.queue = s.queue[:0]
	s.queue = append(s.queue, 0)
	g := 0
	pd := p.Data()
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		prow := pd[u*n : (u+1)*n]
		for v := 0; v < n; v++ {
			if prow[v] <= edgeTol {
				continue
			}
			if s.level[v] == -1 {
				s.level[v] = s.level[u] + 1
				s.queue = append(s.queue, v)
			} else {
				g = gcd(g, abs(s.level[u]+1-s.level[v]))
			}
		}
	}
	if g == 0 {
		return 1
	}
	return g
}

// checkPositive rejects stationary vectors with non-positive or NaN
// entries, the shared failure mode of reducible chains.
func checkPositive(pi []float64) error {
	for i, v := range pi {
		if !(v > 0) {
			return fmt.Errorf("%w: π_%d = %v", ErrNotErgodic, i, v)
		}
	}
	return nil
}

// Clone returns a deep copy of the Solution, detaching it from whatever
// Solver buffers back it. Use it to retain a Solution past the next Solve
// call on the owning Solver. The Method marker is kept; the sparse
// factorization handle, when present, is not carried over: it aliases
// solver-owned factor storage.
func (s *Solution) Clone() *Solution {
	return &Solution{
		P:      s.P.Clone(),
		Pi:     append([]float64(nil), s.Pi...),
		W:      s.W.Clone(),
		Z:      s.Z.Clone(),
		R:      s.R.Clone(),
		Method: s.Method,
	}
}

package markov

import (
	"math"

	"repro/internal/mat"
)

// Solution bundles the limiting quantities of an ergodic chain that the
// cost function and its gradient consume: the stationary distribution π,
// the matrix W whose rows all equal π, the fundamental matrix
// Z = (I - P + W)^{-1} (Eq. 7), and the mean first-passage matrix R
// (Eq. 8). Everything is computed once in Solve and treated as immutable
// afterwards. Z² is not part of a Solution: the cost value never reads
// it, so the gradient (and DZ) form it themselves when they need it.
type Solution struct {
	// P is the transition matrix the solution was computed from.
	P *mat.Matrix
	// Pi is the stationary distribution π.
	Pi []float64
	// W has every row equal to Pi (Eq. 5 context).
	W *mat.Matrix
	// Z is the fundamental matrix (I - P + W)^{-1} (Eq. 7).
	Z *mat.Matrix
	// R is the mean first-passage time matrix: R_ij is the expected number
	// of transitions to first reach j starting from i, with
	// R_ii = 1/π_i the mean return time (Eq. 8 with the column-scaling
	// reading of R = (I - Z + J Z_dg) D; see DESIGN.md errata).
	R *mat.Matrix
	// Method is the backend that produced the solution: MethodSparse only
	// when the sparse factorization succeeded, MethodDense on the dense
	// path and after a sparse solve fell back to it. Consumers branch on
	// it to pick between the dense and sparse forms of their folds; unlike
	// Sparse(), it survives Clone.
	Method Method

	// sparse holds the factorization handle of a MethodSparse solve, nil
	// on the dense path and after Clone. Access via Sparse().
	sparse *SparseFactors
}

// Solve computes the stationary distribution and the derived matrices.
// It returns ErrNotErgodic for chains without a unique positive stationary
// distribution (checked structurally before any linear algebra).
//
// Each call allocates a fresh result. Hot loops that solve many same-sized
// chains should hold a Solver and call its Solve instead, which reuses one
// set of buffers across calls.
func (c *Chain) Solve() (*Solution, error) {
	return NewSolver(c.M()).Solve(c.p)
}

// StationaryPower estimates the stationary distribution by power
// iteration, used in tests to cross-validate the direct solve. It returns
// the distribution after either maxIter iterations or successive iterates
// differ by less than tol in max norm.
func (c *Chain) StationaryPower(maxIter int, tol float64) ([]float64, error) {
	n := c.M()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		next, err := c.Step(dist)
		if err != nil {
			return nil, err
		}
		var diff float64
		for i := range next {
			if d := math.Abs(next[i] - dist[i]); d > diff {
				diff = d
			}
		}
		dist = next
		if diff < tol {
			break
		}
	}
	return dist, nil
}

// GroupInverse returns Meyer's group generalized inverse A# of A = I - P,
// via A# = Z - W (equivalent to the paper's Z = I + P·A#, Eq. 7 context).
func (s *Solution) GroupInverse() (*mat.Matrix, error) {
	return mat.SubM(s.Z, s.W)
}

// EntropyRate returns the chain's entropy rate
// H = -Σ_i π_i Σ_j p_ij ln p_ij (§VII), in nats. Zero-probability
// transitions contribute zero.
func (s *Solution) EntropyRate() float64 {
	n := len(s.Pi)
	pd := s.P.Data()
	var h float64
	for i := 0; i < n; i++ {
		pii := s.Pi[i]
		row := pd[i*n : (i+1)*n]
		for _, p := range row {
			if p > 0 {
				h -= pii * p * math.Log(p)
			}
		}
	}
	return h
}

// KemenyConstant returns K = Σ_{j≠i} π_j R_ij, which is independent of the
// starting state i and equals trace(Z) - 1.
func (s *Solution) KemenyConstant() float64 {
	var tr float64
	for i := 0; i < len(s.Pi); i++ {
		tr += s.Z.At(i, i)
	}
	return tr - 1
}

// ConditionNumber returns the Funderlic–Meyer condition number of the
// stationary distribution: κ = max_{i,j} |a#_ij| where A# is the group
// inverse of I − P. It bounds the stationary distribution's sensitivity
// to perturbations of the transition matrix:
//
//	max_i |π̃_i − π_i| ≤ κ · ‖P̃ − P‖_∞
//
// for any ergodic P̃ (Funderlic & Meyer 1986). Schedules with small κ are
// robust to estimation error in the transition probabilities they are
// deployed with.
func (s *Solution) ConditionNumber() (float64, error) {
	aSharp, err := s.GroupInverse()
	if err != nil {
		return 0, err
	}
	return mat.MaxAbs(aSharp), nil
}

// DPi returns the directional derivative of the stationary distribution
// along a perturbation direction V with zero row sums:
// dπ = π V Z (Schweitzer; the paper's component form dπ_i/dt =
// Σ_{k,l} π_k z_li V_kl).
func (s *Solution) DPi(v *mat.Matrix) ([]float64, error) {
	pv, err := mat.VecMul(s.Pi, v)
	if err != nil {
		return nil, err
	}
	return mat.VecMul(pv, s.Z)
}

// DZ returns the directional derivative of the fundamental matrix along a
// zero-row-sum direction V: dZ = Z V Z - W V Z² (Schweitzer; the paper's
// component form dz_ij/dt = Σ_{kl} [z_ik z_lj - π_k (Z²)_lj] V_kl).
func (s *Solution) DZ(v *mat.Matrix) (*mat.Matrix, error) {
	zv, err := mat.Mul(s.Z, v)
	if err != nil {
		return nil, err
	}
	zvz, err := mat.Mul(zv, s.Z)
	if err != nil {
		return nil, err
	}
	wv, err := mat.Mul(s.W, v)
	if err != nil {
		return nil, err
	}
	// Solutions do not carry Z²; DZ is an off-hot-path diagnostic, so it
	// rebuilds the product here.
	z2, err := mat.Mul(s.Z, s.Z)
	if err != nil {
		return nil, err
	}
	wvz2, err := mat.Mul(wv, z2)
	if err != nil {
		return nil, err
	}
	return mat.SubM(zvz, wvz2)
}

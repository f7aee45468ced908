package cost

import (
	"fmt"
	"math"

	"repro/internal/markov"
	"repro/internal/mat"
)

// Gradient evaluates the cost at p and returns the evaluation together
// with the unprojected gradient [D_P U] of Eq. 10:
//
//	[D_P U]_kl = Σ_i π_k z_li ∂U/∂π_i
//	           + Σ_ij ∂U/∂z_ij (z_ik z_lj − π_k (Z²)_lj)
//	           + ∂U/∂p_kl.
//
// The partials ∂U/∂π, ∂U/∂Z, ∂U/∂P treat π, Z and P as independent
// variables; the chain rule through π(P) and Z(P) is supplied by
// Schweitzer's perturbation formulas, which the tensor contractions above
// encode. Callers typically project the result with Project before
// stepping so the iterate stays row-stochastic.
//
// Each call builds fresh results; hot loops should hold a Workspace and
// call GradientIn, which reuses one set of buffers and is bit-for-bit
// identical.
func (m *Model) Gradient(p *mat.Matrix) (*Evaluation, *mat.Matrix, error) {
	return m.GradientIn(m.NewWorkspace(), p)
}

// minParallelRows is the matrix order below which the gradient assembly
// and its contractions stay on the direct single-span path even when the
// workspace has a multi-worker pool: the fork/join handshake costs more
// than the whole pass for tiny systems. The cutover does not affect
// results — both paths produce identical bits.
const minParallelRows = 8

// gradTask adapts the fused per-row gradient pass to the par.Task
// interface. It lives inside the Workspace so dispatching it converts a
// long-lived pointer to an interface without allocating.
type gradTask struct {
	m  *Model
	ws *Workspace
	ev *Evaluation
}

func (t *gradTask) Run(w, lo, hi int) {
	t.m.gradientRows(t.ws, t.ev, w, lo, hi)
}

// mulTask row-partitions a matrix product across the pool. Dimensions are
// validated once before dispatch, so Run can ignore the error return.
type mulTask struct {
	dst, a, b *mat.Matrix
}

func (t *mulTask) Run(w, lo, hi int) {
	_ = mat.MulToRows(t.dst, t.a, t.b, lo, hi)
}

// gradientInto assembles [D_P U] from a completed evaluation into the
// workspace's gradient buffer. It performs no allocations on the success
// path.
//
// The partial-derivative phases are row-partitioned: each worker owns rows
// [lo, hi) of dUdP and dUdPi and (through the exposure term's structure)
// columns [lo, hi) of dUdZ, so no two workers touch the same float64 slot
// and every slot receives its additions in exactly the serial order. That
// owner-computes split — rather than per-worker shards merged at the end —
// is what keeps the parallel gradient bit-for-bit identical to the serial
// one: merging shards would reassociate floating-point sums.
func (m *Model) gradientInto(ws *Workspace, ev *Evaluation) (*mat.Matrix, error) {
	return m.gradientIntoWith(ws, ev, nil, 0, nil)
}

// gradientIntoWith is gradientInto with optional objective-coupling
// overrides. A nil coverCoef selects the standard coverage coefficients
// c_i = α_i G_i (and coverPhi is ignored); a non-nil coverCoef supplies
// c_i directly together with the travel-time coefficient coverPhi =
// Σ_i c_i Φ̃_i for caller-chosen per-PoI targets Φ̃, and forces the
// target-independent cover-list coverage form regardless of solver
// backend. A nil beta selects the model's exposure weights; a non-nil
// beta overrides them per PoI. The standard call (nil, 0, nil) is
// bit-for-bit the historic gradient.
func (m *Model) gradientIntoWith(ws *Workspace, ev *Evaluation, coverCoef []float64, coverPhi float64, beta []float64) (*mat.Matrix, error) {
	n := m.top.M()
	sol := ev.Sol

	ws.ensureGradient()
	width := ws.pool.Workers()
	if n < minParallelRows {
		width = 1
	}
	ws.ensureWorkerScratch(width)

	dUdPi := ws.dUdPi
	for i := range dUdPi {
		dUdPi[i] = 0
	}
	ws.dUdZ.Zero()
	ws.dUdP.Zero()

	// Shared precompute: the coverage coefficients c_i = α_i G_i are read
	// by every worker (each row j folds over all i), so they are built once
	// up front rather than per worker.
	carr := ws.carr
	ws.anyCover = false
	if coverCoef == nil {
		for i := 0; i < n; i++ {
			c := m.w.Alpha[i] * ev.G[i]
			carr[i] = c
			if c != 0 {
				ws.anyCover = true
			}
		}
	} else {
		for i := 0; i < n; i++ {
			c := coverCoef[i]
			carr[i] = c
			if c != 0 {
				ws.anyCover = true
			}
		}
	}
	if beta == nil {
		beta = m.w.Beta
	}
	ws.beta = beta
	// Sparse solutions flip the coverage partials to the cover-list form
	// and the Eq. 10 contractions to factor solves. A caller-supplied
	// coverCoef always uses the cover-list form: the lists are
	// target-independent, which is what lets the override carry its own
	// Φ̃ through coverPhi.
	sparseMode := sol.Method == markov.MethodSparse
	ws.sparseCover = sparseMode || coverCoef != nil
	if ws.sparseCover && ws.anyCover {
		if coverCoef == nil {
			var cphi float64 // Σ_i c_i Φ_i, the travel-time coefficient
			for i := 0; i < n; i++ {
				cphi += carr[i] * m.top.TargetAt(i)
			}
			ws.cphi = cphi
		} else {
			ws.cphi = coverPhi
		}
		m.coverLists() // build outside the worker fan-out
	}
	for w := 0; w < width; w++ {
		ws.errIdx[w] = -1
	}

	ws.gtask.m = m
	ws.gtask.ws = ws
	ws.gtask.ev = ev
	if width == 1 {
		ws.gtask.Run(0, 0, n)
	} else {
		ws.pool.Run(n, &ws.gtask)
	}

	// An absorbing row aborts a worker mid-span. The smallest recorded
	// index is the first row the serial loop would have rejected, so the
	// error is identical either way.
	errAt := -1
	for w := 0; w < width; w++ {
		if i := ws.errIdx[w]; i >= 0 && (errAt < 0 || i < errAt) {
			errAt = i
		}
	}
	if errAt >= 0 {
		// Same guard as Evaluate: a (numerically) absorbing row has no
		// finite exposure derivative, and dividing through would send
		// NaN/Inf into the line search. Normally unreachable because
		// Evaluate rejects such chains first, but gradientInto must not
		// trust that when handed a foreign Evaluation.
		return nil, fmt.Errorf("%w: p_%d%d = 1", markov.ErrNotErgodic, errAt, errAt)
	}

	// --- Assemble Eq. 10 contractions. ---
	// term1_kl = π_k (Z·dUdPi)_l.
	if err := mat.MulVecTo(ws.q, sol.Z, dUdPi); err != nil {
		return nil, err
	}
	// term2a = Zᵀ · dUdZ · Zᵀ. On the dense path the two O(M³) products
	// dominate the assembly cost and row-partition cleanly (row i of a
	// product depends only on row i of its left factor), so they run on
	// the pool. On the sparse path the left product is cheap anyway —
	// dUdZ only has entries on the exposure support, and MulTo skips zero
	// left-factor entries — and the right product is replaced by one
	// blocked M-rhs transpose solve against the sparse factorization
	// (Zᵀ = A⁻ᵀ), which costs factor fill per column instead of M² and
	// streams the factor once. The multi-RHS block layout (rhs r in
	// column r) coincides with the matrices' own row-major layout, so
	// tmp solves straight into term2a with no gather/scatter.
	if err := mat.TransposeTo(ws.zt, sol.Z); err != nil {
		return nil, err
	}
	if err := ws.mulRows(ws.tmp, ws.dUdZ, ws.zt, width); err != nil {
		return nil, err
	}
	if sf := sol.Sparse(); sparseMode && sf != nil {
		if err := sf.SolveTransposeMulti(ws.term2a.Data(), ws.tmp.Data(), n); err != nil {
			return nil, err
		}
	} else if err := ws.mulRows(ws.term2a, ws.zt, ws.tmp, width); err != nil {
		return nil, err
	}
	// term2b_kl = π_k (Z²·colsums(dUdZ))_l.
	colsum := ws.colsum
	for j := range colsum {
		colsum[j] = 0
	}
	dzd := ws.dUdZ.Data()
	for i := 0; i < n; i++ {
		row := dzd[i*n : (i+1)*n]
		for j, v := range row {
			colsum[j] += v
		}
	}
	if sparseMode {
		// Fold the vector through Z twice instead of forming Z².
		if err := mat.MulVecTo(ws.r2, sol.Z, colsum); err != nil {
			return nil, err
		}
		if err := mat.MulVecTo(ws.r, sol.Z, ws.r2); err != nil {
			return nil, err
		}
	} else {
		// The dense reference forms Z² once per gradient, in tmp (idle
		// since term2a consumed it); the pooled product has the serial
		// product's bits.
		z2 := ws.tmp
		if err := ws.mulRows(z2, sol.Z, sol.Z, width); err != nil {
			return nil, err
		}
		if err := mat.MulVecTo(ws.r, z2, colsum); err != nil {
			return nil, err
		}
	}

	gd := ws.grad.Data()
	t2d := ws.term2a.Data()
	dpd := ws.dUdP.Data()
	q, r := ws.q, ws.r
	for k := 0; k < n; k++ {
		pik := sol.Pi[k]
		grow := gd[k*n : (k+1)*n]
		t2row := t2d[k*n : (k+1)*n]
		dprow := dpd[k*n : (k+1)*n]
		for l := range grow {
			grow[l] = pik*(q[l]-r[l]) + t2row[l] + dprow[l]
		}
	}
	return ws.grad, nil
}

// mulRows runs dst = a·b, on the pool when it is wide enough to pay off.
func (ws *Workspace) mulRows(dst, a, b *mat.Matrix, width int) error {
	if width <= 1 {
		return mat.MulTo(dst, a, b)
	}
	// Validate dimensions once with an empty span so the per-span calls
	// inside the workers cannot fail.
	if err := mat.MulToRows(dst, a, b, 0, 0); err != nil {
		return err
	}
	ws.mtask.dst, ws.mtask.a, ws.mtask.b = dst, a, b
	ws.pool.Run(a.Rows(), &ws.mtask)
	return nil
}

// gradientRows accumulates every partial-derivative term owned by rows
// [lo, hi): rows of dUdP and dUdPi, plus columns [lo, hi) of dUdZ (the
// exposure term writes column i while processing row i). w names the
// worker's scratch slot.
//
// Bit-for-bit discipline: each dUdP/dUdPi/dUdZ slot must see exactly the
// additions of the serial i-outer loops, in the same order, with the same
// expression shapes. The coverage term is the delicate one — the serial
// loop is i-outer (over objectives) with rows inside, while this pass is
// row-outer — but per slot the accumulation still folds over ascending i,
// so the reordering changes which slots are interleaved, never the order
// within a slot. The zero-coefficient skip (c_i = 0) is preserved exactly:
// adding 0.0 is not a bitwise no-op (−0.0 + 0.0 = +0.0).
func (m *Model) gradientRows(ws *Workspace, ev *Evaluation, w, lo, hi int) {
	n := m.top.M()
	sol := ev.Sol
	pd := sol.P.Data()
	dpd := ws.dUdP.Data()
	dUdPi := ws.dUdPi
	carr := ws.carr

	// --- Coverage term: ½ Σ_i α_i G_i². ---
	switch {
	case ws.anyCover && ws.sparseCover:
		// Sparse form: S_jk = Σ_i c_i T_{jk,i} − (Σ_i c_i Φ_i)·T_jk, so
		// dUdP_jk = π_j S_jk and the dUdPi fold is Σ_k p_jk S_jk. The
		// per-(j,k) dot runs over the nonzero cover list instead of all M
		// PoIs, and the M³ at table is never touched.
		covPtr, covIdx, covVal := m.covPtr, m.covIdx, m.covVal
		cphi := ws.cphi
		for j := lo; j < hi; j++ {
			pij := sol.Pi[j]
			prow := pd[j*n : (j+1)*n]
			dprow := dpd[j*n : (j+1)*n]
			var acc float64
			for k := 0; k < n; k++ {
				slot := j*n + k
				var s float64
				for t := covPtr[slot]; t < covPtr[slot+1]; t++ {
					s += carr[covIdx[t]] * covVal[t]
				}
				s -= cphi * m.travel[slot]
				dprow[k] = pij * s
				if pjk := prow[k]; pjk != 0 {
					acc += pjk * s
				}
			}
			dUdPi[j] = acc
		}
	case ws.anyCover:
		at := m.atTable()
		rowAcc := ws.rowAcc[w]
		cpj := ws.cpj[w]
		for j := lo; j < hi; j++ {
			pij := sol.Pi[j]
			prow := pd[j*n : (j+1)*n]
			dprow := dpd[j*n : (j+1)*n]
			for i := 0; i < n; i++ {
				rowAcc[i] = 0
				cpj[i] = carr[i] * pij // (c·π_j), the serial c*sol.Pi[j]
			}
			for k := 0; k < n; k++ {
				pjk := prow[k]
				arow := at[(j*n+k)*n : (j*n+k+1)*n]
				var s float64 // the dUdP_jk fold over ascending i
				for i := 0; i < n; i++ {
					if carr[i] == 0 {
						continue
					}
					a := arow[i]
					s += cpj[i] * a
					rowAcc[i] += pjk * a // rowDot_i folds over ascending k
				}
				dprow[k] = s
			}
			var acc float64
			for i := 0; i < n; i++ {
				if carr[i] == 0 {
					continue
				}
				acc += carr[i] * rowAcc[i]
			}
			dUdPi[j] = acc
		}
	}

	// --- Exposure term: ½ Σ_i β_i Ē_i². ---
	// Row i contributes to row i of dUdP, entry i of dUdPi, and column i of
	// dUdZ — all owned by this span, so no other worker races these writes.
	dzd := ws.dUdZ.Data()
	zd := sol.Z.Data()
	beta := ws.beta
	for i := lo; i < hi; i++ {
		e := beta[i] * ev.EBarI[i]
		if e == 0 {
			continue
		}
		prow := pd[i*n : (i+1)*n]
		denom := 1 - prow[i]
		if denom <= 0 {
			ws.errIdx[w] = i
			return
		}
		pii := sol.Pi[i]
		dUdPi[i] -= e * ev.EBarI[i] / pii
		dzd[i*n+i] += e / pii
		zii := zd[i*n+i]
		pidenom := pii * denom
		dprow := dpd[i*n : (i+1)*n]
		ne := -e
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dzd[j*n+i] += ne * prow[j] / pidenom
			dprow[j] += e * (zii - zd[j*n+i]) / pidenom
		}
		dprow[i] += e * ev.EBarI[i] / denom
	}

	// --- Barrier penalty. ---
	eps := m.w.Epsilon
	for j := lo; j < hi; j++ {
		prow := pd[j*n : (j+1)*n]
		dprow := dpd[j*n : (j+1)*n]
		for k := 0; k < n; k++ {
			if g := barrierDeriv(prow[k], eps); g != 0 {
				dprow[k] += g
			}
		}
	}

	// --- Energy extension: ½ w (D − γ)². ---
	if m.w.EnergyWeight > 0 {
		c := m.w.EnergyWeight * (ev.Energy - m.w.EnergyTarget)
		for i := lo; i < hi; i++ {
			prow := pd[i*n : (i+1)*n]
			dprow := dpd[i*n : (i+1)*n]
			drow := m.top.DistanceRow(i)
			cpi := c * sol.Pi[i]
			var rowDist float64
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				d := drow[j]
				rowDist += prow[j] * d
				dprow[j] += cpi * d
			}
			dUdPi[i] += c * rowDist
		}
	}

	// --- Entropy extension: −λ H. ---
	if m.w.EntropyWeight > 0 {
		lam := m.w.EntropyWeight
		for i := lo; i < hi; i++ {
			prow := pd[i*n : (i+1)*n]
			dprow := dpd[i*n : (i+1)*n]
			lpi := lam * sol.Pi[i]
			var rowEnt float64 // Σ_j p_ij ln p_ij
			for j := 0; j < n; j++ {
				pij := prow[j]
				if pij <= 0 {
					continue
				}
				lp := math.Log(pij)
				rowEnt += pij * lp
				dprow[j] += lpi * (lp + 1)
			}
			dUdPi[i] += lam * rowEnt
		}
	}
}

// Project applies Eq. 11: it subtracts each row's mean so every row of the
// result sums to zero, making the negated result a feasible descent
// direction within the stochastic-matrix polytope's affine hull.
func Project(g *mat.Matrix) *mat.Matrix {
	out := mat.New(g.Rows(), g.Cols())
	ProjectTo(out, g)
	return out
}

// ProjectTo applies Eq. 11 into the caller-owned dst, which must share
// g's shape (dst == g is allowed: rows are rewritten after their mean is
// taken).
func ProjectTo(dst, g *mat.Matrix) {
	n := g.Rows()
	cols := g.Cols()
	gd := g.Data()
	dd := dst.Data()
	for i := 0; i < n; i++ {
		grow := gd[i*cols : (i+1)*cols]
		var sum float64
		for _, v := range grow {
			sum += v
		}
		mean := sum / float64(cols)
		drow := dd[i*cols : (i+1)*cols]
		for j, v := range grow {
			drow[j] = v - mean
		}
	}
}

// DirectionalDerivative returns ⟨[D_P U], V⟩, the rate of change of U
// along the perturbation direction V. For zero-row-sum V this equals
// d/dt U(P + tV) at t = 0, the property the finite-difference tests
// verify.
func DirectionalDerivative(grad, v *mat.Matrix) (float64, error) {
	return mat.FrobeniusInner(grad, v)
}

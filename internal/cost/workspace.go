package cost

import (
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/par"
)

// Workspace owns every buffer one evaluation/gradient pass needs: the
// Markov solver's π/W/Z/R storage, the Evaluation result slices, and the
// scratch matrices of the Eq. 10 contractions (the dense gradient forms
// Z² in one of them). With a Workspace, a model's EvaluateIn, ProbeIn and
// GradientIn perform zero allocations in steady state — the property the
// descent hot loop (dozens of probes per line search) depends on.
//
// A Workspace is not safe for concurrent use: the Evaluation and gradient
// returned by EvaluateIn/GradientIn alias its buffers and are overwritten
// by the next call. Give each goroutine its own Workspace (descent gives
// one to every Optimizer, so RunManyParallel workers never share);
// Evaluation.Clone detaches a result that must survive longer.
type Workspace struct {
	n      int
	solver *markov.Solver
	ev     Evaluation

	// pool, when set, row-partitions the gradient phases and the Eq. 10
	// matrix products across its workers. Results are bit-for-bit
	// identical with any pool width, including none.
	pool *par.Pool

	// Gradient scratch, allocated on first GradientIn so evaluate-only
	// workspaces stay small.
	dUdPi  []float64
	colsum []float64
	q      []float64
	r      []float64
	r2     []float64 // Z·colsum staging for the sparse path's Z·(Z·v)
	carr   []float64 // coverage coefficients c_i = α_i G_i
	// Sparse-path coverage state for the current gradient pass.
	sparseCover bool
	cphi        float64 // Σ_i c_i Φ_i
	// beta is the exposure-weight vector the current gradient pass reads:
	// the model's own β on the standard path, a caller override on the
	// weighted path (the fleet layer masks β to the argmin sensor).
	beta   []float64
	dUdZ   *mat.Matrix
	dUdP   *mat.Matrix
	zt     *mat.Matrix
	tmp    *mat.Matrix // dUdZ·Zᵀ, then Z² on the dense path
	term2a *mat.Matrix
	grad   *mat.Matrix

	// Per-worker gradient scratch, sized to the pool width on first use.
	anyCover bool
	errIdx   []int
	rowAcc   [][]float64
	cpj      [][]float64
	gtask    gradTask
	mtask    mulTask
}

// NewWorkspace returns a Workspace sized for the model's topology.
func (m *Model) NewWorkspace() *Workspace {
	n := m.top.M()
	return &Workspace{
		n:      n,
		solver: markov.NewSolver(n),
		ev: Evaluation{
			G:         make([]float64, n),
			CBar:      make([]float64, n),
			EBarI:     make([]float64, n),
			CoverTime: make([]float64, n),
		},
	}
}

// SetPool attaches a worker pool for the gradient assembly. A nil pool
// (the default) keeps the whole pass on the calling goroutine. The
// workspace does not own the pool; the caller stops it.
func (ws *Workspace) SetPool(p *par.Pool) {
	ws.pool = p
}

// SetSolver selects the markov backend for the workspace's chain solves.
// markov.MethodDense (the default) is the bit-exact reference;
// markov.MethodSparse trades bit-identity for factor-fill scaling at
// city-size M, agreeing with the dense results to markov.SparseTol (and
// transparently falling back to dense on near-singular systems).
func (ws *Workspace) SetSolver(method markov.Method) {
	ws.solver.SetMethod(method)
}

// Solver returns the workspace's current markov backend.
func (ws *Workspace) Solver() markov.Method { return ws.solver.Method() }

// ensureGradient lazily allocates the gradient-side scratch.
func (ws *Workspace) ensureGradient() {
	if ws.grad != nil {
		return
	}
	n := ws.n
	ws.dUdPi = make([]float64, n)
	ws.colsum = make([]float64, n)
	ws.q = make([]float64, n)
	ws.r = make([]float64, n)
	ws.r2 = make([]float64, n)
	ws.carr = make([]float64, n)
	ws.dUdZ = mat.New(n, n)
	ws.dUdP = mat.New(n, n)
	ws.zt = mat.New(n, n)
	ws.tmp = mat.New(n, n)
	ws.term2a = mat.New(n, n)
	ws.grad = mat.New(n, n)
}

// ensureWorkerScratch sizes the per-worker slots for the given pool
// width. Widths only ever grow, so steady-state calls allocate nothing.
func (ws *Workspace) ensureWorkerScratch(width int) {
	if len(ws.errIdx) >= width {
		return
	}
	ws.errIdx = make([]int, width)
	ws.rowAcc = make([][]float64, width)
	ws.cpj = make([][]float64, width)
	for w := 0; w < width; w++ {
		ws.rowAcc[w] = make([]float64, ws.n)
		ws.cpj[w] = make([]float64, ws.n)
	}
}

// EvaluateIn computes the full cost breakdown at p using the workspace's
// buffers. The returned Evaluation (including its Sol) aliases the
// workspace and is valid until the workspace's next use; Clone it to keep
// it longer. Results are bit-for-bit identical to Evaluate.
func (m *Model) EvaluateIn(ws *Workspace, p *mat.Matrix) (*Evaluation, error) {
	sol, err := ws.solver.Solve(p)
	if err != nil {
		return nil, err
	}
	if err := m.evaluateInto(&ws.ev, sol); err != nil {
		return nil, err
	}
	return &ws.ev, nil
}

// ProbeIn returns the cost U_ε at p — bit for bit EvaluateIn(ws, p).U,
// with the same errors — without building the rest of the breakdown. It
// is the line-search probe: the chain solve plus the coverage, exposure
// and barrier folds, and the §VII terms only when they carry weight. It
// uses the workspace's buffers, so an Evaluation returned earlier by
// EvaluateIn or GradientIn on ws is invalid afterwards. Beyond what the
// chain solve itself allocates, it allocates nothing.
func (m *Model) ProbeIn(ws *Workspace, p *mat.Matrix) (float64, error) {
	sol, err := ws.solver.Solve(p)
	if err != nil {
		return 0, err
	}
	return m.probeInto(ws.ev.G, ws.ev.EBarI, ws.ev.CoverTime, sol)
}

// GradientIn evaluates the cost and assembles the unprojected Eq. 10
// gradient using the workspace's buffers. Both returned values alias the
// workspace and are valid until its next use. Results are bit-for-bit
// identical to Gradient.
func (m *Model) GradientIn(ws *Workspace, p *mat.Matrix) (*Evaluation, *mat.Matrix, error) {
	ev, err := m.EvaluateIn(ws, p)
	if err != nil {
		return nil, nil, err
	}
	g, err := m.gradientInto(ws, ev)
	if err != nil {
		return nil, nil, err
	}
	return ev, g, nil
}

// GradientSolvedIn assembles the Eq. 10 gradient from an evaluation the
// workspace already holds: ev must be the value returned by this
// workspace's most recent EvaluateIn (or GradientIn), with no workspace
// use in between. It skips the O(M³) Markov re-solve that GradientIn
// would repeat — the descent loops use it to reuse the accepted
// line-search probe's solution for the next iteration's gradient. The
// result is bit-for-bit identical to calling GradientIn at the same
// matrix, because EvaluateIn is deterministic: re-solving would rebuild
// exactly the doubles ev already holds.
func (m *Model) GradientSolvedIn(ws *Workspace, ev *Evaluation) (*mat.Matrix, error) {
	return m.gradientInto(ws, ev)
}

// GradientWeightedSolvedIn is GradientSolvedIn with caller-supplied
// objective couplings: coverCoef replaces the coverage coefficients
// c_i = α_i G_i (with coverPhi = Σ_i c_i Φ̃_i for the caller's per-PoI
// targets Φ̃), and beta replaces the model's exposure weights. Either may
// be nil to keep the model's own term. The barrier, energy, and entropy
// partials are unchanged. The fleet layer uses this to assemble each
// sensor's slice of the stacked joint gradient: the coverage coupling
// c_i = α_i G_i^fleet with responsibility-scaled targets, and β masked to
// the PoIs whose min-over-sensors exposure this sensor owns. Like
// GradientSolvedIn, ev must be this workspace's most recent evaluation.
func (m *Model) GradientWeightedSolvedIn(ws *Workspace, ev *Evaluation, coverCoef []float64, coverPhi float64, beta []float64) (*mat.Matrix, error) {
	return m.gradientIntoWith(ws, ev, coverCoef, coverPhi, beta)
}

// Metrics returns U, Objective, DeltaC and EBar, the scalars a descent
// trace records.
func (ev *Evaluation) Metrics() (u, objective, deltaC, eBar float64) {
	return ev.U, ev.Objective, ev.DeltaC, ev.EBar
}

// Clone returns a deep copy of the Evaluation, detached from any
// workspace buffers backing it.
func (ev *Evaluation) Clone() *Evaluation {
	out := *ev
	out.G = append([]float64(nil), ev.G...)
	out.CBar = append([]float64(nil), ev.CBar...)
	out.EBarI = append([]float64(nil), ev.EBarI...)
	out.CoverTime = append([]float64(nil), ev.CoverTime...)
	if ev.Sol != nil {
		out.Sol = ev.Sol.Clone()
	}
	return &out
}

// Package fleet optimizes K mobile sensors jointly over the stacked
// K·M² parameter space of their transition matrices.
//
// The joint cost extends the paper's single-sensor U_ε (Eq. 9) in the
// spirit of Eqs. 7–10:
//
//   - Coverage adds across sensors. Each sensor s is assigned a
//     responsibility weight ρ_{s,i} per PoI (rows of a K×M matrix whose
//     columns sum to one; uniform 1/K by default) and contributes
//     G_i^(s) = Σ_{j,k} π_j^(s) p_jk^(s) (T_{jk,i} − ρ_{s,i} Φ_i T_jk),
//     its single-sensor coverage discrepancy against the scaled target
//     ρ_{s,i}Φ_i. The fleet discrepancy is G_i = Σ_s G_i^(s): the fleet
//     meets PoI i's share exactly when the sensors' combined cover time
//     matches Φ_i — responsibility only divides the work, the sum
//     restores the whole. The coverage term is ½ Σ_i α_i G_i².
//   - Exposure takes the best sensor. A PoI's expected exposure before
//     detection is governed by whichever sensor reaches it first, so the
//     fleet exposure at PoI i is Ē_i = min_s Ē_i^(s) (each Ē_i^(s) the
//     paper's Eq. 3 for that sensor's chain) and the term is
//     ½ Σ_i β_i Ē_i². At the min, only the owning sensor's parameters
//     move Ē_i, so the joint gradient masks β to the argmin owner
//     (lowest sensor index on ties) — the exact subgradient.
//   - Barrier, energy and entropy penalties are per-sensor and add.
//
// Because every term is a composition of single-sensor quantities with
// per-PoI coefficients, the joint gradient factors into K independent
// Eq. 10 assemblies with overridden couplings — cost.Model's
// GradientWeightedSolvedIn. A Model is a descent.Objective over the
// (K·M)×M stack of the sensors' matrices, with one cost.Workspace per
// sensor in each Workspace, so the fleet is optimized by the same engine
// as one sensor.
package fleet

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/par"
)

// ErrModel indicates an invalid fleet model configuration.
var ErrModel = errors.New("fleet: invalid model")

// Model evaluates the joint fleet cost and its stacked gradient for a
// fixed single-sensor cost model, sensor count, and responsibility
// assignment. A Model is immutable after construction and safe for
// concurrent use.
type Model struct {
	cm *cost.Model
	k  int
	m  int
	// resp is the K×M responsibility matrix, row-major: resp[s*m+i] is
	// sensor s's share of PoI i's coverage target.
	resp []float64
	// phi, alpha, beta cache the topology targets and objective weights
	// so the combine loops never chase the topology interface.
	phi   []float64
	alpha []float64
	beta  []float64
}

// UniformResponsibility returns the default assignment ρ_{s,i} = 1/K:
// every sensor owns an equal share of every PoI's coverage target.
func UniformResponsibility(sensors, m int) [][]float64 {
	rows := make([][]float64, sensors)
	v := 1 / float64(sensors)
	for s := range rows {
		row := make([]float64, m)
		for i := range row {
			row[i] = v
		}
		rows[s] = row
	}
	return rows
}

// NewModel builds a fleet model over the given single-sensor cost model.
// A nil responsibility selects the uniform 1/K assignment; otherwise it
// must be K rows of M finite non-negative shares with every PoI claimed
// by at least one sensor. Column sums need not be exactly one — the
// shares scale each sensor's target, and a fleet whose shares sum above
// (below) one at a PoI is simply asked to over- (under-) cover it.
func NewModel(cm *cost.Model, sensors int, responsibility [][]float64) (*Model, error) {
	if sensors < 1 {
		return nil, fmt.Errorf("%w: %d sensors", ErrModel, sensors)
	}
	m := cm.Topology().M()
	resp := make([]float64, sensors*m)
	if responsibility == nil {
		v := 1 / float64(sensors)
		for i := range resp {
			resp[i] = v
		}
	} else {
		if len(responsibility) != sensors {
			return nil, fmt.Errorf("%w: %d responsibility rows for %d sensors",
				ErrModel, len(responsibility), sensors)
		}
		for s, row := range responsibility {
			if len(row) != m {
				return nil, fmt.Errorf("%w: responsibility row %d has %d entries for %d PoIs",
					ErrModel, s, len(row), m)
			}
			for i, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return nil, fmt.Errorf("%w: responsibility[%d][%d] = %v",
						ErrModel, s, i, v)
				}
				resp[s*m+i] = v
			}
		}
		for i := 0; i < m; i++ {
			var col float64
			for s := 0; s < sensors; s++ {
				col += resp[s*m+i]
			}
			if col <= 0 {
				return nil, fmt.Errorf("%w: PoI %d has zero total responsibility", ErrModel, i)
			}
		}
	}
	w := cm.Weights()
	fm := &Model{
		cm:    cm,
		k:     sensors,
		m:     m,
		resp:  resp,
		phi:   make([]float64, m),
		alpha: w.Alpha,
		beta:  w.Beta,
	}
	top := cm.Topology()
	for i := 0; i < m; i++ {
		fm.phi[i] = top.TargetAt(i)
	}
	return fm, nil
}

// Cost returns the underlying single-sensor cost model.
func (fm *Model) Cost() *cost.Model { return fm.cm }

// Sensors returns the fleet size K.
func (fm *Model) Sensors() int { return fm.k }

// Responsibility returns a copy of the K×M responsibility matrix.
func (fm *Model) Responsibility() [][]float64 {
	out := make([][]float64, fm.k)
	for s := 0; s < fm.k; s++ {
		out[s] = append([]float64(nil), fm.resp[s*fm.m:(s+1)*fm.m]...)
	}
	return out
}

// Evaluation is the joint cost breakdown at one stack of K transition
// matrices.
type Evaluation struct {
	// U is the total penalized joint cost, the optimizer objective.
	U float64
	// Objective is U without the barrier penalties.
	Objective float64

	// CoverageTerm is ½ Σ_i α_i G_i² over the fleet discrepancies.
	CoverageTerm float64
	// ExposureTerm is ½ Σ_i β_i (min_s Ē_i^(s))².
	ExposureTerm float64
	// Penalty is the summed per-sensor barrier contribution.
	Penalty float64
	// EnergyTerm and EntropyTerm are the summed per-sensor §VII
	// extensions (zero when disabled).
	EnergyTerm  float64
	EntropyTerm float64

	// DeltaC is the weight-free fleet coverage deviation Σ_i G_i²
	// (Eq. 12 with the fleet G).
	DeltaC float64
	// EBar is sqrt(Σ_i Ē_i²) over the min-over-sensors exposures
	// (Eq. 13 with the fleet Ē).
	EBar float64
	// G are the fleet per-PoI coverage discrepancies Σ_s G_i^(s).
	G []float64
	// MinExposure are the per-PoI fleet exposures min_s Ē_i^(s).
	MinExposure []float64
	// Owner[i] is the sensor achieving MinExposure[i] (lowest index on
	// ties) — the sensor whose parameters the exposure gradient flows to.
	Owner []int
	// UnionShare is the analytic prediction of the simulated union
	// coverage share per PoI: 1 − Π_s (1 − C̄_i^(s)), the
	// independent-overlap approximation of the fraction of time at least
	// one sensor covers PoI i.
	UnionShare []float64
}

// Metrics returns U, Objective, DeltaC and EBar, the scalars a descent
// trace records.
func (ev *Evaluation) Metrics() (u, objective, deltaC, eBar float64) {
	return ev.U, ev.Objective, ev.DeltaC, ev.EBar
}

// Clone returns a deep copy detached from any workspace buffers.
func (ev *Evaluation) Clone() *Evaluation {
	out := *ev
	out.G = append([]float64(nil), ev.G...)
	out.MinExposure = append([]float64(nil), ev.MinExposure...)
	out.Owner = append([]int(nil), ev.Owner...)
	out.UnionShare = append([]float64(nil), ev.UnionShare...)
	return &out
}

// Workspace is the fleet objective's per-worker scratch: one
// cost.Workspace per sensor, the sensor blocks of the last evaluated
// stack, and the joint evaluation and stacked gradient built from them.
// Like cost.Workspace it is not safe for concurrent use.
type Workspace struct {
	ws        []*cost.Workspace
	evs       []*cost.Evaluation // ws[s]'s current evaluation
	ps        []*mat.Matrix      // sensor s's block of the evaluated stack
	ev        Evaluation
	grad      *mat.Matrix // (K·M)×M stacked gradient
	coverCoef []float64   // shared c_i = α_i G_i^fleet
	betaMask  []float64   // β masked to one sensor's owned PoIs
}

// NewWorkspace returns a Workspace sized for the model.
func (fm *Model) NewWorkspace() *Workspace {
	k, m := fm.k, fm.m
	ws := &Workspace{
		ws:  make([]*cost.Workspace, k),
		evs: make([]*cost.Evaluation, k),
		ps:  make([]*mat.Matrix, k),
		ev: Evaluation{
			G:           make([]float64, m),
			MinExposure: make([]float64, m),
			Owner:       make([]int, m),
			UnionShare:  make([]float64, m),
		},
		grad:      mat.New(k*m, m),
		coverCoef: make([]float64, m),
		betaMask:  make([]float64, m),
	}
	for s := 0; s < k; s++ {
		ws.ws[s] = fm.cm.NewWorkspace()
		ws.ps[s] = mat.New(m, m)
	}
	return ws
}

// SetSolver selects the markov backend of every sensor's chain solves.
func (ws *Workspace) SetSolver(method markov.Method) {
	for _, w := range ws.ws {
		w.SetSolver(method)
	}
}

// SetPool row-partitions each sensor's gradient assembly across the pool;
// the sensors themselves run in ascending order.
func (ws *Workspace) SetPool(p *par.Pool) {
	for _, w := range ws.ws {
		w.SetPool(p)
	}
}

// NewDescent builds the descent engine over the model's K-stack: the
// options' InitialP, when set, and every matrix the engine reports are
// (K·M)×M, sensor s in rows s·M to (s+1)·M−1.
func (fm *Model) NewDescent(opts descent.Options) (*descent.Engine[*Model, *Evaluation, *Workspace], error) {
	return descent.NewStack(fm, fm.k, fm.m, opts)
}

// Unstack splits a (K·M)×M stack into K fresh M×M matrices.
func (fm *Model) Unstack(p *mat.Matrix) []*mat.Matrix {
	out := make([]*mat.Matrix, fm.k)
	mm := fm.m * fm.m
	for s := range out {
		out[s] = mat.New(fm.m, fm.m)
		copy(out[s].Data(), p.Data()[s*mm:(s+1)*mm])
	}
	return out
}

// combine folds K single-sensor evaluations into the joint breakdown.
// Every accumulation is a fixed-order fold (PoIs outer, sensors inner,
// both ascending), so the result is deterministic regardless of how the
// per-sensor evaluations were scheduled.
func (fm *Model) combine(evs []*cost.Evaluation, out *Evaluation) {
	m, k := fm.m, fm.k
	out.U, out.Objective = 0, 0
	out.CoverageTerm, out.ExposureTerm, out.Penalty = 0, 0, 0
	out.EnergyTerm, out.EntropyTerm = 0, 0
	out.DeltaC, out.EBar = 0, 0

	for i := 0; i < m; i++ {
		var g float64
		for s := 0; s < k; s++ {
			ev := evs[s]
			// G_i^(s) against the responsibility-scaled target, rebuilt
			// from the raw numerator: CoverTime − ρΦ·TotalTime.
			g += ev.CoverTime[i] - fm.resp[s*m+i]*fm.phi[i]*ev.TotalTime
		}
		out.G[i] = g
		out.CoverageTerm += 0.5 * fm.alpha[i] * g * g
		out.DeltaC += g * g
	}

	var sumE2 float64
	for i := 0; i < m; i++ {
		best, owner := evs[0].EBarI[i], 0
		for s := 1; s < k; s++ {
			if e := evs[s].EBarI[i]; e < best {
				best, owner = e, s
			}
		}
		out.MinExposure[i] = best
		out.Owner[i] = owner
		out.ExposureTerm += 0.5 * fm.beta[i] * best * best
		sumE2 += best * best
	}
	out.EBar = math.Sqrt(sumE2)

	for i := 0; i < m; i++ {
		prod := 1.0
		for s := 0; s < k; s++ {
			c := evs[s].CBar[i]
			if c < 0 {
				c = 0
			} else if c > 1 {
				c = 1
			}
			prod *= 1 - c
		}
		out.UnionShare[i] = 1 - prod
	}

	for s := 0; s < k; s++ {
		out.Penalty += evs[s].Penalty
		out.EnergyTerm += evs[s].EnergyTerm
		out.EntropyTerm += evs[s].EntropyTerm
	}
	out.Objective = out.CoverageTerm + out.ExposureTerm + out.EnergyTerm + out.EntropyTerm
	out.U = out.Objective + out.Penalty
}

// EvaluateIn computes the joint cost breakdown at the (K·M)×M stack p
// using the workspace's buffers; the result is valid until ws's next use.
func (fm *Model) EvaluateIn(ws *Workspace, p *mat.Matrix) (*Evaluation, error) {
	if p.Rows() != fm.k*fm.m || p.Cols() != fm.m {
		return nil, fmt.Errorf("%w: %dx%d stack for %d sensors of %d PoIs",
			ErrModel, p.Rows(), p.Cols(), fm.k, fm.m)
	}
	mm := fm.m * fm.m
	for s, b := range ws.ps {
		copy(b.Data(), p.Data()[s*mm:(s+1)*mm])
	}
	return fm.evaluateBlocks(ws, ws.ps)
}

// evaluateBlocks evaluates the K sensor matrices ps in ascending order
// and folds them into ws's joint evaluation.
func (fm *Model) evaluateBlocks(ws *Workspace, ps []*mat.Matrix) (*Evaluation, error) {
	for s, p := range ps {
		ev, err := fm.cm.EvaluateIn(ws.ws[s], p)
		if err != nil {
			return nil, fmt.Errorf("fleet: sensor %d: %w", s, err)
		}
		ws.evs[s] = ev
	}
	fm.combine(ws.evs, &ws.ev)
	return &ws.ev, nil
}

// ProbeIn returns the joint cost U at the stack p: EvaluateIn's U.
func (fm *Model) ProbeIn(ws *Workspace, p *mat.Matrix) (float64, error) {
	ev, err := fm.EvaluateIn(ws, p)
	if err != nil {
		return 0, err
	}
	return ev.U, nil
}

// GradientSolvedIn assembles the unprojected stacked gradient at the
// point of ev, which must be ws's most recent evaluation: block s is
// ∂U/∂P^(s), the single-sensor Eq. 10 assembly with the fleet couplings.
// The result aliases ws.
func (fm *Model) GradientSolvedIn(ws *Workspace, ev *Evaluation) (*mat.Matrix, error) {
	for i := 0; i < fm.m; i++ {
		ws.coverCoef[i] = fm.alpha[i] * ev.G[i]
	}
	mm := fm.m * fm.m
	for s := 0; s < fm.k; s++ {
		fm.maskBeta(ws.betaMask, ev.Owner, s)
		g, err := fm.cm.GradientWeightedSolvedIn(ws.ws[s], ws.evs[s], ws.coverCoef, fm.coverPhi(ws.coverCoef, s), ws.betaMask)
		if err != nil {
			return nil, fmt.Errorf("fleet: sensor %d gradient: %w", s, err)
		}
		copy(ws.grad.Data()[s*mm:(s+1)*mm], g.Data())
	}
	return ws.grad, nil
}

// Evaluate computes the joint cost breakdown at the K-matrix stack ps.
// Each call allocates a fresh workspace; the descent engine reuses one.
func (fm *Model) Evaluate(ps []*mat.Matrix) (*Evaluation, error) {
	if len(ps) != fm.k {
		return nil, fmt.Errorf("%w: %d matrices for %d sensors", ErrModel, len(ps), fm.k)
	}
	ev, err := fm.evaluateBlocks(fm.NewWorkspace(), ps)
	if err != nil {
		return nil, err
	}
	return ev.Clone(), nil
}

// Gradient evaluates the joint cost at ps and returns the evaluation
// together with the K unprojected gradient blocks of the stacked
// objective (block s is ∂U/∂P^(s)). Like Evaluate, each call allocates.
func (fm *Model) Gradient(ps []*mat.Matrix) (*Evaluation, []*mat.Matrix, error) {
	if len(ps) != fm.k {
		return nil, nil, fmt.Errorf("%w: %d matrices for %d sensors", ErrModel, len(ps), fm.k)
	}
	ws := fm.NewWorkspace()
	ev, err := fm.evaluateBlocks(ws, ps)
	if err != nil {
		return nil, nil, err
	}
	g, err := fm.GradientSolvedIn(ws, ev)
	if err != nil {
		return nil, nil, err
	}
	return ev.Clone(), fm.Unstack(g), nil
}

// coverPhi returns sensor s's travel-time coupling Σ_i c_i ρ_{s,i} Φ_i
// for the given coverage coefficients.
func (fm *Model) coverPhi(coverCoef []float64, s int) float64 {
	var cphi float64
	base := s * fm.m
	for i := 0; i < fm.m; i++ {
		cphi += coverCoef[i] * fm.resp[base+i] * fm.phi[i]
	}
	return cphi
}

// maskBeta fills dst with β_i where sensor s owns PoI i's min exposure
// and zero elsewhere.
func (fm *Model) maskBeta(dst []float64, owner []int, s int) {
	for i := 0; i < fm.m; i++ {
		if owner[i] == s {
			dst[i] = fm.beta[i]
		} else {
			dst[i] = 0
		}
	}
}

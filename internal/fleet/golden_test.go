package fleet

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/topology"
)

// goldenCost is the fixed objective the fleet pins were captured with:
// uniform α=1 β=1e-3 plus both §VII extensions, so every term of the joint
// cost and its gradient is exercised.
func goldenCost(t *testing.T, top *topology.Topology) *cost.Model {
	t.Helper()
	w := cost.Uniform(top.M(), 1, 1e-3)
	w.EnergyWeight = 0.5
	w.EnergyTarget = 0.3
	w.EntropyWeight = 0.05
	cm, err := cost.NewModel(top, w)
	if err != nil {
		t.Fatalf("cost.NewModel: %v", err)
	}
	return cm
}

// goldenRun is the single entry point the pins go through: one seeded
// stacked perturbed descent with a recorded trace.
func goldenRun(t *testing.T, cm *cost.Model, sensors int, solver markov.Method, workers int) (float64, []*mat.Matrix, []descent.IterRecord) {
	t.Helper()
	fm, res, err := optimize(cm, sensors, descent.Options{
		Seed: 2024, MaxIters: 20, StallIters: 1000,
		Solver: solver, Workers: workers, RecordTrace: true,
	})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return res.Eval.U, fm.Unstack(res.P), res.Trace
}

// stackHash is an FNV-1a hash of every entry's exact bit pattern, sensor
// by sensor in row-major order.
func stackHash(ps []*mat.Matrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range ps {
		for _, v := range p.Data() {
			putBits(&b, math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// traceHash is an FNV-1a hash of every trace record except Probes, the
// one field the batched line search makes scheduling-dependent.
func traceHash(trace []descent.IterRecord) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range trace {
		acc := uint64(0)
		if r.Accepted {
			acc = 1
		}
		for _, v := range []uint64{
			uint64(r.Iter), math.Float64bits(r.U), math.Float64bits(r.Objective),
			math.Float64bits(r.DeltaC), math.Float64bits(r.EBar),
			math.Float64bits(r.Step), acc,
		} {
			putBits(&b, v)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func putBits(b *[8]byte, v uint64) {
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}

// probeSeq renders the per-iteration probe counts as one string.
func probeSeq(trace []descent.IterRecord) string {
	parts := make([]string, len(trace))
	for i, r := range trace {
		parts[i] = strconv.Itoa(r.Probes)
	}
	return strings.Join(parts, " ")
}

// TestGoldenFleetTraces pins the stacked descent bit for bit: the best
// joint U, the best stack, and the trace for K = 1, 2, 3 sensors on paper
// topologies 2 and 3 under both solvers. Every case runs at Workers 1 and
// 4 against the same pins; the per-iteration probe counts are pinned at
// Workers 1, where the line search is serial.
func TestGoldenFleetTraces(t *testing.T) {
	tops := map[int]*topology.Topology{2: topology.Topology2(), 3: topology.Topology3()}
	cases := []struct {
		top     int
		sensors int
		solver  markov.Method
		bestU   uint64
		stack   uint64
		trace   uint64
		probes  string
	}{
		{2, 1, markov.MethodDense, 0x3faf59ff4321f1d9, 0x2814bcdc33150f38, 0xfbe14dd5e403bd09, "41 41 40 39 40 40 40 40 41 40 40 40 40 43 40 41 41 41 41 42"},
		{2, 1, markov.MethodSparse, 0x3faf59ff4321f201, 0xf5c4fe39464eac8c, 0xf2bc181e38b35299, "41 41 40 39 40 40 40 40 41 40 40 40 40 43 40 41 41 41 41 42"},
		{2, 2, markov.MethodDense, 0x3fa1e13a5824cd40, 0xb9682e8e670c580c, 0xf22c63f47a83352a, "40 39 40 44 40 45 40 44 39 45 40 40 40 39 39 39 42 40 41 39"},
		{2, 2, markov.MethodSparse, 0x3fa1e13a5824d442, 0x3317b9238f74cdbe, 0xfda7573d85919ffc, "40 39 40 44 40 45 40 44 39 45 40 40 40 39 39 39 42 40 41 39"},
		{2, 3, markov.MethodDense, 0x3fd68754efa3f338, 0x10ee53d15b473d77, 0x5a8647f4bb28e1f7, "40 39 39 39 39 39 39 40 40 40 39 41 40 39 40 40 40 40 42 28"},
		{2, 3, markov.MethodSparse, 0x3fd68754ef706184, 0x52d13f8c4259d75e, 0x9e33ff416ddfae03, "40 39 39 39 39 39 39 40 40 40 39 41 40 39 40 40 40 40 42 30"},
		{3, 1, markov.MethodDense, 0x3fd06a02fe21e650, 0xf7742a80148bbf61, 0x49e8584417b3f3bf, "41 40 41 40 41 40 42 40 41 40 40 40 40 40 40 41 40 40 40 40"},
		{3, 1, markov.MethodSparse, 0x3fd06a02fe21dae1, 0xf699a3b845df59fc, 0x430bc75bd2445b20, "41 40 41 40 41 40 42 40 41 40 40 40 40 40 40 41 40 40 40 40"},
		{3, 2, markov.MethodDense, 0x3fcbe2105707e2a7, 0xe4c36885e462edc5, 0x3bfb319d36f50a70, "39 40 39 40 39 39 39 40 39 39 39 39 39 39 39 39 42 39 40 39"},
		{3, 2, markov.MethodSparse, 0x3fcbe2105560453e, 0xe5ebe6f5023db82c, 0xb86b436f1047c1bb, "39 40 39 40 39 39 39 40 39 39 39 39 39 39 39 39 42 39 40 39"},
		{3, 3, markov.MethodDense, 0x3fe92093c538e5fd, 0x80b704005e8f77f2, 0x85adab12da41a61d, "39 40 39 39 40 39 44 39 39 39 44 40 41 39 39 39 42 39 45 39"},
		{3, 3, markov.MethodSparse, 0x3fe92093c539b17b, 0x4eb199adba88d153, 0xacfc500161d84256, "39 40 39 39 40 39 44 39 39 39 44 40 41 39 39 39 42 39 45 39"},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("top%d/k%d/%s", tc.top, tc.sensors, tc.solver)
		t.Run(name, func(t *testing.T) {
			cm := goldenCost(t, tops[tc.top])
			for _, workers := range []int{1, 4} {
				u, ps, trace := goldenRun(t, cm, tc.sensors, tc.solver, workers)
				if got := math.Float64bits(u); got != tc.bestU {
					t.Errorf("workers=%d: bestU bits = %#x, want %#x (U = %v)", workers, got, tc.bestU, u)
				}
				if got := stackHash(ps); got != tc.stack {
					t.Errorf("workers=%d: stack hash = %#x, want %#x", workers, got, tc.stack)
				}
				if got := traceHash(trace); got != tc.trace {
					t.Errorf("workers=%d: trace hash = %#x, want %#x", workers, got, tc.trace)
				}
				if workers == 1 {
					if got := probeSeq(trace); got != tc.probes {
						t.Errorf("probes = %q, want %q", got, tc.probes)
					}
				}
			}
		})
	}
}

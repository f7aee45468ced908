package main

import (
	"fmt"
	"math/rand/v2"

	"repro/coverage"
	"repro/internal/geom"
	"repro/internal/topology"
)

// Every input is drawn from a PCG stream keyed by the workload seed and a
// per-use stream constant, so the same seed always yields the same inputs
// and the program under test never sees the seed itself.
func stream(seed uint64, use uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^use))
}

const (
	streamTarget = iota + 1
	streamStart
	streamPlace
	streamJobs
	streamPrefill
	streamFill
)

// target draws a coverage allocation Φ with entries within ±spread of
// uniform (before normalizing), so costs differ across seeds without
// changing the problem's character.
func target(r *rand.Rand, m int, spread float64) []float64 {
	t := make([]float64, m)
	var s float64
	for i := range t {
		t[i] = 1 - spread + 2*spread*r.Float64()
		s += t[i]
	}
	for i := range t {
		t[i] /= s
	}
	return t
}

// stochastic draws a row-stochastic m×m matrix with entries within ±10%
// of uniform, so short descents from it end at similar costs.
func stochastic(r *rand.Rand, m int) [][]float64 {
	p := make([][]float64, m)
	for i := range p {
		row := make([]float64, m)
		var s float64
		for j := range row {
			row[j] = 0.9 + 0.2*r.Float64()
			s += row[j]
		}
		for j := range row {
			row[j] /= s
		}
		p[i] = row
	}
	return p
}

func uniformMatrix(m int) [][]float64 {
	p := make([][]float64, m)
	for i := range p {
		p[i] = make([]float64, m)
		for j := range p[i] {
			p[i][j] = 1 / float64(m)
		}
	}
	return p
}

// cityPoIs places m PoIs uniformly in a side×side square with pairwise
// separation above 2r·1.1, so every sensing disk is disjoint with margin.
func cityPoIs(r *rand.Rand, m int, side float64) []coverage.PoI {
	minSep := 2 * coverage.DefaultRange * 1.1
	pts := make([]coverage.PoI, 0, m)
	for len(pts) < m {
		x, y := side*r.Float64(), side*r.Float64()
		ok := true
		for _, q := range pts {
			if dx, dy := q.X-x, q.Y-y; dx*dx+dy*dy <= minSep*minSep {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, coverage.PoI{X: x, Y: y})
		}
	}
	return pts
}

// internalTopology builds the topology coverage.Validate builds for a
// scenario without obstacles, applying the same defaults, so the traced
// replays run on exactly the problem the public calls solve.
func internalTopology(scn coverage.Scenario) (*topology.Topology, error) {
	if len(scn.Obstacles) != 0 {
		return nil, fmt.Errorf("scenario %q: replay does not route around obstacles", scn.Name)
	}
	orDefault := func(v, def float64) float64 {
		if v == 0 {
			return def
		}
		return v
	}
	pois := make([]topology.PoI, len(scn.PoIs))
	for i, p := range scn.PoIs {
		pois[i] = topology.PoI{Pos: geom.Point{X: p.X, Y: p.Y}, Pause: orDefault(p.Pause, coverage.DefaultPause)}
	}
	return topology.New(topology.Config{
		Name:   scn.Name,
		PoIs:   pois,
		Target: scn.Target,
		Range:  orDefault(scn.Range, coverage.DefaultRange),
		Speed:  orDefault(scn.Speed, coverage.DefaultSpeed),
	})
}

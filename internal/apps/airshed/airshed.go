// Package airshed models the paper's second benchmark application: the
// Airshed pollution simulation [Subhlok et al., IPPS'98], which "contains
// a rich set of computation and communication operations, as it simulates
// diverse chemical and physical phenomena".
//
// Two things live here:
//
//  1. A real (miniature) airshed kernel — 2-D advection of chemical
//     species with a simple reaction step — used by the examples and
//     validated by conservation tests. It is a stand-in for the closed
//     CIT airshed code.
//  2. The performance model (Program): an iterative Fx program whose
//     phase structure follows the real Airshed (transport and chemistry
//     phases separated by data redistributions) with compute and
//     communication constants calibrated to the paper's Table 1
//     (see EXPERIMENTS.md for the fit).
package airshed

import (
	"fmt"

	"repro/internal/fx"
)

// Params calibrates the performance model.
type Params struct {
	// Iterations is the number of outer simulation steps.
	Iterations int

	// ParallelWork is the total perfectly-parallel compute work over the
	// whole run (work units; split across nodes and iterations).
	ParallelWork float64

	// SerialWork is the total non-scaling compute work over the run
	// (every node performs its share each iteration regardless of P).
	SerialWork float64

	// FieldBytes is the size of the concentration field redistributed
	// between phase decompositions.
	FieldBytes float64

	// Redistributions is how many all-to-all redistributions of the
	// field happen per iteration (transport-x, transport-y, vertical,
	// chemistry = 4 in the real code).
	Redistributions int

	// BroadcastBytes is the per-iteration meteorology broadcast from the
	// master node.
	BroadcastBytes float64

	// GatherBytes is the per-iteration result gather to the master.
	GatherBytes float64
}

// DefaultParams is calibrated against the paper's Table 1: Airshed on 3
// nodes ≈ 908 s and on 5 nodes ≈ 650 s on an unloaded testbed. The
// ParallelWork/SerialWork split comes from solving the two Table 1 rows
// after subtracting the modeled communication time; the field size
// approximates the CIT airshed concentration array (grid × species ×
// float64, rounded up so Table 2's congestion penalties land in the
// paper's 130-160 % band); see EXPERIMENTS.md for the full fit.
func DefaultParams() Params {
	return Params{
		Iterations:      24,
		ParallelWork:    1702,
		SerialWork:      226,
		FieldBytes:      64e6,
		Redistributions: 4,
		BroadcastBytes:  2e6,
		GatherBytes:     1e6,
	}
}

// Program builds the Fx program for the airshed model.
func Program(p Params) *fx.Program {
	if p.Iterations <= 0 {
		panic(fmt.Sprintf("airshed: %d iterations", p.Iterations))
	}
	iters := float64(p.Iterations)
	redis := fx.AllToAllTotal(p.FieldBytes)
	steps := []fx.Step{
		{
			Name:        "met-broadcast",
			Comm:        fx.Broadcast(p.BroadcastBytes),
			WorkPerNode: func(int) float64 { return p.SerialWork / iters / 2 },
		},
	}
	// Transport/chemistry phases, each preceded by a redistribution.
	for i := 0; i < p.Redistributions; i++ {
		i := i
		steps = append(steps, fx.Step{
			Name: fmt.Sprintf("redistribute-%d", i),
			Comm: redis,
		}, fx.Step{
			Name: fmt.Sprintf("phase-%d", i),
			WorkPerNode: func(nodes int) float64 {
				return p.ParallelWork / iters / float64(p.Redistributions) / float64(nodes)
			},
		})
	}
	steps = append(steps, fx.Step{
		Name:        "gather",
		Comm:        fx.Gather(p.GatherBytes),
		WorkPerNode: func(int) float64 { return p.SerialWork / iters / 2 },
	})
	return &fx.Program{
		Name:       "Airshed",
		Iterations: p.Iterations,
		Steps:      steps,
	}
}

// Miniature real kernel ---------------------------------------------------

// Grid is a 2-D periodic domain carrying per-cell concentrations of
// several chemical species.
//
//reach:keep the real Airshed kernel BenchmarkRealAirshedStep in the root bench_test.go measures
type Grid struct {
	N       int         // grid is N×N
	Species int         // concentration fields
	C       [][]float64 // C[s][cell], row-major
}

// NewGrid allocates a grid with all concentrations zero.
//
//reach:keep Grid's constructor
func NewGrid(n, species int) *Grid {
	if n <= 0 || species <= 0 {
		panic(fmt.Sprintf("airshed: bad grid %d×%d species %d", n, n, species))
	}
	g := &Grid{N: n, Species: species, C: make([][]float64, species)}
	for s := range g.C {
		g.C[s] = make([]float64, n*n)
	}
	return g
}

// Set assigns a concentration.
func (g *Grid) Set(s, x, y int, v float64) { g.C[s][y*g.N+x] = v }

// At reads a concentration.
func (g *Grid) At(s, x, y int) float64 { return g.C[s][y*g.N+x] }

// TotalMass returns the summed concentration of a species.
func (g *Grid) TotalMass(s int) float64 {
	var sum float64
	for _, v := range g.C[s] {
		sum += v
	}
	return sum
}

// Advect performs one first-order upwind advection step with periodic
// boundaries. (u, v) is the wind in cells/step, restricted to |u|,|v| <= 1
// for stability (CFL).
func (g *Grid) Advect(u, v float64) {
	if u < -1 || u > 1 || v < -1 || v > 1 {
		panic(fmt.Sprintf("airshed: CFL violation u=%v v=%v", u, v))
	}
	n := g.N
	for s := range g.C {
		src := g.C[s]
		dst := make([]float64, len(src))
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				c := src[y*n+x]
				// Upwind differences, periodic wrap.
				var flowX, flowY float64
				if u >= 0 {
					flowX = u * (c - src[y*n+(x-1+n)%n])
				} else {
					flowX = u * (src[y*n+(x+1)%n] - c)
				}
				if v >= 0 {
					flowY = v * (c - src[((y-1+n)%n)*n+x])
				} else {
					flowY = v * (src[((y+1)%n)*n+x] - c)
				}
				dst[y*n+x] = c - flowX - flowY
			}
		}
		g.C[s] = dst
	}
}

// React applies a linear two-species chemistry step: species 0 converts
// into species 1 at the given rate fraction per step. With more species,
// each species s feeds s+1. Total mass is conserved.
func (g *Grid) React(rate float64) {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("airshed: reaction rate %v out of [0,1]", rate))
	}
	for s := 0; s+1 < g.Species; s++ {
		a, b := g.C[s], g.C[s+1]
		for i := range a {
			dx := a[i] * rate
			a[i] -= dx
			b[i] += dx
		}
	}
}

// Step runs one advect+react step.
func (g *Grid) Step(u, v, rate float64) {
	g.Advect(u, v)
	g.React(rate)
}

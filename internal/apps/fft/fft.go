// Package fft implements the paper's first benchmark application: a
// two-dimensional fast Fourier transform "parallelized such that it
// consists of a set of independent 1-dimensional row FFTs, followed by a
// transpose, and a set of independent 1-dimensional column FFTs" (§8).
//
// The package contains both the real algorithm (an iterative radix-2
// complex FFT, usable on actual data) and the performance model
// (Program) that the Fx runtime executes on the simulated testbed. The
// model's communication volume is exact — transposing an N×N complex128
// matrix moves N²·16·(P-1)/P² bytes per node — and its compute constant
// is calibrated against the paper's Table 1 (see EXPERIMENTS.md).
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"repro/internal/fx"
)

// Transform computes the in-place forward FFT of x. len(x) must be a
// power of two.
func Transform(x []complex128) {
	transform(x, false)
}

// Inverse computes the in-place inverse FFT of x (normalized by 1/N).
//
//reach:keep the inverse TestInverseRoundTrip checks Transform against
func Inverse(x []complex128) {
	transform(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

func transform(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Iterative Cooley-Tukey.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		angle := 2 * math.Pi / float64(size)
		if !inverse {
			angle = -angle
		}
		wStep := cmplx.Exp(complex(0, angle))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// Transform2D computes the in-place forward 2-D FFT of an n×n matrix
// stored in row-major order: row FFTs, transpose, column FFTs (as row
// FFTs on the transposed data), transpose back — exactly the structure
// the parallel version distributes.
//
//reach:keep the real 2-D FFT kernel BenchmarkRealFFT2D in the root bench_test.go measures
func Transform2D(m []complex128, n int) {
	if len(m) != n*n {
		panic(fmt.Sprintf("fft: matrix length %d != %d²", len(m), n))
	}
	for r := 0; r < n; r++ {
		Transform(m[r*n : (r+1)*n])
	}
	Transpose(m, n)
	for r := 0; r < n; r++ {
		Transform(m[r*n : (r+1)*n])
	}
	Transpose(m, n)
}

// Transpose transposes an n×n row-major matrix in place.
func Transpose(m []complex128, n int) {
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			m[r*n+c], m[c*n+r] = m[c*n+r], m[r*n+c]
		}
	}
}

// DFT is the O(N²) reference transform used to validate Transform.
//
//reach:keep the O(n^2) reference TestTransformMatchesDFT checks Transform against
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

// Performance model ------------------------------------------------------

// WorkPerPhase is the calibrated compute cost, in work units, of one FFT
// pass (all rows or all columns) over an N×N matrix: C·N²·log2(N), with
// C fitted so a testbed host (power 1.0) reproduces the paper's Table 1
// single-phase times.
const workConstant = 2.0e-7

// PhaseWork returns the total compute work of one row/column pass.
func PhaseWork(n int) float64 {
	return workConstant * float64(n) * float64(n) * math.Log2(float64(n))
}

// TransposeBytes returns the total bytes crossing the network in the
// distributed transpose of an N×N complex128 matrix (the on-diagonal
// blocks stay local, handled by AllToAllTotal's per-pair division).
func TransposeBytes(n int) float64 {
	return float64(n) * float64(n) * 16
}

// Program builds the Fx program for `iterations` repetitions of a 2-D
// FFT of size n×n: row FFTs (compute) → transpose (all-to-all) → column
// FFTs (compute). The paper times one transform per run.
func Program(n, iterations int) *fx.Program {
	if n&(n-1) != 0 || n <= 0 {
		panic(fmt.Sprintf("fft: size %d is not a power of two", n))
	}
	phase := PhaseWork(n)
	return &fx.Program{
		Name:       fmt.Sprintf("FFT(%d)", n),
		Iterations: iterations,
		Steps: []fx.Step{
			{
				Name:        "row-ffts",
				WorkPerNode: func(p int) float64 { return phase / float64(p) },
			},
			{
				Name: "transpose",
				Comm: fx.AllToAllTotal(TransposeBytes(n)),
			},
			{
				Name:        "col-ffts",
				WorkPerNode: func(p int) float64 { return phase / float64(p) },
			},
		},
	}
}

// Package vecmath provides the dense linear-algebra kernels used by the
// matrix-completion algorithms: inner products, fused SGD updates on
// factor rows, Gram-matrix accumulation and a small Cholesky solver for
// the alternating-least-squares baselines.
//
// A factor row is float64 or float32 (Float). Every SGD and inner-product
// kernel is one generic body over Float, so float32 models run the same
// update rule, the same reduction order and the same dispatch as float64
// ones; only the assembly (kernels_amd64.s) and the thin wrappers that
// call it are per precision. The batch-solver linear algebra is float64.
// Hot paths avoid bounds checks where the compiler can prove lengths and
// never allocate.
//
// The float32 contract: ratings, step-size tables and the schedule's slow
// path stay float64 — they are shared with the rest of the system
// (dataset, sched.Table), and narrowing one scalar per rating is free next
// to the O(K) row work. All row arithmetic, dot-product accumulation
// included, runs at the row's precision: that is what WithPrecision(Float32)
// documents, and it keeps the portable and AVX2 kernels in the same error
// class. Norm2Sq is the exception: it feeds the global objective, which
// sums over every row, so it accumulates in float64 at either precision.
package vecmath

import (
	"errors"
	"math"
)

// Float is the element type of a factor row.
type Float interface{ float32 | float64 }

// A generic body is compiled only where it is instantiated, and
// nomadlint checks a //nomad:noalloc claim in its own package's
// compile: the marked bodies nothing here instantiates at both
// precisions are instantiated here.
var _ = [...]any{
	Dot[float32], Norm2Sq[float64], Norm2Sq[float32],
	SGDUpdate[float64], SGDUpdate[float32], SGDUpdateGrad[float64], SGDUpdateGrad[float32],
	dotRowsEach[float64], dotRowsEach[float32], dotGatherEach[float64], dotGatherEach[float32],
}

// Dot returns the inner product of a and b, accumulated strictly in
// order at T's precision: the reference the dispatched dots are checked
// against. It panics if lengths differ.
//
//nomad:noalloc
func Dot[T Float](a, b []T) T {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	var s T
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Norm2Sq returns the squared Euclidean norm of a, accumulated in
// float64 at either precision.
//
//nomad:noalloc
func Norm2Sq[T Float](a []T) float64 {
	var s float64
	for _, v := range a {
		s += float64(v) * float64(v)
	}
	return s
}

// Axpy computes y += alpha*x in place. It panics if lengths differ.
//
//nomad:noalloc
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("vecmath: Axpy length mismatch")
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// SGDUpdate performs one stochastic gradient step for the square-loss
// matrix-completion objective on a single rating, updating the user row
// w and item row h in place:
//
//	e   = rating − ⟨w, h⟩
//	w ← w + step·(e·h − λ·w)
//	h ← h + step·(e·w_old − λ·h)
//
// This is the update of NOMAD Algorithm 1 lines 17–20 (with the gradient
// sign corrected; the paper's displayed equations (9)–(10) have a
// transcription sign slip). Both rows are read at their old values, as a
// simultaneous update requires. It returns the prediction error e.
//
//nomad:noalloc
func SGDUpdate[T Float](w, h []T, rating, step, lambda T) T {
	if len(w) != len(h) {
		panic("vecmath: SGDUpdate length mismatch")
	}
	e := rating - Dot(w, h)
	se := step * e
	sl := step * lambda
	for l, wl := range w {
		hl := h[l]
		w[l] = wl + se*hl - sl*wl
		h[l] = hl + se*wl - sl*hl
	}
	return e
}

// SGDUpdateGrad performs the generic separable-loss SGD step of the
// paper's §6 extension, with the negative-gradient scalar g already
// computed by a loss.Loss:
//
//	w ← w + step·(g·h − λ·w)
//	h ← h + step·(g·w_old − λ·h)
//
// With g = rating − ⟨w,h⟩ this is exactly SGDUpdate.
//
//nomad:noalloc
func SGDUpdateGrad[T Float](w, h []T, g, step, lambda T) {
	if len(w) != len(h) {
		panic("vecmath: SGDUpdateGrad length mismatch")
	}
	sg := step * g
	sl := step * lambda
	for l, wl := range w {
		hl := h[l]
		w[l] = wl + sg*hl - sl*wl
		h[l] = hl + sg*wl - sl*hl
	}
}

// AddOuterScaled accumulates g += x xᵀ * alpha into the k×k matrix g
// stored row-major. Only the upper triangle (including diagonal) is
// written; use SymmetrizeLower to fill the rest when needed.
func AddOuterScaled(g []float64, x []float64, alpha float64, k int) {
	if len(g) != k*k || len(x) != k {
		panic("vecmath: AddOuterScaled dimension mismatch")
	}
	for i := 0; i < k; i++ {
		xi := alpha * x[i]
		row := g[i*k : i*k+k]
		for j := i; j < k; j++ {
			row[j] += xi * x[j]
		}
	}
}

// SymmetrizeLower copies the upper triangle of the k×k row-major matrix
// g onto its lower triangle.
func SymmetrizeLower(g []float64, k int) {
	for i := 1; i < k; i++ {
		for j := 0; j < i; j++ {
			g[i*k+j] = g[j*k+i]
		}
	}
}

// ErrNotPositiveDefinite is returned by CholeskySolve when the system
// matrix is not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("vecmath: matrix not positive definite")

// CholeskySolve solves the symmetric positive-definite system A x = b
// for x, where A is k×k row-major (only its upper triangle is read) and
// b has length k. A is overwritten with its Cholesky factor and b with
// the solution. This is the inner solver of the ALS update
// wᵢ ← (HᵀΩᵢHΩᵢ + λ|Ωᵢ|I)⁻¹ Hᵀaᵢ (paper eq. (3) rewritten as M⁻¹b).
func CholeskySolve(a []float64, b []float64, k int) error {
	if len(a) != k*k || len(b) != k {
		panic("vecmath: CholeskySolve dimension mismatch")
	}
	// Upper-triangular Cholesky: A = Uᵀ U, computed in place in the
	// upper triangle of a.
	for j := 0; j < k; j++ {
		d := a[j*k+j]
		for r := 0; r < j; r++ {
			u := a[r*k+j]
			d -= u * u
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		a[j*k+j] = d
		inv := 1 / d
		for c := j + 1; c < k; c++ {
			s := a[j*k+c]
			for r := 0; r < j; r++ {
				s -= a[r*k+j] * a[r*k+c]
			}
			a[j*k+c] = s * inv
		}
	}
	// Forward solve Uᵀ y = b.
	for i := 0; i < k; i++ {
		s := b[i]
		for r := 0; r < i; r++ {
			s -= a[r*k+i] * b[r]
		}
		b[i] = s / a[i*k+i]
	}
	// Back solve U x = y.
	for i := k - 1; i >= 0; i-- {
		s := b[i]
		for c := i + 1; c < k; c++ {
			s -= a[i*k+c] * b[c]
		}
		b[i] = s / a[i*k+i]
	}
	return nil
}

// MatVec computes y = A x for a k×k row-major A. y must not alias x.
func MatVec(a, x, y []float64, k int) {
	if len(a) != k*k || len(x) != k || len(y) != k {
		panic("vecmath: MatVec dimension mismatch")
	}
	for i := 0; i < k; i++ {
		y[i] = Dot(a[i*k:i*k+k], x)
	}
}

// Package vecmath is a fixture stub of nomad/internal/vecmath: the
// scalar reference kernels the analyzer bans and the dispatch entry
// points it blesses, with the real package's import path. As in the
// real package, each reference kernel is one generic body over both
// precisions.
package vecmath

// Float is the element type of a factor row.
type Float interface{ float32 | float64 }

// Dot is a banned scalar reference kernel.
func Dot[T Float](a, b []T) T { return 0 }

// DotUnrolled is a banned scalar reference kernel.
func DotUnrolled[T Float](a, b []T) T { return 0 }

// SGDUpdate is a banned scalar reference kernel.
func SGDUpdate[T Float](w, h []T, err, step, lambda T) {}

// FusedSGDStep is a banned scalar reference kernel.
func FusedSGDStep[T Float](w, h []T, rating, step, lambda T) T { return 0 }

// Axpy has no dispatched counterpart and is always fine.
func Axpy(alpha float64, x, y []float64) {}

// DotKernelOf is the blessed dispatcher for dots.
func DotKernelOf[T Float](rank int) func(a, b []T) T { return Dot[T] }

// DotKernel is the blessed float64 dispatcher for dots.
func DotKernel(rank int) func(a, b []float64) float64 { return Dot[float64] }

// DotRowsKernel is the blessed dispatcher for batched dots.
func DotRowsKernel[T Float](rank int) func(user, rows, out []T) {
	return func(user, rows, out []T) {}
}

// SGDKernels is the blessed dispatch bundle.
type SGDKernels[T Float] struct {
	Step func(w, h []T, err, step, lambda T)
}

// KernelOf is the blessed dispatcher for SGD kernels.
func KernelOf[T Float](rank int) SGDKernels[T] { return SGDKernels[T]{Step: SGDUpdate[T]} }

// KernelFor is the blessed float64 dispatcher for SGD kernels.
func KernelFor(rank int) SGDKernels[float64] { return KernelOf[float64](rank) }

// Package vecmath is a fixture stub of nomad/internal/vecmath: the
// scalar reference kernels the analyzer bans and the dispatch entry
// points it blesses, with the real package's import path.
package vecmath

// Dot is a banned scalar reference kernel.
func Dot(a, b []float64) float64 { return 0 }

// Dot32 is a banned scalar reference kernel.
func Dot32(a, b []float32) float32 { return 0 }

// DotUnrolled is a banned scalar reference kernel.
func DotUnrolled(a, b []float64) float64 { return 0 }

// SGDUpdate is a banned scalar reference kernel.
func SGDUpdate(w, h []float64, err, step, lambda float64) {}

// FusedSGDStep32 is a banned scalar reference kernel.
func FusedSGDStep32(w, h []float32, rating, step, lambda float32) float32 { return 0 }

// Axpy has no dispatched counterpart and is always fine.
func Axpy(alpha float64, x, y []float64) {}

// DotKernel is the blessed dispatcher for float64 dots.
func DotKernel() func(a, b []float64) float64 { return Dot }

// DotKernel32 is the blessed dispatcher for float32 dots.
func DotKernel32() func(a, b []float32) float32 { return Dot32 }

// DotRowsKernel is the blessed dispatcher for batched float64 dots.
func DotRowsKernel(rank int) func(user, rows, out []float64) {
	return func(user, rows, out []float64) {}
}

// DotRowsKernel32 is the blessed dispatcher for batched float32 dots.
func DotRowsKernel32(rank int) func(user, rows, out []float32) {
	return func(user, rows, out []float32) {}
}

// SGDKernels is the blessed dispatch bundle.
type SGDKernels struct {
	Step func(w, h []float64, err, step, lambda float64)
}

// KernelFor is the blessed dispatcher for SGD kernels.
func KernelFor(rank int) SGDKernels { return SGDKernels{Step: SGDUpdate} }

// Package a seeds kerneldispatch violations: direct calls and value
// captures of the scalar reference kernels, at either precision, next
// to the blessed dispatch-seam usage that must stay silent.
package a

import "nomad/internal/vecmath"

// Predict evals with a direct scalar dot — the bug class from
// factor.Predict.
func Predict(u, v []float64) float64 {
	return vecmath.Dot(u, v) // want `direct use of vecmath\.Dot bypasses the kernel dispatch`
}

// Predict32 does it in float32: the generic reference is still the
// reference.
func Predict32(u, v []float32) float32 {
	return vecmath.Dot(u, v) // want `direct use of vecmath\.Dot bypasses the kernel dispatch`
}

// capture takes a kernel as a value, which pins scalar code just as
// hard as calling it.
var capture = vecmath.SGDUpdate[float64] // want `direct use of vecmath\.SGDUpdate bypasses the kernel dispatch`

// train uses the dispatch seam: silent.
func train(w, h []float64, w32, h32 []float32, err, step, lambda float64) {
	k := vecmath.KernelFor(len(w))
	k.Step(w, h, err, step, lambda)
	vecmath.KernelOf[float32](len(w32)).Step(w32, h32, 1, 0.1, 0.1)
	dot := vecmath.DotKernel(len(w))
	_ = dot(w, h)
	_ = vecmath.DotKernelOf[float32](len(w32))(w32, h32)
}

// scan scores a block of rows through the batched dispatch seam, as
// the serving index does: silent.
func scan(user, rows, out []float64, user32, rows32, out32 []float32) {
	vecmath.DotRowsKernel[float64](len(user))(user, rows, out)
	dotRows32 := vecmath.DotRowsKernel[float32](len(user32))
	dotRows32(user32, rows32, out32)
}

// axpyUser calls undipatched vector math: silent.
func axpyUser(x, y []float64) {
	vecmath.Axpy(2, x, y)
}

// referenceCheck wants the scalar kernel on purpose and says why.
func referenceCheck(u, v []float64) float64 {
	return vecmath.Dot(u, v) //nomad:direct-kernel oracle for kernel parity test
}

var _ = train
var _ = scan
var _ = axpyUser
var _ = referenceCheck

package vecmath

// Go-side surface of the AVX2/FMA kernels in kernels_amd64.s: argument
// declarations, bounds-checked slice wrappers, and the Kernel/Kernel32
// constructors the dispatcher in kernels.go consults. The wrappers do
// the length checks the asm cannot (the kernels trust n), so asm sees
// only in-bounds base pointers; zero-length rows never reach asm at
// all.

import "unsafe"

// simdAvailable records, once at init, whether the CPU and OS support
// the AVX2/FMA kernels. On other GOARCHes it is a false constant (see
// kernels_noasm.go).
var simdAvailable = detectSIMD()

//go:noescape
func dotAVX(a, b *float64, n int) float64

//go:noescape
func sgdAVX(w, h *float64, n int, sg, sl float64)

//go:noescape
func fstepAVX(w, h *float64, n int, rating, step, lambda float64) float64

//go:noescape
func dotAVX32(a, b *float32, n int) float32

//go:noescape
func sgdAVX32(w, h *float32, n int, sg, sl float32)

//go:noescape
func fstepAVX32(w, h *float32, n int, rating, step, lambda float32) float32

//go:noescape
func dotRowsAVX(user, rows, out *float64, k, n int)

//go:noescape
func dotRowsAVX32(user, rows, out *float32, k, n int)

//go:noescape
func prefetchT0(p unsafe.Pointer, n uintptr)

// simdKernelFor returns the AVX2 kernel bundle for rank k, or ok=false
// when the hardware lacks AVX2/FMA (the caller then falls through to
// the portable kernels).
func simdKernelFor(k int) (Kernel, bool) {
	if !simdAvailable || k <= 0 {
		return Kernel{}, false
	}
	return Kernel{K: k, Dot: dotSIMD, Step: stepSIMD, Grad: gradSIMD,
		ItemPass: itemPassSIMD(k)}, true
}

// simdKernelFor32 is the float32 twin of simdKernelFor.
func simdKernelFor32(k int) (Kernel32, bool) {
	if !simdAvailable || k <= 0 {
		return Kernel32{}, false
	}
	return Kernel32{K: k, Dot: dotSIMD32, Step: stepSIMD32, Grad: gradSIMD32,
		ItemPass: itemPassSIMD32(k)}, true
}

// simdDotRows returns the AVX2 batched dot for rank k, or ok=false
// when the hardware lacks AVX2/FMA.
func simdDotRows(k int) (DotRowsFunc, bool) {
	return dotRowsSIMD, simdAvailable && k > 0
}

// simdDotRows32 is the float32 twin of simdDotRows.
func simdDotRows32(k int) (DotRowsFunc32, bool) {
	return dotRowsSIMD32, simdAvailable && k > 0
}

//nomad:noalloc
func dotRowsSIMD(user, rows, out []float64) {
	if len(rows) != len(out)*len(user) {
		panic("vecmath: DotRows length mismatch")
	}
	if len(rows) == 0 {
		clear(out)
		return
	}
	dotRowsAVX(&user[0], &rows[0], &out[0], len(user), len(out))
}

//nomad:noalloc
func dotRowsSIMD32(user, rows, out []float32) {
	if len(rows) != len(out)*len(user) {
		panic("vecmath: DotRows length mismatch")
	}
	if len(rows) == 0 {
		clear(out)
		return
	}
	dotRowsAVX32(&user[0], &rows[0], &out[0], len(user), len(out))
}

func dotSIMD(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	return dotAVX(&a[0], &b[0], len(a))
}

func stepSIMD(w, h []float64, rating, step, lambda float64) float64 {
	if len(w) != len(h) {
		panic("vecmath: FusedSGDStep length mismatch")
	}
	if len(w) == 0 {
		return rating
	}
	return fstepAVX(&w[0], &h[0], len(w), rating, step, lambda)
}

func gradSIMD(w, h []float64, g, step, lambda float64) {
	if len(w) != len(h) {
		panic("vecmath: SGDUpdateGrad length mismatch")
	}
	if len(w) == 0 {
		return
	}
	sgdAVX(&w[0], &h[0], len(w), step*g, step*lambda)
}

// itemPassSIMD returns the batched item pass for rank k with the fused
// step in assembly. The loop itself stays in Go: the per-rating
// schedule lookup needs the slow-path closure, and hoisting just the
// arithmetic is where all the time goes anyway.
func itemPassSIMD(k int) ItemPassFunc {
	return func(wData []float64, users []int32, vals []float64,
		counts []int32, h []float64, lambda float64, steps []float64, slow func(int) float64) {
		if len(h) != k {
			panic("vecmath: ItemPass width mismatch")
		}
		hp := &h[0]
		vals = vals[:len(users)]
		counts = counts[:len(users)]
		for x := range users {
			if x+itemPassAhead < len(users) {
				Prefetch(wData, int(users[x+itemPassAhead])*k, k)
			}
			t := counts[x]
			counts[x] = t + 1
			step := stepAt(t, steps, slow)
			w := wData[int(users[x])*k:][:k]
			fstepAVX(&w[0], hp, k, vals[x], step, lambda)
		}
	}
}

func dotSIMD32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	return dotAVX32(&a[0], &b[0], len(a))
}

func stepSIMD32(w, h []float32, rating, step, lambda float32) float32 {
	if len(w) != len(h) {
		panic("vecmath: FusedSGDStep length mismatch")
	}
	if len(w) == 0 {
		return rating
	}
	return fstepAVX32(&w[0], &h[0], len(w), rating, step, lambda)
}

func gradSIMD32(w, h []float32, g, step, lambda float32) {
	if len(w) != len(h) {
		panic("vecmath: SGDUpdateGrad length mismatch")
	}
	if len(w) == 0 {
		return
	}
	sgdAVX32(&w[0], &h[0], len(w), step*g, step*lambda)
}

func itemPassSIMD32(k int) ItemPassFunc32 {
	return func(wData []float32, users []int32, vals []float64,
		counts []int32, h []float32, lambda float32, steps []float64, slow func(int) float64) {
		if len(h) != k {
			panic("vecmath: ItemPass width mismatch")
		}
		hp := &h[0]
		vals = vals[:len(users)]
		counts = counts[:len(users)]
		for x := range users {
			if x+itemPassAhead < len(users) {
				Prefetch(wData, int(users[x+itemPassAhead])*k, k)
			}
			t := counts[x]
			counts[x] = t + 1
			step := float32(stepAt(t, steps, slow))
			w := wData[int(users[x])*k:][:k]
			fstepAVX32(&w[0], hp, k, float32(vals[x]), step, lambda)
		}
	}
}

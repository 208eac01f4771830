// Hot-path SGD kernels: width-specialized inner products and fused
// square-loss update steps.
//
// The functions in vecmath.go are the *reference* implementations —
// simple, obviously correct, and the ground truth the kernel
// equivalence tests compare against. The kernels here trade a little
// code size for throughput on the per-rating hot path that every
// SGD-family solver (nomad, hogwild, dsgd, dsgd++, fpsgd, biassgd)
// spends most of its time in:
//
//   - Multi-accumulator dot products break the sequential-add
//     dependency chain of the reference Dot, letting the CPU retire
//     several multiply-adds per cycle.
//   - Fully unrolled float64 variants for the common ranks K = 8, 16
//     and 32 work through slice→array-pointer conversion, which proves
//     the width to the compiler: one length check per call, zero
//     per-element bounds checks, zero loop overhead. float32 has none:
//     its portable reduction order is the generic one.
//   - FusedSGDStep folds residual computation and the simultaneous
//     row update into one call, replacing the reference path's
//     Dot + loss.Grad + SGDUpdateGrad triple (two slice traversals,
//     one interface dispatch) for the square loss.
//
// Every kernel is one generic body over Float; a solver selects its
// kernels once per run with KernelOf[T](k) — never per rating — and
// calls through plain function values from then on.
//
// Reassociated summation changes low-order bits: the specialized dots
// agree with the reference Dot to within standard summation error
// bounds (see kernels_test.go), and the per-element update arithmetic
// is kept expression-for-expression identical to the reference so
// that, at equal residual, updates match bit for bit.
//
// On amd64 with AVX2+FMA, the dispatchers return assembly kernels
// instead of the portable Go ones (kernels_amd64.s, reached through one
// seam per precision); the Go kernels remain the fallback for every
// other GOARCH and whenever SIMD is switched off.
//
// One environment switch controls dispatch, overridable at run time by
// tests: NOMAD_NO_SIMD=1 keeps the portable unrolled Go kernels but
// skips the assembly, so CI can exercise the fallback path on hardware
// that would normally dispatch to asm.
package vecmath

import (
	"os"
	"sync/atomic"
	"unsafe"
)

// simdOn gates dispatch to the assembly kernels. True only when the
// hardware supports them (simdAvailable) and NOMAD_NO_SIMD is unset.
// Atomic because tests flip it at run time (and the -race CI job
// covers a flip beside running selections).
var simdOn atomic.Bool

func init() {
	simdOn.Store(simdAvailable && os.Getenv("NOMAD_NO_SIMD") == "")
}

// SIMDAvailable reports whether this CPU and OS support the assembly
// kernels (AVX2+FMA with YMM state saved, amd64 only).
func SIMDAvailable() bool { return simdAvailable }

// SIMDEnabled reports whether the dispatchers currently select the
// assembly kernels.
func SIMDEnabled() bool { return simdOn.Load() }

// SetSIMD switches assembly dispatch on or off at run time; enabling is
// a no-op on hardware without the features. It is consulted at kernel
// selection, never per rating — don't flip it while a run is active.
func SetSIMD(v bool) { simdOn.Store(v && simdAvailable) }

// Features names the vector features the dispatcher can use here
// ("avx2,fma" or ""), for benchmark environment metadata.
func Features() string { return featureList() }

// DotFunc computes the inner product of two equal-length rows.
type DotFunc[T Float] func(a, b []T) T

// StepFunc performs one fused square-loss SGD step on rows w and h
// (the update of SGDUpdate) and returns the pre-update residual
// e = rating − ⟨w, h⟩.
type StepFunc[T Float] func(w, h []T, rating, step, lambda T) T

// GradFunc applies the generic separable-loss step of SGDUpdateGrad
// with the negative-gradient scalar g already computed by a loss.Loss.
type GradFunc[T Float] func(w, h []T, g, step, lambda T)

// ItemPassFunc is the batched fused kernel shaped for NOMAD's
// owner-computes discipline: one call runs the square-loss step over
// every rating of a single item. h is the item row, shared (and
// sequentially updated) across all the item's ratings; users[x] indexes
// the x-th rating's user row inside the flat row-major wData; vals[x]
// is its rating and counts[x] its per-rating update count t, which is
// incremented in place. The step size for count t is steps[t], falling
// back to slow(t) past the table (sched.Table supplies both halves).
// Ratings and step sizes are float64 at either precision and narrowed
// per rating.
//
// Batching the whole item pass hoists every per-rating overhead the
// caller would otherwise pay — kernel dispatch, schedule branch, row
// slicing — out of the inner loop.
type ItemPassFunc[T Float] func(wData []T, users []int32, vals []float64,
	counts []int32, h []T, lambda T, steps []float64, slow func(int) float64)

// ItemList is one item's rating list as ItemPassPairFunc takes it: the
// ItemPassFunc arguments that differ between two items.
type ItemList[T Float] struct {
	Users  []int32
	Vals   []float64
	Counts []int32
	H      []T
}

// ItemPassPairFunc advances two different items' lists in lockstep —
// a's x-th rating, then b's — for min(len(a.Users), len(b.Users))
// ratings of each, leaving the longer list's tail to the caller. Two
// lists are two independent dependency chains through their item rows,
// which one list never offers (DESIGN.md §4 piece 5). The result is
// that of ItemPassFunc on the same ratings in the same alternating
// order; a.H and b.H must be different rows.
type ItemPassPairFunc[T Float] func(wData []T, a, b ItemList[T],
	lambda T, steps []float64, slow func(int) float64)

// itemPassAhead is how many ratings ahead of the one being stepped the
// SIMD item passes prefetch the user row. An item's rating list names
// its user rows in an order the hardware cannot predict, so without the
// hint every rating waits on a miss the arithmetic then idles behind.
// The distance is a constant because the gain is a plateau, not a peak:
// 8 and 16 measured alike and 4 within 5 % (EXPERIMENTS.md "Where an
// SGD update waits"). Look-ahead only — the first itemPassAhead rows of a list are
// the caller's to warm (core's block pipeline does).
const itemPassAhead = 8

// Prefetch hints the cache lines under s[i:i+n] toward the caches
// (PREFETCHT0 on amd64; it compiles to nothing elsewhere). Nothing is
// read, so it cannot race — but it does pull the lines, so the SGD hot
// path only prefetches what the issuing worker owns. A window that is
// not wholly inside s is ignored, which lets look-ahead callers pass
// indices past the end unclamped (n < 1 touches the one line at s[i]).
// Every line the window overlaps is prefetched, also when it starts
// mid-line (prefetchSpan).
func Prefetch[T any](s []T, i, n int) {
	if uint(i) < uint(len(s)) && i+n <= len(s) {
		p := unsafe.Pointer(&s[i])
		prefetchT0(p, prefetchSpan(uintptr(p), uintptr(max(n, 0))*unsafe.Sizeof(s[0])))
	}
}

// prefetchSpan is the length to hand prefetchT0 for the size bytes at
// addr. prefetchT0 issues one prefetch per 64 bytes from its start, so
// a window that starts off a line boundary would lose its last line:
// the length is extended by the start's offset within its line, which
// covers exactly the lines a start rounded down to its line would.
// The start itself stays put, inside the slice.
func prefetchSpan(addr, size uintptr) uintptr { return size + addr&63 }

// Kernel bundles the hot-path kernels specialized for one rank. Select
// it once per run with KernelOf and reuse it for every rating.
type Kernel[T Float] struct {
	K    int
	Dot  DotFunc[T]
	Step StepFunc[T]
	Grad GradFunc[T]
	// ItemPass is the batched fused square-loss kernel; see
	// ItemPassFunc.
	ItemPass ItemPassFunc[T]
	// ItemPassPair is nil wherever there is no two-list kernel (every
	// rank but 16, every GOARCH but amd64, NOMAD_NO_SIMD set): callers
	// run the lists one after the other.
	ItemPassPair ItemPassPairFunc[T]
}

// seam is one precision's kernels as func values taken once: the
// assembly wrappers of that precision (asmSeam, amd64 only) or its
// instance of the portable generic bodies (portable64, portable32).
// The dispatchers copy out of a seam instead of taking a generic body's
// value at T, which builds a closure per call: DotKernelOf must not
// allocate, because Model.Predict selects a dot per prediction.
type seam[T Float] struct {
	dot  DotFunc[T]
	step StepFunc[T]
	grad GradFunc[T]
	pass func(k int) ItemPassFunc[T]
	// The assembly seams only: the K = 16 whole-list and two-list item
	// passes, and the batched dots (portably, a loop over dot).
	pass16 ItemPassFunc[T]
	pair16 ItemPassPairFunc[T]
	rows   DotRowsFunc[T]
	gather DotGatherFunc[T]
}

var (
	portable64 = &seam[float64]{dot: DotUnrolled[float64], step: FusedSGDStep[float64], grad: gradAny[float64], pass: itemPassGeneric[float64]}
	portable32 = &seam[float32]{dot: DotUnrolled[float32], step: FusedSGDStep[float32], grad: gradAny[float32], pass: itemPassGeneric[float32]}
)

// pick returns s64 or s32, whichever is T's.
func pick[T Float](s64 *seam[float64], s32 *seam[float32]) *seam[T] {
	if s, ok := any(s64).(*seam[T]); ok {
		return s
	}
	return any(s32).(*seam[T])
}

// seamFor returns the seam dispatch selects for rank k, and whether it
// is the assembly's: AVX2/FMA when the dispatcher allows (amd64 with
// the features, SIMD not disabled, k ≥ 1), the portable bodies
// otherwise.
func seamFor[T Float](k int) (s *seam[T], simd bool) {
	if simdOn.Load() && k > 0 {
		return asmSeam[T](), true
	}
	return pick[T](portable64, portable32), false
}

// KernelOf returns the kernels specialized for rank k at precision T:
// the assembly seam when the dispatcher allows, otherwise the portable
// Go bodies — for float64 at K = 8, 16 and 32 fully unrolled.
func KernelOf[T Float](k int) Kernel[T] {
	s, simd := seamFor[T](k)
	if simd && k == 16 {
		return Kernel[T]{K: k, Dot: s.dot, Step: s.step, Grad: s.grad, ItemPass: s.pass16, ItemPassPair: s.pair16}
	}
	if !simd {
		if kn, ok := any(unrolled64(k)).(Kernel[T]); ok && kn.K == k {
			return kn
		}
	}
	return Kernel[T]{K: k, Dot: s.dot, Step: s.step, Grad: s.grad, ItemPass: s.pass(k)}
}

// DotKernelOf returns just KernelOf[T](k).Dot, for callers (model
// evaluation, the bias-augmented solvers) that need fast predictions
// without the update half. It builds nothing, so it costs no
// allocation.
func DotKernelOf[T Float](k int) DotFunc[T] {
	s, simd := seamFor[T](k)
	if !simd {
		if dot, ok := any(unrolled64(k).Dot).(DotFunc[T]); ok && dot != nil {
			return dot
		}
	}
	return s.dot
}

// KernelFor is KernelOf[float64], the float64 solvers' (and the
// benchmark's) entry point.
func KernelFor(k int) Kernel[float64] { return KernelOf[float64](k) }

// DotKernel is DotKernelOf[float64].
func DotKernel(k int) DotFunc[float64] { return DotKernelOf[float64](k) }

// FusedSGDStep is the generic-width fused square-loss kernel: one call
// computes the residual with the unrolled dot and applies the
// simultaneous SGDUpdate step. It matches SGDUpdate up to the dot
// product's summation order and returns the residual e.
//
//nomad:noalloc
func FusedSGDStep[T Float](w, h []T, rating, step, lambda T) T {
	if len(w) != len(h) {
		panic("vecmath: FusedSGDStep length mismatch")
	}
	e := rating - DotUnrolled(w, h)
	applyStep(w, h, step*e, step*lambda)
	return e
}

// DotUnrolled is the generic-width multi-accumulator inner product:
// four independent partial sums over array-pointer chunks, plus a
// scalar tail. It panics if lengths differ.
//
//nomad:noalloc
func DotUnrolled[T Float](a, b []T) T {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	var s0, s1, s2, s3 T
	for len(a) >= 4 && len(b) >= 4 {
		aa := (*[4]T)(a)
		bb := (*[4]T)(b)
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
		a = a[4:]
		b = b[4:]
	}
	s := (s0 + s1) + (s2 + s3)
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// gradAny is Kernel.Grad for every portable width: the reference
// per-element arithmetic, unrolled by 4.
func gradAny[T Float](w, h []T, g, step, lambda T) {
	if len(w) != len(h) {
		panic("vecmath: SGDUpdateGrad length mismatch")
	}
	applyStep(w, h, step*g, step*lambda)
}

// applyStep applies the simultaneous per-element update
//
//	w[l] = w[l] + sg·h[l] − sl·w[l]
//	h[l] = h[l] + sg·w_old[l] − sl·h[l]
//
// in 4-wide array-pointer chunks. The expressions are kept identical
// to the reference SGDUpdate/SGDUpdateGrad loops so that, given the
// same sg and sl, the results agree bit for bit.
func applyStep[T Float](w, h []T, sg, sl T) {
	for len(w) >= 4 && len(h) >= 4 {
		ww := (*[4]T)(w)
		hh := (*[4]T)(h)
		upd4(ww, hh, sg, sl)
		w = w[4:]
		h = h[4:]
	}
	for l, wl := range w {
		hl := h[l]
		w[l] = wl + sg*hl - sl*wl
		h[l] = hl + sg*wl - sl*hl
	}
}

// upd4 updates one 4-element block of both rows.
func upd4[T Float](w, h *[4]T, sg, sl T) {
	w0, h0 := w[0], h[0]
	w1, h1 := w[1], h[1]
	w2, h2 := w[2], h[2]
	w3, h3 := w[3], h[3]
	w[0] = w0 + sg*h0 - sl*w0
	h[0] = h0 + sg*w0 - sl*h0
	w[1] = w1 + sg*h1 - sl*w1
	h[1] = h1 + sg*w1 - sl*h1
	w[2] = w2 + sg*h2 - sl*w2
	h[2] = h2 + sg*w2 - sl*h2
	w[3] = w3 + sg*h3 - sl*w3
	h[3] = h3 + sg*w3 - sl*h3
}

// upd8 updates one 8-element block of both rows, fully unrolled.
func upd8(w, h *[8]float64, sg, sl float64) {
	w0, h0 := w[0], h[0]
	w1, h1 := w[1], h[1]
	w2, h2 := w[2], h[2]
	w3, h3 := w[3], h[3]
	w4, h4 := w[4], h[4]
	w5, h5 := w[5], h[5]
	w6, h6 := w[6], h[6]
	w7, h7 := w[7], h[7]
	w[0] = w0 + sg*h0 - sl*w0
	h[0] = h0 + sg*w0 - sl*h0
	w[1] = w1 + sg*h1 - sl*w1
	h[1] = h1 + sg*w1 - sl*h1
	w[2] = w2 + sg*h2 - sl*w2
	h[2] = h2 + sg*w2 - sl*h2
	w[3] = w3 + sg*h3 - sl*w3
	h[3] = h3 + sg*w3 - sl*h3
	w[4] = w4 + sg*h4 - sl*w4
	h[4] = h4 + sg*w4 - sl*h4
	w[5] = w5 + sg*h5 - sl*w5
	h[5] = h5 + sg*w5 - sl*h5
	w[6] = w6 + sg*h6 - sl*w6
	h[6] = h6 + sg*w6 - sl*h6
	w[7] = w7 + sg*h7 - sl*w7
	h[7] = h7 + sg*w7 - sl*h7
}

// stepAt looks the step size up in the table, falling back to the
// exact schedule past it. t never goes negative (counts start at 0).
func stepAt(t int32, steps []float64, slow func(int) float64) float64 {
	if int(t) < len(steps) {
		return steps[t]
	}
	return slow(int(t))
}

// itemPassGeneric returns the portable batched fused kernel for width
// k.
func itemPassGeneric[T Float](k int) ItemPassFunc[T] {
	return func(wData []T, users []int32, vals []float64,
		counts []int32, h []T, lambda T, steps []float64, slow func(int) float64) {
		if len(h) != k {
			panic("vecmath: ItemPass width mismatch")
		}
		vals = vals[:len(users)]
		counts = counts[:len(users)]
		for x := range users {
			t := counts[x]
			counts[x] = t + 1
			step := T(stepAt(t, steps, slow))
			w := wData[int(users[x])*k:][:k]
			e := T(vals[x]) - DotUnrolled(w, h)
			applyStep(w, h, step*e, step*lambda)
		}
	}
}

// unrolled64 returns float64's fully unrolled portable kernels at
// K = 8, 16 and 32, and a zero Kernel at every other rank.
func unrolled64(k int) Kernel[float64] {
	switch k {
	case 8:
		return Kernel[float64]{K: 8, Dot: dot8, Step: step8, Grad: gradAny[float64], ItemPass: itemPass8}
	case 16:
		return Kernel[float64]{K: 16, Dot: dot16, Step: step16, Grad: gradAny[float64], ItemPass: itemPass16}
	case 32:
		return Kernel[float64]{K: 32, Dot: dot32, Step: step32, Grad: gradAny[float64], ItemPass: itemPass32}
	}
	return Kernel[float64]{}
}

// --- K = 8 ----------------------------------------------------------

func dotA8(a, b *[8]float64) float64 {
	s0 := a[0]*b[0] + a[4]*b[4]
	s1 := a[1]*b[1] + a[5]*b[5]
	s2 := a[2]*b[2] + a[6]*b[6]
	s3 := a[3]*b[3] + a[7]*b[7]
	return (s0 + s1) + (s2 + s3)
}

func dot8(a, b []float64) float64 {
	if len(a) != 8 || len(b) != 8 {
		panic("vecmath: dot8 length mismatch")
	}
	return dotA8((*[8]float64)(a), (*[8]float64)(b))
}

func step8(w, h []float64, rating, step, lambda float64) float64 {
	if len(w) != 8 || len(h) != 8 {
		panic("vecmath: step8 length mismatch")
	}
	ww := (*[8]float64)(w)
	hh := (*[8]float64)(h)
	e := rating - dotA8(ww, hh)
	upd8(ww, hh, step*e, step*lambda)
	return e
}

func itemPass8(wData []float64, users []int32, vals []float64,
	counts []int32, h []float64, lambda float64, steps []float64, slow func(int) float64) {
	hh := (*[8]float64)(h) // one width check for the whole pass
	vals = vals[:len(users)]
	counts = counts[:len(users)]
	for x := range users {
		t := counts[x]
		counts[x] = t + 1
		step := stepAt(t, steps, slow)
		o := int(users[x]) * 8
		ww := (*[8]float64)(wData[o : o+8])
		e := vals[x] - dotA8(ww, hh)
		upd8(ww, hh, step*e, step*lambda)
	}
}

// --- K = 16 ---------------------------------------------------------

func dotA16(a, b *[16]float64) float64 {
	s0 := a[0]*b[0] + a[4]*b[4] + a[8]*b[8] + a[12]*b[12]
	s1 := a[1]*b[1] + a[5]*b[5] + a[9]*b[9] + a[13]*b[13]
	s2 := a[2]*b[2] + a[6]*b[6] + a[10]*b[10] + a[14]*b[14]
	s3 := a[3]*b[3] + a[7]*b[7] + a[11]*b[11] + a[15]*b[15]
	return (s0 + s1) + (s2 + s3)
}

func dot16(a, b []float64) float64 {
	if len(a) != 16 || len(b) != 16 {
		panic("vecmath: dot16 length mismatch")
	}
	return dotA16((*[16]float64)(a), (*[16]float64)(b))
}

func step16(w, h []float64, rating, step, lambda float64) float64 {
	if len(w) != 16 || len(h) != 16 {
		panic("vecmath: step16 length mismatch")
	}
	ww := (*[16]float64)(w)
	hh := (*[16]float64)(h)
	e := rating - dotA16(ww, hh)
	sg, sl := step*e, step*lambda
	upd8((*[8]float64)(ww[0:8]), (*[8]float64)(hh[0:8]), sg, sl)
	upd8((*[8]float64)(ww[8:16]), (*[8]float64)(hh[8:16]), sg, sl)
	return e
}

func itemPass16(wData []float64, users []int32, vals []float64,
	counts []int32, h []float64, lambda float64, steps []float64, slow func(int) float64) {
	hh := (*[16]float64)(h) // one width check for the whole pass
	vals = vals[:len(users)]
	counts = counts[:len(users)]
	for x := range users {
		t := counts[x]
		counts[x] = t + 1
		step := stepAt(t, steps, slow)
		o := int(users[x]) * 16
		ww := (*[16]float64)(wData[o : o+16])
		e := vals[x] - dotA16(ww, hh)
		sg, sl := step*e, step*lambda
		upd8((*[8]float64)(ww[0:8]), (*[8]float64)(hh[0:8]), sg, sl)
		upd8((*[8]float64)(ww[8:16]), (*[8]float64)(hh[8:16]), sg, sl)
	}
}

// --- K = 32 ---------------------------------------------------------

func dotA32(a, b *[32]float64) float64 {
	s0 := a[0]*b[0] + a[4]*b[4] + a[8]*b[8] + a[12]*b[12] +
		a[16]*b[16] + a[20]*b[20] + a[24]*b[24] + a[28]*b[28]
	s1 := a[1]*b[1] + a[5]*b[5] + a[9]*b[9] + a[13]*b[13] +
		a[17]*b[17] + a[21]*b[21] + a[25]*b[25] + a[29]*b[29]
	s2 := a[2]*b[2] + a[6]*b[6] + a[10]*b[10] + a[14]*b[14] +
		a[18]*b[18] + a[22]*b[22] + a[26]*b[26] + a[30]*b[30]
	s3 := a[3]*b[3] + a[7]*b[7] + a[11]*b[11] + a[15]*b[15] +
		a[19]*b[19] + a[23]*b[23] + a[27]*b[27] + a[31]*b[31]
	return (s0 + s1) + (s2 + s3)
}

func dot32(a, b []float64) float64 {
	if len(a) != 32 || len(b) != 32 {
		panic("vecmath: dot32 length mismatch")
	}
	return dotA32((*[32]float64)(a), (*[32]float64)(b))
}

func step32(w, h []float64, rating, step, lambda float64) float64 {
	if len(w) != 32 || len(h) != 32 {
		panic("vecmath: step32 length mismatch")
	}
	ww := (*[32]float64)(w)
	hh := (*[32]float64)(h)
	e := rating - dotA32(ww, hh)
	sg, sl := step*e, step*lambda
	upd8((*[8]float64)(ww[0:8]), (*[8]float64)(hh[0:8]), sg, sl)
	upd8((*[8]float64)(ww[8:16]), (*[8]float64)(hh[8:16]), sg, sl)
	upd8((*[8]float64)(ww[16:24]), (*[8]float64)(hh[16:24]), sg, sl)
	upd8((*[8]float64)(ww[24:32]), (*[8]float64)(hh[24:32]), sg, sl)
	return e
}

func itemPass32(wData []float64, users []int32, vals []float64,
	counts []int32, h []float64, lambda float64, steps []float64, slow func(int) float64) {
	hh := (*[32]float64)(h) // one width check for the whole pass
	vals = vals[:len(users)]
	counts = counts[:len(users)]
	for x := range users {
		t := counts[x]
		counts[x] = t + 1
		step := stepAt(t, steps, slow)
		o := int(users[x]) * 32
		ww := (*[32]float64)(wData[o : o+32])
		e := vals[x] - dotA32(ww, hh)
		sg, sl := step*e, step*lambda
		upd8((*[8]float64)(ww[0:8]), (*[8]float64)(hh[0:8]), sg, sl)
		upd8((*[8]float64)(ww[8:16]), (*[8]float64)(hh[8:16]), sg, sl)
		upd8((*[8]float64)(ww[16:24]), (*[8]float64)(hh[16:24]), sg, sl)
		upd8((*[8]float64)(ww[24:32]), (*[8]float64)(hh[24:32]), sg, sl)
	}
}

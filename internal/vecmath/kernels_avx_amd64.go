package vecmath

// Go-side surface of the AVX2/FMA kernels in kernels_amd64.s: argument
// declarations, bounds-checked slice wrappers, and the two seams (one
// per precision) the dispatchers in kernels.go copy from. The wrappers
// do the length checks the asm cannot (the kernels trust n), so asm
// sees only in-bounds base pointers; zero-length rows never reach asm
// at all. Each wrapper calls one precision's own symbol directly, so a
// float32 twin is a copy rather than a generic body over an asm func
// value: the direct call is what the hot path pays per rating or row.

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
func dotGatherAVX(user, table *float64, idx *int32, out *float64, k, n, last int) bool

//go:noescape
func dotGatherAVX32(user, table *float32, idx *int32, out *float32, k, n, last int) bool

//go:noescape
func prefetchT0(p unsafe.Pointer, n uintptr)

//go:noescape
func itemPass16AVX(w *float64, rows int, users *int32, vals *float64, counts *int32, n int, h *float64, lambda float64, steps *float64, nsteps int) int

//go:noescape
func itemPass16AVX32(w *float32, rows int, users *int32, vals *float64, counts *int32, n int, h *float32, lambda float32, steps *float64, nsteps int) int

//go:noescape
func itemPassPair16AVX(w *float64, rows int, steps *float64, nsteps int, lambda float64, usersA *int32, valsA *float64, countsA *int32, hA *float64, nA int, usersB *int32, valsB *float64, countsB *int32, hB *float64, nB int) int

//go:noescape
func itemPassPair16AVX32(w *float32, rows int, steps *float64, nsteps int, lambda float32, usersA *int32, valsA *float64, countsA *int32, hA *float32, nA int, usersB *int32, valsB *float64, countsB *int32, hB *float32, nB int) int

// The assembly seams, one per precision.
var (
	asm64 = &seam[float64]{dot: dotSIMD, step: stepSIMD, grad: gradSIMD, pass: itemPassSIMD,
		pass16: itemPassSIMD16, pair16: itemPassPairSIMD16, rows: dotRowsSIMD, gather: dotGatherSIMD}
	asm32 = &seam[float32]{dot: dotSIMD32, step: stepSIMD32, grad: gradSIMD32, pass: itemPassSIMD32,
		pass16: itemPassSIMD16x32, pair16: itemPassPairSIMD16x32, rows: dotRowsSIMD32, gather: dotGatherSIMD32}
)

// asmSeam returns T's assembly seam; seamFor consults it only when
// simdOn, which implies simdAvailable.
func asmSeam[T Float]() *seam[T] { return pick[T](asm64, asm32) }

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

// dotGatherSIMD leaves the index check to the assembly, which makes
// it on every row it addresses; an empty table has no row to name.
//
//nomad:noalloc
func dotGatherSIMD(user, table []float64, idx []int32, out []float64) {
	if len(idx) != len(out) {
		panic("vecmath: DotGather length mismatch")
	}
	if len(out) == 0 {
		return
	}
	if len(table) < len(user) || !dotGatherAVX(&user[0], &table[0], &idx[0], &out[0], len(user), len(out), len(table)-len(user)) {
		panic("vecmath: DotGather index out of range")
	}
}

//nomad:noalloc
func dotGatherSIMD32(user, table []float32, idx []int32, out []float32) {
	if len(idx) != len(out) {
		panic("vecmath: DotGather length mismatch")
	}
	if len(out) == 0 {
		return
	}
	if len(table) < len(user) || !dotGatherAVX32(&user[0], &table[0], &idx[0], &out[0], len(user), len(out), len(table)-len(user)) {
		panic("vecmath: DotGather index out of range")
	}
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

// itemPassSIMD returns the batched item pass for rank k ≠ 16 with the
// fused step in assembly and the loop in Go (K = 16, the rank every
// benchmark runs, has the whole list in assembly: itemPassSIMD16).
func itemPassSIMD(k int) ItemPassFunc[float64] {
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

func itemPassSIMD32(k int) ItemPassFunc[float32] {
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

// checked16 is one rating of a K=16 item pass on the path the
// per-rating loops take (step is fstepAVX or fstepAVX32): the count
// moves, the step size comes from the table or the slow closure, and a
// user index outside wData panics on the row slice before any row is
// written. The whole-list kernels stop in front of exactly the ratings
// that need it.
func checked16[T float32 | float64](step func(w, h *T, n int, rating, step, lambda T) T,
	wData []T, u int32, val float64, count *int32, h []T, lambda T, steps []float64, slow func(int) float64) {
	t := *count
	*count = t + 1
	st := T(stepAt(t, steps, slow))
	w := wData[int(u)*16:][:16]
	step(&w[0], &h[0], 16, T(val), st, lambda)
}

// itemPassSIMD16 is Kernel.ItemPass for K=16: the whole list in one
// assembly call, re-entered after each rating the kernel declined. Kept
// free of indirection (its float32 twin is a copy, not a generic): on
// 2-rating lists the call overhead is a quarter of the work.
func itemPassSIMD16(wData []float64, users []int32, vals []float64,
	counts []int32, h []float64, lambda float64, steps []float64, slow func(int) float64) {
	if len(h) != 16 {
		panic("vecmath: ItemPass width mismatch")
	}
	vals = vals[:len(users)]
	counts = counts[:len(users)]
	w, sp := unsafe.SliceData(wData), unsafe.SliceData(steps)
	for x := 0; x < len(users); x++ {
		x += itemPass16AVX(w, len(wData)/16, &users[x], &vals[x], &counts[x], len(users)-x,
			&h[0], lambda, sp, len(steps))
		if x == len(users) {
			return
		}
		checked16(fstepAVX, wData, users[x], vals[x], &counts[x], h, lambda, steps, slow)
	}
}

func itemPassSIMD16x32(wData []float32, users []int32, vals []float64,
	counts []int32, h []float32, lambda float32, steps []float64, slow func(int) float64) {
	if len(h) != 16 {
		panic("vecmath: ItemPass width mismatch")
	}
	vals = vals[:len(users)]
	counts = counts[:len(users)]
	w, sp := unsafe.SliceData(wData), unsafe.SliceData(steps)
	for x := 0; x < len(users); x++ {
		x += itemPass16AVX32(w, len(wData)/16, &users[x], &vals[x], &counts[x], len(users)-x,
			&h[0], lambda, sp, len(steps))
		if x == len(users) {
			return
		}
		checked16(fstepAVX32, wData, users[x], vals[x], &counts[x], h, lambda, steps, slow)
	}
}

// pairLists16 is Kernel.ItemPassPair for K=16 around one precision's
// two-list kernel and fused step.
func pairLists16[T float32 | float64](
	pair func(w *T, rows int, steps *float64, nsteps int, lambda T, usersA *int32, valsA *float64, countsA *int32, hA *T, nA int, usersB *int32, valsB *float64, countsB *int32, hB *T, nB int) int,
	step func(w, h *T, n int, rating, step, lambda T) T,
	wData []T, a, b ItemList[T], lambda T, steps []float64, slow func(int) float64) {
	if len(a.H) != 16 || len(b.H) != 16 {
		panic("vecmath: ItemPass width mismatch")
	}
	na, nb := len(a.Users), len(b.Users)
	a.Vals, a.Counts = a.Vals[:na], a.Counts[:na]
	b.Vals, b.Counts = b.Vals[:nb], b.Counts[:nb]
	w, sp := unsafe.SliceData(wData), unsafe.SliceData(steps)
	for x, n := 0, min(na, nb); x < n; x++ {
		x += pair(w, len(wData)/16, sp, len(steps), lambda,
			&a.Users[x], &a.Vals[x], &a.Counts[x], &a.H[0], na-x,
			&b.Users[x], &b.Vals[x], &b.Counts[x], &b.H[0], nb-x)
		if x == n {
			return
		}
		checked16(step, wData, a.Users[x], a.Vals[x], &a.Counts[x], a.H, lambda, steps, slow)
		checked16(step, wData, b.Users[x], b.Vals[x], &b.Counts[x], b.H, lambda, steps, slow)
	}
}

func itemPassPairSIMD16(wData []float64, a, b ItemList[float64], lambda float64, steps []float64, slow func(int) float64) {
	pairLists16(itemPassPair16AVX, fstepAVX, wData, a, b, lambda, steps, slow)
}

func itemPassPairSIMD16x32(wData []float32, a, b ItemList[float32], lambda float32, steps []float64, slow func(int) float64) {
	pairLists16(itemPassPair16AVX32, fstepAVX32, wData, a, b, lambda, steps, slow)
}

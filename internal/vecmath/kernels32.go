// float32 twins of the hot-path kernels, for models trained with
// Precision(Float32). The shapes mirror the float64 set exactly —
// reference implementations as oracle, portable unrolled kernels, and
// (on amd64) AVX2 variants selected by the same dispatcher — with two
// deliberate differences:
//
//   - Ratings, step-size tables, and the schedule slow path stay
//     float64: they are shared with the rest of the system (dataset,
//     sched.Table) and converting one scalar per rating is free next
//     to the O(K) row work. Only the factor rows are float32.
//   - All row arithmetic, including dot-product accumulation, is
//     float32 — that is the precision contract WithPrecision(Float32)
//     documents, and it is what keeps the portable and AVX2 kernels in
//     the same error class. Norm2Sq32 is the exception: it feeds the
//     global objective, which sums over every row, so it accumulates
//     in float64.
package vecmath

// DotFunc32 computes the inner product of two equal-length float32 rows.
type DotFunc32 func(a, b []float32) float32

// StepFunc32 performs one fused square-loss SGD step on float32 rows
// and returns the pre-update residual e = rating − ⟨w, h⟩.
type StepFunc32 func(w, h []float32, rating, step, lambda float32) float32

// GradFunc32 applies the generic separable-loss step with the
// negative-gradient scalar g already computed by a loss.Loss.
type GradFunc32 func(w, h []float32, g, step, lambda float32)

// ItemPassFunc32 is the float32 batched item pass; same contract as
// ItemPassFunc except the factor rows are float32. Ratings, the step
// table, and the slow path stay float64 (shared with the float64 world)
// and are narrowed per rating.
type ItemPassFunc32 func(wData []float32, users []int32, vals []float64,
	counts []int32, h []float32, lambda float32, steps []float64, slow func(int) float64)

// ItemPassPairFunc32 is the float32 ItemPassPairFunc.
type ItemPassPairFunc32 func(wData []float32, a, b ItemList[float32],
	lambda float32, steps []float64, slow func(int) float64)

// Kernel32 bundles the float32 hot-path kernels for one rank.
type Kernel32 struct {
	K        int
	Dot      DotFunc32
	Step     StepFunc32
	Grad     GradFunc32
	ItemPass ItemPassFunc32
	// ItemPassPair is nil wherever Kernel.ItemPassPair is.
	ItemPassPair ItemPassPairFunc32
}

// KernelFor32 is the float32 twin of KernelFor: AVX2 kernels when the
// dispatcher allows, portable unrolled kernels otherwise.
func KernelFor32(k int) Kernel32 {
	if simdOn.Load() {
		if kn, ok := simdKernelFor32(k); ok {
			return kn
		}
	}
	return Kernel32{K: k, Dot: DotUnrolled32, Step: FusedSGDStep32, Grad: gradAny32,
		ItemPass: itemPassGeneric32(k)}
}

// DotKernel32 returns just the float32 inner-product kernel for rank k.
func DotKernel32(k int) DotFunc32 {
	return KernelFor32(k).Dot
}

// --- reference implementations (the float32 oracle) ------------------

// Dot32 is the reference float32 inner product: strictly sequential
// accumulation, the ground truth the unrolled and AVX2 float32 dots are
// compared against.
//
//nomad:noalloc
func Dot32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	var s float32
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// SGDUpdate32 is the reference fused float32 SGD step: residual against
// the sequential dot, then the simultaneous update, element
// expressions identical to the float64 SGDUpdate.
//
//nomad:noalloc
func SGDUpdate32(w, h []float32, rating, step, lambda float32) float32 {
	if len(w) != len(h) {
		panic("vecmath: SGDUpdate length mismatch")
	}
	e := rating - Dot32(w, h)
	sg, sl := step*e, step*lambda
	for l, wl := range w {
		hl := h[l]
		w[l] = wl + sg*hl - sl*wl
		h[l] = hl + sg*wl - sl*hl
	}
	return e
}

// SGDUpdateGrad32 is the reference generic separable-loss float32 step.
//
//nomad:noalloc
func SGDUpdateGrad32(w, h []float32, g, step, lambda float32) {
	if len(w) != len(h) {
		panic("vecmath: SGDUpdateGrad length mismatch")
	}
	sg, sl := step*g, step*lambda
	for l, wl := range w {
		hl := h[l]
		w[l] = wl + sg*hl - sl*wl
		h[l] = hl + sg*wl - sl*hl
	}
}

// Norm2Sq32 is the squared Euclidean norm of a float32 row, accumulated
// in float64 because it feeds the whole-model regularization term.
//
//nomad:noalloc
func Norm2Sq32(a []float32) float64 {
	var s float64
	for _, v := range a {
		s += float64(v) * float64(v)
	}
	return s
}

// --- portable unrolled kernels ---------------------------------------

// DotUnrolled32 is the generic-width multi-accumulator float32 inner
// product, the float32 twin of DotUnrolled.
//
//nomad:noalloc
func DotUnrolled32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	var s0, s1, s2, s3 float32
	for len(a) >= 4 && len(b) >= 4 {
		aa := (*[4]float32)(a)
		bb := (*[4]float32)(b)
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

// FusedSGDStep32 is the generic-width fused float32 step.
//
//nomad:noalloc
func FusedSGDStep32(w, h []float32, rating, step, lambda float32) float32 {
	if len(w) != len(h) {
		panic("vecmath: FusedSGDStep length mismatch")
	}
	e := rating - DotUnrolled32(w, h)
	applyStep32(w, h, step*e, step*lambda)
	return e
}

// gradAny32 is Kernel32.Grad for every width.
func gradAny32(w, h []float32, g, step, lambda float32) {
	if len(w) != len(h) {
		panic("vecmath: SGDUpdateGrad length mismatch")
	}
	applyStep32(w, h, step*g, step*lambda)
}

// applyStep32 applies the simultaneous per-element float32 update in
// 4-wide array-pointer chunks; expressions identical to the reference
// SGDUpdate32 loop so results agree bit for bit at equal sg, sl.
func applyStep32(w, h []float32, sg, sl float32) {
	for len(w) >= 4 && len(h) >= 4 {
		ww := (*[4]float32)(w)
		hh := (*[4]float32)(h)
		w0, h0 := ww[0], hh[0]
		w1, h1 := ww[1], hh[1]
		w2, h2 := ww[2], hh[2]
		w3, h3 := ww[3], hh[3]
		ww[0] = w0 + sg*h0 - sl*w0
		hh[0] = h0 + sg*w0 - sl*h0
		ww[1] = w1 + sg*h1 - sl*w1
		hh[1] = h1 + sg*w1 - sl*h1
		ww[2] = w2 + sg*h2 - sl*w2
		hh[2] = h2 + sg*w2 - sl*h2
		ww[3] = w3 + sg*h3 - sl*w3
		hh[3] = h3 + sg*w3 - sl*h3
		w = w[4:]
		h = h[4:]
	}
	for l, wl := range w {
		hl := h[l]
		w[l] = wl + sg*hl - sl*wl
		h[l] = hl + sg*wl - sl*hl
	}
}

// itemPassGeneric32 returns the portable batched float32 item pass for
// width k.
func itemPassGeneric32(k int) ItemPassFunc32 {
	return func(wData []float32, users []int32, vals []float64,
		counts []int32, h []float32, lambda float32, steps []float64, slow func(int) float64) {
		if len(h) != k {
			panic("vecmath: ItemPass width mismatch")
		}
		vals = vals[:len(users)]
		counts = counts[:len(users)]
		for x := range users {
			t := counts[x]
			counts[x] = t + 1
			step := float32(stepAt(t, steps, slow))
			w := wData[int(users[x])*k:][:k]
			e := float32(vals[x]) - DotUnrolled32(w, h)
			applyStep32(w, h, step*e, step*lambda)
		}
	}
}

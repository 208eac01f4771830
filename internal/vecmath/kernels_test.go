package vecmath

import (
	"math"
	"testing"

	"nomad/internal/rng"
)

// kernelWidths covers every specialization boundary: below, at and
// above each unroll width, plus the tail cases of the generic kernel.
var kernelWidths = []int{1, 7, 8, 15, 16, 32, 33}

// fill populates a with uniform values in [-1, 1), the magnitude range
// of factor entries in this repository.
func fill[T Float](r *rng.Source, a []T) {
	for i := range a {
		a[i] = T(r.Uniform(-1, 1))
	}
}

// unit is T's unit roundoff u: 2⁻⁵³ for float64, 2⁻²⁴ for float32.
func unit[T Float]() float64 {
	if _, ok := any(T(0)).(float32); ok {
		return 0x1p-24
	}
	return 0x1p-53
}

// clone returns a copy of a.
func clone[T any](a []T) []T { return append([]T(nil), a...) }

// abs is |v| widened to float64.
func abs[T Float](v T) float64 { return math.Abs(float64(v)) }

// forcePortable pins kernel dispatch to the portable Go kernels for
// one test. The bit-exactness tests below state the *portable* kernels'
// contract (expression-for-expression identical update arithmetic);
// the asm kernels fuse multiply-adds and are held to the documented
// tolerances in kernels_asm_test.go instead.
func forcePortable(t *testing.T) {
	t.Helper()
	old := SIMDEnabled()
	SetSIMD(false)
	t.Cleanup(func() { SetSIMD(old) })
}

// dotTolerance bounds how far a reassociated dot product may sit from
// the reference sequential one. Both orderings have forward error at
// most (n−1)·u·Σ|aᵢbᵢ| with u = unit[T]() (standard recursive-summation
// analysis, e.g. Higham, "Accuracy and Stability of Numerical
// Algorithms", §4.2 — blocked summation is strictly tighter), so their
// difference is at most twice that. The bound is exact arithmetic, not
// a fudge factor: a kernel that reorders products any further fails.
func dotTolerance[T Float](a, b []T) float64 {
	u := unit[T]()
	var s float64
	for i := range a {
		s += math.Abs(float64(a[i]) * float64(b[i]))
	}
	return 2 * float64(len(a)) * u * s
}

// TestDotKernelsMatchReference checks every specialized dot against
// the reference Dot across widths and random inputs, within the
// summation-error tolerance above (bit-for-bit equality is not
// required only because the accumulators reassociate the sum), at both
// precisions under the ambient dispatch.
func TestDotKernelsMatchReference(t *testing.T) {
	t.Run("f64", testDotKernelsMatchReference[float64])
	t.Run("f32", testDotKernelsMatchReference[float32])
}

func testDotKernelsMatchReference[T Float](t *testing.T) {
	r := rng.New(11)
	for _, k := range kernelWidths {
		kern := KernelOf[T](k)
		if kern.K != k {
			t.Fatalf("KernelOf(%d).K = %d", k, kern.K)
		}
		for trial := 0; trial < 200; trial++ {
			a := make([]T, k)
			b := make([]T, k)
			fill(r, a)
			fill(r, b)
			want := Dot(a, b)
			got := kern.Dot(a, b)
			if tol := dotTolerance(a, b); abs(got-want) > tol {
				t.Fatalf("K=%d trial %d: kernel dot %v, reference %v, |diff| %g > tol %g",
					k, trial, got, want, abs(got-want), tol)
			}
			if g2 := DotKernelOf[T](k)(a, b); g2 != got {
				t.Fatalf("K=%d: DotKernelOf disagrees with KernelOf.Dot", k)
			}
			if gen := DotUnrolled(a, b); abs(gen-want) > dotTolerance(a, b) {
				t.Fatalf("K=%d: DotUnrolled %v vs reference %v", k, gen, want)
			}
		}
	}
}

// TestGradKernelBitIdentical: the specialized grad step uses
// expression-for-expression the same per-element arithmetic as the
// reference SGDUpdateGrad (only the dot product reassociates, and
// there is no dot product here), so given the same g the results must
// match bit for bit.
func TestGradKernelBitIdentical(t *testing.T) {
	forcePortable(t)
	t.Run("f64", testGradKernelBitIdentical[float64])
	t.Run("f32", testGradKernelBitIdentical[float32])
}

func testGradKernelBitIdentical[T Float](t *testing.T) {
	r := rng.New(12)
	for _, k := range kernelWidths {
		kern := KernelOf[T](k)
		for trial := 0; trial < 100; trial++ {
			w := make([]T, k)
			h := make([]T, k)
			fill(r, w)
			fill(r, h)
			wRef, hRef := clone(w), clone(h)
			g := T(r.Uniform(-2, 2))
			step := T(r.Uniform(0, 0.1))
			lambda := T(r.Uniform(0, 0.2))
			SGDUpdateGrad(wRef, hRef, g, step, lambda)
			kern.Grad(w, h, g, step, lambda)
			for l := 0; l < k; l++ {
				if w[l] != wRef[l] || h[l] != hRef[l] {
					t.Fatalf("K=%d trial %d elem %d: kernel (%v,%v) != reference (%v,%v)",
						k, trial, l, w[l], h[l], wRef[l], hRef[l])
				}
			}
		}
	}
}

// TestFusedStepDecomposition pins down the fused kernel exactly: its
// residual equals rating − Dot_kernel(w,h) bit for bit, and its row
// update is bit-identical to SGDUpdateGrad applied with that residual.
func TestFusedStepDecomposition(t *testing.T) {
	forcePortable(t)
	t.Run("f64", testFusedStepDecomposition[float64])
	t.Run("f32", testFusedStepDecomposition[float32])
}

func testFusedStepDecomposition[T Float](t *testing.T) {
	r := rng.New(13)
	for _, k := range kernelWidths {
		kern := KernelOf[T](k)
		for trial := 0; trial < 100; trial++ {
			w := make([]T, k)
			h := make([]T, k)
			fill(r, w)
			fill(r, h)
			wRef, hRef := clone(w), clone(h)
			rating := T(r.Uniform(-5, 5))
			step := T(r.Uniform(0, 0.1))
			lambda := T(r.Uniform(0, 0.2))

			wantE := rating - kern.Dot(w, h)
			e := kern.Step(w, h, rating, step, lambda)
			if e != wantE {
				t.Fatalf("K=%d: fused residual %v != rating − kernel dot %v", k, e, wantE)
			}
			SGDUpdateGrad(wRef, hRef, e, step, lambda)
			for l := 0; l < k; l++ {
				if w[l] != wRef[l] || h[l] != hRef[l] {
					t.Fatalf("K=%d trial %d elem %d: fused (%v,%v) != reference-at-same-e (%v,%v)",
						k, trial, l, w[l], h[l], wRef[l], hRef[l])
				}
			}
		}
	}
}

// TestFusedStepMatchesSGDUpdate compares the fused kernel end to end
// against the reference SGDUpdate. The residuals differ only by the
// dot reassociation, so each updated element differs by at most
// step·|δe|·|partner| plus one rounding of that perturbation.
func TestFusedStepMatchesSGDUpdate(t *testing.T) {
	forcePortable(t)
	t.Run("f64", testFusedStepMatchesSGDUpdate[float64])
	t.Run("f32", testFusedStepMatchesSGDUpdate[float32])
}

func testFusedStepMatchesSGDUpdate[T Float](t *testing.T) {
	r := rng.New(14)
	u := unit[T]()
	for _, k := range kernelWidths {
		kern := KernelOf[T](k)
		for trial := 0; trial < 100; trial++ {
			w := make([]T, k)
			h := make([]T, k)
			fill(r, w)
			fill(r, h)
			wRef, hRef := clone(w), clone(h)
			rating := T(r.Uniform(-5, 5))
			step := T(r.Uniform(0, 0.1))
			lambda := T(r.Uniform(0, 0.2))

			deltaE := dotTolerance(w, h)
			eRef := SGDUpdate(wRef, hRef, rating, step, lambda)
			e := kern.Step(w, h, rating, step, lambda)
			if abs(e-eRef) > deltaE {
				t.Fatalf("K=%d: fused residual %v vs reference %v beyond dot tolerance %g",
					k, e, eRef, deltaE)
			}
			for l := 0; l < k; l++ {
				// |w − wRef| ≤ step·δe·|h_old| + rounding; h_old here is
				// bounded by the post-update value's neighbourhood, so a
				// couple of ULPs of headroom covers the final rounding.
				tol := float64(step)*deltaE*(abs(hRef[l])+1) + 4*abs(wRef[l])*u
				if abs(w[l]-wRef[l]) > tol {
					t.Fatalf("K=%d elem %d: fused w %v vs reference %v (tol %g)", k, l, w[l], wRef[l], tol)
				}
				tol = float64(step)*deltaE*(abs(wRef[l])+1) + 4*abs(hRef[l])*u
				if abs(h[l]-hRef[l]) > tol {
					t.Fatalf("K=%d elem %d: fused h %v vs reference %v (tol %g)", k, l, h[l], hRef[l], tol)
				}
			}
		}
	}
}

// TestFusedSGDStepGeneric covers the exported generic fused kernel on
// its own (KernelOf routes non-common widths to it, but it is part of
// the public surface and must hold for the common widths too).
func TestFusedSGDStepGeneric(t *testing.T) {
	t.Run("f64", testFusedSGDStepGeneric[float64])
	t.Run("f32", testFusedSGDStepGeneric[float32])
}

func testFusedSGDStepGeneric[T Float](t *testing.T) {
	r := rng.New(15)
	for _, k := range kernelWidths {
		w := make([]T, k)
		h := make([]T, k)
		fill(r, w)
		fill(r, h)
		wRef, hRef := clone(w), clone(h)
		rating := T(r.Uniform(-5, 5))

		wantE := rating - DotUnrolled(w, h)
		e := FusedSGDStep(w, h, rating, 0.05, 0.01)
		if e != wantE {
			t.Fatalf("K=%d: FusedSGDStep residual %v, want %v", k, e, wantE)
		}
		SGDUpdateGrad(wRef, hRef, e, 0.05, 0.01)
		for l := 0; l < k; l++ {
			if w[l] != wRef[l] || h[l] != hRef[l] {
				t.Fatalf("K=%d elem %d: FusedSGDStep diverges from reference at equal e", k, l)
			}
		}
	}
}

// TestItemPassMatchesPerRatingLoop: the batched kernel must be
// bit-identical to calling Kernel.Step per rating with the step size
// looked up from the same table — it is the same arithmetic with the
// per-rating overheads hoisted, so exact equality is required, at every
// list length of itemPassLens and down to how often the slow closure
// runs. It runs at both precisions under the ambient dispatch.
func TestItemPassMatchesPerRatingLoop(t *testing.T) {
	t.Run("f64", testItemPassMatchesPerRatingLoop[float64])
	t.Run("f32", testItemPassMatchesPerRatingLoop[float32])
}

func testItemPassMatchesPerRatingLoop[T Float](t *testing.T) {
	r := rng.New(16)
	for _, k := range kernelWidths {
		kern := KernelOf[T](k)
		if kern.ItemPass == nil {
			t.Fatalf("K=%d: ItemPass missing", k)
		}
		for _, nRatings := range itemPassLens {
			const nUsers = 12
			steps := make([]float64, 5) // short table to exercise the slow fallback
			for i := range steps {
				steps[i] = r.Uniform(0.001, 0.1)
			}
			slowCalls, wantSlow := 0, 0
			slow := func(t int) float64 { slowCalls++; return 0.01 / float64(t+1) }

			wData := make([]T, nUsers*k)
			h := make([]T, k)
			fill(r, wData)
			fill(r, h)
			users := itemPassUsers(r, nRatings, nUsers)
			vals := make([]float64, nRatings)
			counts := make([]int32, nRatings)
			for x := range users {
				vals[x] = r.Uniform(-3, 3)
				counts[x] = int32(r.Intn(8)) // some past the table boundary
			}

			wRef, hRef, countsRef := clone(wData), clone(h), clone(counts)
			for x := range users {
				tc := countsRef[x]
				countsRef[x] = tc + 1
				var step float64
				if int(tc) < len(steps) {
					step = steps[tc]
				} else {
					wantSlow++
					step = 0.01 / float64(int(tc)+1)
				}
				o := int(users[x]) * k
				kern.Step(wRef[o:o+k], hRef, T(vals[x]), T(step), 0.02)
			}

			kern.ItemPass(wData, users, vals, counts, h, 0.02, steps, slow)
			if slowCalls != wantSlow || (nRatings >= 25 && slowCalls == 0) {
				t.Fatalf("K=%d n=%d: slow fallback ran %d times, per-rating loop %d", k, nRatings, slowCalls, wantSlow)
			}
			for i := range wData {
				if wData[i] != wRef[i] {
					t.Fatalf("K=%d n=%d: wData[%d] = %v, per-rating loop %v", k, nRatings, i, wData[i], wRef[i])
				}
			}
			for i := range h {
				if h[i] != hRef[i] {
					t.Fatalf("K=%d n=%d: h[%d] = %v, per-rating loop %v", k, nRatings, i, h[i], hRef[i])
				}
			}
			for i := range counts {
				if counts[i] != countsRef[i] {
					t.Fatalf("K=%d n=%d: counts[%d] = %d, want %d", k, nRatings, i, counts[i], countsRef[i])
				}
			}
		}
	}
}

// TestKernelForHasItemPass: every rank gets a batched item pass at
// both precisions under both dispatches, which is what lets the
// trainers drop their per-rating square-loss loops.
func TestKernelForHasItemPass(t *testing.T) {
	old := SIMDEnabled()
	t.Cleanup(func() { SetSIMD(old) })
	for _, simd := range []bool{true, false} {
		SetSIMD(simd)
		for k := 1; k <= 130; k++ {
			if KernelFor(k).ItemPass == nil || KernelOf[float32](k).ItemPass == nil {
				t.Fatalf("simd=%v K=%d: ItemPass missing", simd, k)
			}
		}
	}
}

func TestKernelPanicsOnMismatch(t *testing.T) {
	expectPanics(t, []func(){
		func() { dot8(make([]float64, 7), make([]float64, 8)) },
		func() { dot16(make([]float64, 16), make([]float64, 15)) },
		func() { dot32(make([]float64, 31), make([]float64, 32)) },
		func() { DotUnrolled(make([]float64, 3), make([]float64, 4)) },
		func() { FusedSGDStep(make([]float64, 3), make([]float64, 4), 1, 0.1, 0.1) },
		func() { gradAny(make([]float64, 3), make([]float64, 4), 1, 0.1, 0.1) },
	})
}

func TestKernel32PanicsOnMismatch(t *testing.T) {
	expectPanics(t, []func(){
		func() { Dot(make([]float32, 3), make([]float32, 4)) },
		func() { DotUnrolled(make([]float32, 3), make([]float32, 4)) },
		func() { SGDUpdate(make([]float32, 3), make([]float32, 4), 1, 0.1, 0.1) },
		func() { FusedSGDStep(make([]float32, 3), make([]float32, 4), 1, 0.1, 0.1) },
		func() { gradAny(make([]float32, 3), make([]float32, 4), 1, 0.1, 0.1) },
	})
}

// expectPanics fails t unless every fn panics.
func expectPanics(t *testing.T, fns []func()) {
	t.Helper()
	for _, fn := range fns {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on length mismatch")
				}
			}()
			fn()
		}()
	}
}

// TestPrefetchIgnoresWindowsOutsideTheSlice: look-ahead callers hand
// Prefetch unclamped indices, so every window that is not wholly inside
// the slice — negative, at or past the end, overhanging, nil — must be
// a no-op rather than an index (under -race, checkptr also vets the
// pointer the in-range ones form).
func TestPrefetchIgnoresWindowsOutsideTheSlice(t *testing.T) {
	s := make([]float64, 16)
	for _, w := range [][2]int{{-1, 1}, {16, 1}, {15, 2}, {0, 17}, {1 << 30, 1}, {-1 << 30, 8},
		{0, 16}, {8, 8}, {15, 1}, {3, 0}, {3, -1}} {
		Prefetch(s, w[0], w[1])
	}
	Prefetch([]int32(nil), 0, 1)
	Prefetch([]float32{}, 0, 0)
}

// TestPrefetchSpanCoversEveryLine replays prefetchT0's loop (one line
// at start, start+64, … while bytes remain) over the span Prefetch
// hands it, and checks that exactly the lines under [addr, addr+size)
// are issued: none lost at the end of a window that starts mid-line,
// none added for the line-aligned rows and one-element heads the hot
// path prefetched correctly before.
func TestPrefetchSpanCoversEveryLine(t *testing.T) {
	issued := func(addr, n uintptr) []uintptr {
		var lines []uintptr
		for p, left := addr, int(n); ; p, left = p+64, left-64 {
			lines = append(lines, p/64)
			if left-64 <= 0 {
				return lines
			}
		}
	}
	for _, tc := range []struct {
		name              string
		addr, size        uintptr
		lines, unextended int // lines under the window; lines the unextended length issues
	}{
		{"f32 K=12 row 1 (bytes 48-95)", 48, 48, 2, 1},
		{"f32 K=12 row 0", 0, 48, 1, 1},
		{"f32 K=12 row 5 (bytes 240-287)", 240, 48, 2, 1},
		{"f64 K=12 row 1 (bytes 96-191)", 96, 96, 2, 2},
		{"f64 K=16 row off its line", 32, 128, 3, 2},
		{"f32 K=16 row off its line", 16, 64, 2, 1},
		{"f64 K=16 row", 1 << 20, 128, 2, 2},
		{"f32 K=16 row", 1<<20 + 64, 64, 1, 1},
		{"int32 head at byte 60", 60, 4, 1, 1},
		{"float64 head at byte 56", 56, 8, 1, 1},
		{"n < 1 at byte 40", 40, 0, 1, 1},
	} {
		got := issued(tc.addr, prefetchSpan(tc.addr, tc.size))
		first, last := tc.addr/64, (tc.addr+max(tc.size, 1)-1)/64
		if len(got) != tc.lines || got[0] != first || got[len(got)-1] != last {
			t.Errorf("%s: lines %v, want %d lines %d..%d", tc.name, got, tc.lines, first, last)
		}
		if n := len(issued(tc.addr, tc.size)); n != tc.unextended {
			t.Errorf("%s: the unextended length issues %d lines, want %d", tc.name, n, tc.unextended)
		}
	}
}

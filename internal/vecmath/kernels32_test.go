package vecmath

import (
	"math"
	"testing"

	"nomad/internal/rng"
)

// float32 kernel equivalence, same structure as the float64 tests with
// u = 2⁻²⁴. KernelFor32 dispatches exactly like KernelFor, so running
// these on amd64 covers the AVX2 float32 kernels and under
// NOMAD_NO_SIMD (or off amd64) the portable unrolled set.

func fill32(r *rng.Source, a []float32) {
	for i := range a {
		a[i] = float32(r.Uniform(-1, 1))
	}
}

// dotTolerance32 is the float32 twin of dotTolerance.
func dotTolerance32(a, b []float32) float64 {
	const u = 0x1p-24
	var s float64
	for i := range a {
		s += math.Abs(float64(a[i]) * float64(b[i]))
	}
	return 2 * float64(len(a)) * u * s
}

// updTolerance32 is the float32 twin of updTolerance.
func updTolerance32(w, partner, sg, sl float32) float64 {
	const u, c = 0x1p-24, 8
	return c * u * (math.Abs(float64(w)) +
		math.Abs(float64(sg)*float64(partner)) + math.Abs(float64(sl)*float64(w)))
}

func TestKernel32DotMatchesReference(t *testing.T) {
	r := rng.New(51)
	for _, n := range asmLengths {
		kern := KernelFor32(n)
		if kern.K != n {
			t.Fatalf("KernelFor32(%d).K = %d", n, kern.K)
		}
		for trial := 0; trial < 100; trial++ {
			a := make([]float32, n)
			b := make([]float32, n)
			fill32(r, a)
			fill32(r, b)
			want := Dot32(a, b)
			got := kern.Dot(a, b)
			if tol := dotTolerance32(a, b); math.Abs(float64(got)-float64(want)) > tol {
				t.Fatalf("n=%d trial %d: kernel dot %v, reference %v, tol %g",
					n, trial, got, want, tol)
			}
			if g2 := DotKernel32(n)(a, b); g2 != got {
				t.Fatalf("n=%d: DotKernel32 disagrees with KernelFor32.Dot", n)
			}
		}
	}
}

func TestKernel32StepMatchesReference(t *testing.T) {
	r := rng.New(52)
	for _, n := range asmLengths {
		kern := KernelFor32(n)
		for trial := 0; trial < 100; trial++ {
			w := make([]float32, n)
			h := make([]float32, n)
			fill32(r, w)
			fill32(r, h)
			wRef := append([]float32(nil), w...)
			hRef := append([]float32(nil), h...)
			rating := float32(r.Uniform(-5, 5))
			step := float32(r.Uniform(0, 0.1))
			lambda := float32(r.Uniform(0, 0.2))

			// δe ≤ δdot plus one rounding of the subtraction on each side.
			eRef := SGDUpdate32(wRef, hRef, rating, step, lambda)
			deltaE := dotTolerance32(w, h) + 2*math.Abs(float64(eRef))*0x1p-24
			e := kern.Step(w, h, rating, step, lambda)
			if math.Abs(float64(e)-float64(eRef)) > deltaE {
				t.Fatalf("n=%d: residual %v vs reference %v beyond tol %g", n, e, eRef, deltaE)
			}
			emax := float32(math.Max(math.Abs(float64(e)), math.Abs(float64(eRef))))
			sg, sl := step*emax, step*lambda
			for l := 0; l < n; l++ {
				tol := float64(step)*deltaE*(math.Abs(float64(hRef[l]))+1) +
					updTolerance32(wRef[l], hRef[l], sg, sl)
				if math.Abs(float64(w[l])-float64(wRef[l])) > tol {
					t.Fatalf("n=%d elem %d: w %v vs reference %v (tol %g)", n, l, w[l], wRef[l], tol)
				}
				tol = float64(step)*deltaE*(math.Abs(float64(wRef[l]))+1) +
					updTolerance32(hRef[l], wRef[l], sg, sl)
				if math.Abs(float64(h[l])-float64(hRef[l])) > tol {
					t.Fatalf("n=%d elem %d: h %v vs reference %v (tol %g)", n, l, h[l], hRef[l], tol)
				}
			}
		}
	}
}

func TestKernel32GradMatchesReference(t *testing.T) {
	r := rng.New(53)
	for _, n := range asmLengths {
		kern := KernelFor32(n)
		for trial := 0; trial < 50; trial++ {
			w := make([]float32, n)
			h := make([]float32, n)
			fill32(r, w)
			fill32(r, h)
			wRef := append([]float32(nil), w...)
			hRef := append([]float32(nil), h...)
			g := float32(r.Uniform(-2, 2))
			step := float32(r.Uniform(0, 0.1))
			lambda := float32(r.Uniform(0, 0.2))
			SGDUpdateGrad32(wRef, hRef, g, step, lambda)
			kern.Grad(w, h, g, step, lambda)
			sg, sl := step*g, step*lambda
			for l := 0; l < n; l++ {
				if tol := updTolerance32(wRef[l], hRef[l], sg, sl); math.Abs(float64(w[l])-float64(wRef[l])) > tol {
					t.Fatalf("n=%d elem %d: w %v vs reference %v (tol %g)", n, l, w[l], wRef[l], tol)
				}
				if tol := updTolerance32(hRef[l], wRef[l], sg, sl); math.Abs(float64(h[l])-float64(hRef[l])) > tol {
					t.Fatalf("n=%d elem %d: h %v vs reference %v (tol %g)", n, l, h[l], hRef[l], tol)
				}
			}
		}
	}
}

// TestItemPass32BitMatchesStep: like the float64 item-pass tests, the
// batched float32 pass is the same arithmetic as per-rating Step calls
// and must match bit for bit on whichever kernel set is dispatched.
func TestItemPass32BitMatchesStep(t *testing.T) {
	r := rng.New(54)
	for _, k := range []int{8, 16, 32, 17} {
		slowCalls := 0
		for _, nRatings := range itemPassLens {
			kern := KernelFor32(k)
			if kern.ItemPass == nil {
				t.Fatalf("K=%d: ItemPass missing", k)
			}
			const nUsers = 10
			steps := []float64{0.05, 0.04, 0.03}
			slow := func(t int) float64 { slowCalls++; return 0.02 / float64(t+1) }
			wData := make([]float32, nUsers*k)
			h := make([]float32, k)
			fill32(r, wData)
			fill32(r, h)
			users := itemPassUsers(r, nRatings, nUsers)
			vals := make([]float64, nRatings)
			counts := make([]int32, nRatings)
			for x := range users {
				vals[x] = r.Uniform(-3, 3)
				counts[x] = int32(r.Intn(6))
			}
			wRef := append([]float32(nil), wData...)
			hRef := append([]float32(nil), h...)
			for x := range users {
				tc := counts[x]
				step := 0.02 / float64(int(tc)+1)
				if int(tc) < len(steps) {
					step = steps[tc]
				}
				o := int(users[x]) * k
				kern.Step(wRef[o:o+k], hRef, float32(vals[x]), float32(step), 0.02)
			}
			kern.ItemPass(wData, users, vals, counts, h, 0.02, steps, slow)
			for i := range wData {
				if wData[i] != wRef[i] {
					t.Fatalf("K=%d n=%d: wData[%d] = %v, per-rating %v", k, nRatings, i, wData[i], wRef[i])
				}
			}
			for i := range h {
				if h[i] != hRef[i] {
					t.Fatalf("K=%d n=%d: h[%d] = %v, per-rating %v", k, nRatings, i, h[i], hRef[i])
				}
			}
		}
		if slowCalls == 0 {
			t.Fatalf("K=%d: slow fallback never exercised", k)
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
			if KernelFor(k).ItemPass == nil || KernelFor32(k).ItemPass == nil {
				t.Fatalf("simd=%v K=%d: ItemPass missing", simd, k)
			}
		}
	}
}

func TestNorm2Sq32(t *testing.T) {
	a := []float32{1, -2, 3}
	if got := Norm2Sq32(a); got != 14 {
		t.Fatalf("Norm2Sq32 = %v, want 14", got)
	}
}

func TestKernel32PanicsOnMismatch(t *testing.T) {
	for _, fn := range []func(){
		func() { Dot32(make([]float32, 3), make([]float32, 4)) },
		func() { DotUnrolled32(make([]float32, 3), make([]float32, 4)) },
		func() { SGDUpdate32(make([]float32, 3), make([]float32, 4), 1, 0.1, 0.1) },
		func() { FusedSGDStep32(make([]float32, 3), make([]float32, 4), 1, 0.1, 0.1) },
		func() { gradAny32(make([]float32, 3), make([]float32, 4), 1, 0.1, 0.1) },
	} {
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

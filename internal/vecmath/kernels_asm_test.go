package vecmath

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"nomad/internal/rng"
)

// Equivalence of the assembly kernels against the reference
// implementations, to the documented tolerances.
//
// Error model. The asm kernels differ from the references in exactly
// two ways: the dot product reassociates its sum (multi-accumulator
// blocks), and every multiply-add is fused (one rounding instead of
// two). Both are covered by standard forward-error analysis:
//
//   - dot: either ordering has forward error ≤ n·u·Σ|aᵢbᵢ| (Higham
//     §4.2; FMA strictly tightens it), so reference and asm differ by
//     at most 2·n·u·Σ|aᵢbᵢ| — the same dotTolerance the portable
//     kernels are held to. u = 2⁻⁵³ (f64) or 2⁻²⁴ (f32).
//   - update: w′ = w + sg·h − sl·w evaluated with two roundings (Go)
//     vs fused (asm) differs by at most a few u of the intermediate
//     magnitudes, ≤ C·u·(|w| + |sg·h| + |sl·w|) with C = 8 giving
//     comfortable headroom; add the residual-difference term
//     step·δe·|partner| when e itself came from the dot.
//
// Non-finite inputs (±Inf, NaN) can turn into NaN differently under
// reassociation (∞ − ∞ appears in one order but not another), so for
// those the contract is class equivalence: reference non-finite ⇔ asm
// non-finite. Subnormals get absolute slack of a few
// math.SmallestNonzeroFloat64 on top of the relative bound, since
// flush-free FMA keeps subnormal products the separate rounding loses.
//
// These tests pass trivially (skip) off amd64 or on amd64 hardware
// without AVX2+FMA — CI's cross-compile matrix only builds there, and
// the NOMAD_NO_SIMD test pass covers the fallback dispatch on hardware
// that has the features.

// forceSIMD pins dispatch to the assembly kernels for one test,
// skipping when the hardware cannot run them.
func forceSIMD(t *testing.T) {
	t.Helper()
	if !SIMDAvailable() {
		t.Skip("no AVX2/FMA on this machine")
	}
	old := SIMDEnabled()
	SetSIMD(true)
	t.Cleanup(func() { SetSIMD(old) })
}

// asmLengths covers every asm loop boundary: the 16/32-wide blocks, the
// 4/8-wide mid loops, the scalar tails, and off-by-ones around each.
var asmLengths = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 20, 31, 32, 33, 48, 63, 64, 100, 129}

// updTolerance is the fused-vs-separate rounding bound for one updated
// element (see the error model above).
func updTolerance[T Float](w, partner, sg, sl T) float64 {
	const c = 8
	return c * unit[T]() * (abs(w) + math.Abs(float64(sg)*float64(partner)) + math.Abs(float64(sl)*float64(w)))
}

func TestSIMDDotMatchesReference(t *testing.T) {
	forceSIMD(t)
	t.Run("f64", testSIMDDotMatchesReference[float64])
	t.Run("f32", testSIMDDotMatchesReference[float32])
}

func testSIMDDotMatchesReference[T Float](t *testing.T) {
	r := rng.New(41)
	for _, n := range asmLengths {
		kern := KernelOf[T](n)
		for trial := 0; trial < 100; trial++ {
			a := make([]T, n)
			b := make([]T, n)
			fill(r, a)
			fill(r, b)
			want := Dot(a, b)
			got := kern.Dot(a, b)
			if tol := dotTolerance(a, b); abs(got-want) > tol {
				t.Fatalf("n=%d trial %d: asm dot %v, reference %v, |diff| %g > tol %g",
					n, trial, got, want, abs(got-want), tol)
			}
		}
	}
}

func TestSIMDStepMatchesReference(t *testing.T) {
	forceSIMD(t)
	t.Run("f64", testSIMDStepMatchesReference[float64])
	t.Run("f32", testSIMDStepMatchesReference[float32])
}

func testSIMDStepMatchesReference[T Float](t *testing.T) {
	r := rng.New(42)
	for _, n := range asmLengths {
		kern := KernelOf[T](n)
		for trial := 0; trial < 100; trial++ {
			w := make([]T, n)
			h := make([]T, n)
			fill(r, w)
			fill(r, h)
			wRef, hRef := clone(w), clone(h)
			rating := T(r.Uniform(-5, 5))
			step := T(r.Uniform(0, 0.1))
			lambda := T(r.Uniform(0, 0.2))

			// δe ≤ δdot plus one rounding of the subtraction
			// rating − dot on each side.
			eRef := SGDUpdate(wRef, hRef, rating, step, lambda)
			deltaE := dotTolerance(w, h) + 2*abs(eRef)*unit[T]()
			e := kern.Step(w, h, rating, step, lambda)
			if abs(e-eRef) > deltaE {
				t.Fatalf("n=%d: asm residual %v vs reference %v beyond dot tolerance %g",
					n, e, eRef, deltaE)
			}
			sg, sl := step*T(math.Max(abs(e), abs(eRef))), step*lambda
			for l := 0; l < n; l++ {
				tol := float64(step)*deltaE*(abs(hRef[l])+1) + updTolerance(wRef[l], hRef[l], sg, sl)
				if abs(w[l]-wRef[l]) > tol {
					t.Fatalf("n=%d elem %d: asm w %v vs reference %v (tol %g)", n, l, w[l], wRef[l], tol)
				}
				tol = float64(step)*deltaE*(abs(wRef[l])+1) + updTolerance(hRef[l], wRef[l], sg, sl)
				if abs(h[l]-hRef[l]) > tol {
					t.Fatalf("n=%d elem %d: asm h %v vs reference %v (tol %g)", n, l, h[l], hRef[l], tol)
				}
			}
		}
	}
}

func TestSIMDGradMatchesReference(t *testing.T) {
	forceSIMD(t)
	t.Run("f64", testSIMDGradMatchesReference[float64])
	t.Run("f32", testSIMDGradMatchesReference[float32])
}

func testSIMDGradMatchesReference[T Float](t *testing.T) {
	r := rng.New(43)
	for _, n := range asmLengths {
		kern := KernelOf[T](n)
		for trial := 0; trial < 100; trial++ {
			w := make([]T, n)
			h := make([]T, n)
			fill(r, w)
			fill(r, h)
			wRef, hRef := clone(w), clone(h)
			g := T(r.Uniform(-2, 2))
			step := T(r.Uniform(0, 0.1))
			lambda := T(r.Uniform(0, 0.2))
			SGDUpdateGrad(wRef, hRef, g, step, lambda)
			kern.Grad(w, h, g, step, lambda)
			sg, sl := step*g, step*lambda
			for l := 0; l < n; l++ {
				if tol := updTolerance(wRef[l], hRef[l], sg, sl); abs(w[l]-wRef[l]) > tol {
					t.Fatalf("n=%d elem %d: asm w %v vs reference %v (tol %g)", n, l, w[l], wRef[l], tol)
				}
				if tol := updTolerance(hRef[l], wRef[l], sg, sl); abs(h[l]-hRef[l]) > tol {
					t.Fatalf("n=%d elem %d: asm h %v vs reference %v (tol %g)", n, l, h[l], hRef[l], tol)
				}
			}
		}
	}
}

// itemPassLens are the rating-list lengths the item-pass tests run:
// every side of the look-ahead distance (a list shorter than, equal to
// and just past it, and one several windows long), a long list, and one
// the size of a popular item's (the whole-list kernels' home ground).
var itemPassLens = []int{0, 1, itemPassAhead - 1, itemPassAhead, itemPassAhead + 1, 3*itemPassAhead + 1, 60, 4096}

// itemPassUsers draws the users of one n-rating list over an
// nUsers-row table sized exactly, so a look-ahead that indexes past
// either end of the list or the table panics: the list opens on row 0,
// closes on the last row, and repeats one user inside a single
// look-ahead window (a row prefetched while it is being updated).
func itemPassUsers(r *rng.Source, n, nUsers int) []int32 {
	users := make([]int32, n)
	for x := range users {
		users[x] = int32(r.Intn(nUsers))
	}
	if n > 0 {
		users[0], users[n-1] = 0, int32(nUsers-1)
	}
	if n > 3 {
		users[2] = users[1]
	}
	return users
}

// TestSIMDItemPassBitMatchesStep: the asm item pass calls the same
// fused asm step per rating, so against kern.Step at the same schedule
// it must agree bit for bit (this mirrors the portable item-pass test)
// — at every list length around its prefetch look-ahead, which may
// touch cache lines but never the arithmetic.
func TestSIMDItemPassBitMatchesStep(t *testing.T) {
	forceSIMD(t)
	t.Run("f64", testSIMDItemPassBitMatchesStep[float64])
	t.Run("f32", testSIMDItemPassBitMatchesStep[float32])
}

func testSIMDItemPassBitMatchesStep[T Float](t *testing.T) {
	r := rng.New(44)
	for _, k := range []int{8, 16, 32, 17} {
		for _, nRatings := range itemPassLens {
			kern := KernelOf[T](k)
			const nUsers = 10
			steps := []float64{0.05, 0.04, 0.03}
			slow := func(t int) float64 { return 0.02 / float64(t+1) }
			wData := make([]T, nUsers*k)
			h := make([]T, k)
			fill(r, wData)
			fill(r, h)
			users := itemPassUsers(r, nRatings, nUsers)
			vals := make([]float64, nRatings)
			counts := make([]int32, nRatings)
			for x := range users {
				vals[x] = r.Uniform(-3, 3)
				counts[x] = int32(r.Intn(6))
			}
			wRef, hRef := clone(wData), clone(h)
			for x := range users {
				tc := counts[x]
				step := slow(int(tc))
				if int(tc) < len(steps) {
					step = steps[tc]
				}
				o := int(users[x]) * k
				kern.Step(wRef[o:o+k], hRef, T(vals[x]), T(step), 0.02)
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
	}
}

// stepList is the oracle of the batched item passes, written out here:
// ratings [from, to) of one list, one Kernel.Step call
// each, the count moved and the step looked up the way every per-rating
// loop does it. A user index outside wData panics on the row slice,
// after the count moved and before any row is written.
func stepList[T Float](step func(w, h []T, rating, step, lambda T) T, k int,
	wData []T, l ItemList[T], from, to int, lambda T, steps []float64, slow func(int) float64) {
	for x := from; x < to; x++ {
		tc := l.Counts[x]
		l.Counts[x] = tc + 1
		var st float64
		if int(tc) < len(steps) {
			st = steps[tc]
		} else {
			st = slow(int(tc))
		}
		w := wData[int(l.Users[x])*k:][:k]
		step(w, l.H, T(l.Vals[x]), T(st), lambda)
	}
}

// passFixture is a random nUsers-row table and n-rating list over it
// (itemPassUsers' shape: rows 0 and nUsers−1, a repeated user) with
// counts straddling the end of a table of tableLen steps, and a deep
// copy of both for the oracle.
type passFixture[T Float] struct {
	w, wRef []T
	l, lRef ItemList[T]
}

func newPassFixture[T Float](r *rng.Source, k, nUsers, n, tableLen int) passFixture[T] {
	var f passFixture[T]
	f.w = make([]T, nUsers*k)
	for i := range f.w {
		f.w[i] = T(r.Uniform(-1, 1))
	}
	f.l = ItemList[T]{Users: itemPassUsers(r, n, nUsers), Vals: make([]float64, n),
		Counts: make([]int32, n), H: make([]T, k)}
	for i := range f.l.H {
		f.l.H[i] = T(r.Uniform(-1, 1))
	}
	for x := range f.l.Vals {
		f.l.Vals[x] = r.Uniform(-3, 3)
		f.l.Counts[x] = int32(r.Intn(tableLen + 3))
	}
	f.wRef = append([]T(nil), f.w...)
	f.lRef = ItemList[T]{Users: f.l.Users, Vals: f.l.Vals,
		Counts: append([]int32(nil), f.l.Counts...), H: append([]T(nil), f.l.H...)}
	return f
}

// diff names the first place the kernel's side differs from the
// oracle's, bit for bit, or returns "".
func (f *passFixture[T]) diff() string {
	for i := range f.w {
		if f.w[i] != f.wRef[i] {
			return fmt.Sprintf("wData[%d] = %v, per-rating %v", i, f.w[i], f.wRef[i])
		}
	}
	for i := range f.l.H {
		if f.l.H[i] != f.lRef.H[i] {
			return fmt.Sprintf("h[%d] = %v, per-rating %v", i, f.l.H[i], f.lRef.H[i])
		}
	}
	for i := range f.l.Counts {
		if f.l.Counts[i] != f.lRef.Counts[i] {
			return fmt.Sprintf("counts[%d] = %d, per-rating %d", i, f.l.Counts[i], f.lRef.Counts[i])
		}
	}
	return ""
}

// panics reports whether fn panicked.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// testItemPassStops drives one precision's K=16 whole-list kernel at
// the ratings it must hand back to the checked path. Step tables of 5
// entries and of none: the slow closure runs exactly as often as the
// per-rating loop runs it. A user index past the table's rows or below
// zero, first, in the middle and last in the list: the same panic as
// the per-rating loop, at the same rating, with the same rows, item row
// and counts left behind — every earlier rating applied, the bad one's
// count moved, no row written for it.
func testItemPassStops[T Float](t *testing.T,
	step func(w, h []T, rating, step, lambda T) T,
	pass func(wData []T, users []int32, vals []float64, counts []int32, h []T, lambda T, steps []float64, slow func(int) float64)) {
	const k, nUsers = 16, 10
	r := rng.New(47)
	for _, tableLen := range []int{5, 0} {
		steps := make([]float64, tableLen)
		for i := range steps {
			steps[i] = r.Uniform(0.001, 0.1)
		}
		for _, n := range itemPassLens {
			f := newPassFixture[T](r, k, nUsers, n, tableLen)
			var slowRef, slowGot int
			stepList(step, k, f.wRef, f.lRef, 0, n, 0.02, steps,
				func(t int) float64 { slowRef++; return 0.01 / float64(t+1) })
			pass(f.w, f.l.Users, f.l.Vals, f.l.Counts, f.l.H, 0.02, steps,
				func(t int) float64 { slowGot++; return 0.01 / float64(t+1) })
			if d := f.diff(); d != "" {
				t.Fatalf("table %d, n=%d: %s", tableLen, n, d)
			}
			if slowGot != slowRef || (n >= 60 && slowRef == 0) {
				t.Fatalf("table %d, n=%d: slow path ran %d times, per-rating loop %d", tableLen, n, slowGot, slowRef)
			}
		}
	}
	steps := []float64{0.05, 0.04, 0.03, 0.02, 0.01}
	slow := func(t int) float64 { return 0.01 / float64(t+1) }
	for _, bad := range []int32{nUsers, -1, 1 << 30, -1 << 31} {
		for _, at := range []int{0, 11, 19} {
			f := newPassFixture[T](r, k, nUsers, 20, len(steps))
			f.l.Users[at] = bad
			if !panics(func() { stepList(step, k, f.wRef, f.lRef, 0, 20, 0.02, steps, slow) }) {
				t.Fatal("the oracle accepted a bad user index")
			}
			if !panics(func() { pass(f.w, f.l.Users, f.l.Vals, f.l.Counts, f.l.H, 0.02, steps, slow) }) {
				t.Fatalf("user %d at %d: no panic", bad, at)
			}
			if d := f.diff(); d != "" {
				t.Fatalf("user %d at %d: after the panic %s", bad, at, d)
			}
		}
	}
}

func TestSIMDItemPassStopsWhereThePerRatingLoopChecks(t *testing.T) {
	forceSIMD(t)
	t.Run("f64", func(t *testing.T) { testItemPassStops(t, KernelFor(16).Step, KernelFor(16).ItemPass) })
	t.Run("f32", func(t *testing.T) { testItemPassStops(t, KernelOf[float32](16).Step, KernelOf[float32](16).ItemPass) })
}

// testItemPassPair: the two-list kernel against the order it promises —
// A[x], B[x] alternately through Kernel.Step — and then the longer
// list's tail through the single-list pass, on lists that share users
// (both open on row 0 and close on the last row), with a short step
// table so the checked path is taken mid-pair, and with a bad user
// index in either list (the alternation's panic, and its state).
func testItemPassPair[T Float](t *testing.T,
	step func(w, h []T, rating, step, lambda T) T,
	pass func(wData []T, users []int32, vals []float64, counts []int32, h []T, lambda T, steps []float64, slow func(int) float64),
	pair func(wData []T, a, b ItemList[T], lambda T, steps []float64, slow func(int) float64)) {
	const k, nUsers = 16, 10
	r := rng.New(48)
	steps := []float64{0.05, 0.04, 0.03, 0.02, 0.01}
	alternate := func(w []T, a, b ItemList[T], slow func(int) float64) {
		n := min(len(a.Users), len(b.Users))
		for x := 0; x < n; x++ {
			stepList(step, k, w, a, x, x+1, 0.02, steps, slow)
			stepList(step, k, w, b, x, x+1, 0.02, steps, slow)
		}
		stepList(step, k, w, a, n, len(a.Users), 0.02, steps, slow)
		stepList(step, k, w, b, n, len(b.Users), 0.02, steps, slow)
	}
	tail := func(l ItemList[T], n int) ItemList[T] {
		return ItemList[T]{Users: l.Users[n:], Vals: l.Vals[n:], Counts: l.Counts[n:], H: l.H}
	}
	for _, lens := range [][2]int{{40, 40}, {40, 13}, {0, 9}, {7, 0}, {1, 1}, {4096, 3000}} {
		for _, bad := range []int{-1, 0, 1} { // no bad index, one in A, one in B
			if bad >= 0 && lens[bad] < 7 {
				continue
			}
			fa := newPassFixture[T](r, k, nUsers, lens[0], len(steps))
			fb := newPassFixture[T](r, k, nUsers, lens[1], len(steps))
			fb.w, fb.wRef = fa.w, fa.wRef // one table under both lists
			if bad >= 0 {
				[]ItemList[T]{fa.l, fb.l}[bad].Users[5] = nUsers
			}
			var slowRef, slowGot int
			refPanicked := panics(func() {
				alternate(fa.wRef, fa.lRef, fb.lRef, func(t int) float64 { slowRef++; return 0.01 / float64(t+1) })
			})
			gotPanicked := panics(func() {
				slow := func(t int) float64 { slowGot++; return 0.01 / float64(t+1) }
				pair(fa.w, fa.l, fb.l, 0.02, steps, slow)
				n := min(lens[0], lens[1])
				ta, tb := tail(fa.l, n), tail(fb.l, n)
				pass(fa.w, ta.Users, ta.Vals, ta.Counts, ta.H, 0.02, steps, slow)
				pass(fa.w, tb.Users, tb.Vals, tb.Counts, tb.H, 0.02, steps, slow)
			})
			if refPanicked != (bad >= 0) || gotPanicked != refPanicked {
				t.Fatalf("lens %v bad %d: pair panicked %v, alternation %v", lens, bad, gotPanicked, refPanicked)
			}
			if d := fa.diff(); d != "" {
				t.Fatalf("lens %v bad %d: list A: %s", lens, bad, d)
			}
			if d := fb.diff(); d != "" {
				t.Fatalf("lens %v bad %d: list B: %s", lens, bad, d)
			}
			if slowGot != slowRef {
				t.Fatalf("lens %v bad %d: slow path ran %d times, alternation %d", lens, bad, slowGot, slowRef)
			}
		}
	}
}

func TestItemPassPairMatchesAlternation(t *testing.T) {
	forceSIMD(t)
	t.Run("f64", func(t *testing.T) {
		kn := KernelFor(16)
		testItemPassPair(t, kn.Step, kn.ItemPass, kn.ItemPassPair)
	})
	t.Run("f32", func(t *testing.T) {
		kn := KernelOf[float32](16)
		testItemPassPair(t, kn.Step, kn.ItemPass, kn.ItemPassPair)
	})
	if KernelFor(8).ItemPassPair != nil || KernelOf[float32](17).ItemPassPair != nil {
		t.Fatal("a two-list kernel for a rank that has none")
	}
	SetSIMD(false)
	if KernelFor(16).ItemPassPair != nil || KernelOf[float32](16).ItemPassPair != nil {
		t.Fatal("a two-list kernel with the assembly switched off")
	}
}

// special packs the awkward values the property tests below mix into
// otherwise-random rows.
var special = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1040, -0x1p-1035, // deeper subnormals
	0x1p-520, 0x1p510, -0x1p510, // magnitude extremes that stay finite
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestSIMDDotSpecialValues drives the asm dot with subnormals and
// non-finite values mixed into random rows. Finite references must
// agree within tolerance (plus absolute subnormal slack); non-finite
// references require a non-finite asm result (class equivalence — the
// exact NaN/Inf split legitimately depends on summation order).
func TestSIMDDotSpecialValues(t *testing.T) {
	forceSIMD(t)
	r := rng.New(45)
	for trial := 0; trial < 400; trial++ {
		n := asmLengths[r.Intn(len(asmLengths))]
		kern := KernelFor(n)
		a := make([]float64, n)
		b := make([]float64, n)
		fill(r, a)
		fill(r, b)
		for injected := 0; injected < 1+r.Intn(3); injected++ {
			a[r.Intn(n)] = special[r.Intn(len(special))]
			if r.Intn(2) == 0 {
				b[r.Intn(n)] = special[r.Intn(len(special))]
			}
		}
		want := Dot(a, b)
		got := kern.Dot(a, b)
		if math.IsNaN(want) || math.IsInf(want, 0) {
			if !math.IsNaN(got) && !math.IsInf(got, 0) {
				t.Fatalf("n=%d: reference %v non-finite, asm %v finite (a=%v b=%v)", n, want, got, a, b)
			}
			continue
		}
		tol := dotTolerance(a, b) + 16*math.SmallestNonzeroFloat64
		if math.Abs(got-want) > tol {
			t.Fatalf("n=%d: asm dot %v, reference %v, tol %g (a=%v b=%v)", n, got, want, tol, a, b)
		}
	}
}

// TestSIMDGradSpecialValues does the same for the update kernel, where
// subnormal rows exercise FMA's flush-free products.
func TestSIMDGradSpecialValues(t *testing.T) {
	forceSIMD(t)
	r := rng.New(46)
	for trial := 0; trial < 400; trial++ {
		n := asmLengths[r.Intn(len(asmLengths))]
		kern := KernelFor(n)
		w := make([]float64, n)
		h := make([]float64, n)
		fill(r, w)
		fill(r, h)
		for injected := 0; injected < 1+r.Intn(3); injected++ {
			w[r.Intn(n)] = special[r.Intn(len(special))]
			if r.Intn(2) == 0 {
				h[r.Intn(n)] = special[r.Intn(len(special))]
			}
		}
		wRef := append([]float64(nil), w...)
		hRef := append([]float64(nil), h...)
		g := r.Uniform(-2, 2)
		step := r.Uniform(0, 0.1)
		lambda := r.Uniform(0, 0.2)
		SGDUpdateGrad(wRef, hRef, g, step, lambda)
		kern.Grad(w, h, g, step, lambda)
		sg, sl := step*g, step*lambda
		for l := 0; l < n; l++ {
			for _, pair := range [2][3]float64{{w[l], wRef[l], hRef[l]}, {h[l], hRef[l], wRef[l]}} {
				got, want, partner := pair[0], pair[1], pair[2]
				if math.IsNaN(want) || math.IsInf(want, 0) {
					if !math.IsNaN(got) && !math.IsInf(got, 0) {
						t.Fatalf("n=%d elem %d: reference %v non-finite, asm %v finite", n, l, want, got)
					}
					continue
				}
				tol := updTolerance(want, partner, sg, sl) + 16*math.SmallestNonzeroFloat64
				if math.Abs(got-want) > tol {
					t.Fatalf("n=%d elem %d: asm %v vs reference %v (tol %g)", n, l, got, want, tol)
				}
			}
		}
	}
}

// FuzzSIMDDot fuzzes asm-vs-reference dot equivalence over raw bytes
// reinterpreted as float64 pairs — lengths, alignment offsets, and bit
// patterns (subnormals, infinities, NaNs) all come from the fuzzer. In
// CI only the seed corpus runs, as a regular test.
func FuzzSIMDDot(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, false)
	f.Add(make([]byte, 8*33), true)
	f.Add([]byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}, false)
	// 2191 bytes: 273 values and m = 1 + 2191%32 = 16, so the batched
	// entry sees a K=16 user row with 16 rows behind it.
	f.Add(bytes.Repeat([]byte{0x3f, 0xe8, 1, 2, 3, 4, 5, 6, 0xbf, 0xd0, 6, 5, 4, 3, 2, 1}, 137)[:2191], true)
	f.Fuzz(func(t *testing.T, raw []byte, odd bool) {
		if !SIMDAvailable() {
			t.Skip("no AVX2/FMA on this machine")
		}
		old := SIMDEnabled()
		SetSIMD(true)
		defer SetSIMD(old)
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			var bits uint64
			for j := 0; j < 8; j++ {
				bits = bits<<8 | uint64(raw[i*8+j])
			}
			vals[i] = math.Float64frombits(bits)
		}
		// Odd split offsets the second row by one element so the two
		// base pointers land on different 32-byte phases.
		n := len(vals) / 2
		if odd && n > 0 {
			n--
		}
		if n == 0 {
			return
		}
		a, b := vals[:n], vals[len(vals)-n:]
		want := Dot(a, b)
		got := KernelFor(n).Dot(a, b)
		// The batched entry must reproduce the per-row kernel bit for
		// bit (NaN payloads included) on every row width-m rows fit in
		// the input, for the fuzzer's m as well as n.
		for _, m := range []int{n, 1 + len(raw)%32} {
			if m > len(vals)/2 {
				continue
			}
			user, table := vals[:m], vals[m:m+(len(vals)-m)/m*m]
			out := make([]float64, len(table)/m)
			DotRowsKernel[float64](m)(user, table, out)
			for i, v := range out {
				if w := KernelFor(m).Dot(user, table[i*m:(i+1)*m]); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("batched dot row %d width %d: %v (%#x), per-row %v (%#x)",
						i, m, v, math.Float64bits(v), w, math.Float64bits(w))
				}
			}
		}
		if math.IsNaN(want) || math.IsInf(want, 0) {
			if !math.IsNaN(got) && !math.IsInf(got, 0) {
				t.Fatalf("reference %v non-finite, asm %v finite", want, got)
			}
			return
		}
		tol := dotTolerance(a, b) + 16*math.SmallestNonzeroFloat64
		if math.IsInf(tol, 0) {
			return // |products| overflow: no finite bound to check against
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("asm dot %v, reference %v, tol %g (n=%d)", got, want, tol, n)
		}
	})
}

// TestKernelSwitchesAreRaceSafe hammers the dispatch switch from
// concurrent goroutines while readers select kernels — the -race CI
// job turns any non-atomic access here into a failure.
func TestKernelSwitchesAreRaceSafe(t *testing.T) {
	old := SIMDEnabled()
	t.Cleanup(func() { SetSIMD(old) })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(flip bool) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				SetSIMD(flip)
			}
		}(i%2 == 0)
		go func() {
			defer wg.Done()
			a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
			for j := 0; j < 200; j++ {
				_ = KernelFor(8).Dot(a, a)
				_ = SIMDEnabled()
			}
		}()
	}
	wg.Wait()
}

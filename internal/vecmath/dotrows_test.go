package vecmath

import (
	"math"
	"testing"

	"nomad/internal/rng"
)

// dotRowsModes are the two dispatch states the batched kernel must
// agree with the per-row kernel under. Each sets the switch, so the
// table works whatever the environment started the process with.
var dotRowsModes = []struct {
	name string
	simd bool
}{
	{"avx", true},
	{"portable", false}, // what NOMAD_NO_SIMD selects
}

func setDotRowsMode(t *testing.T, simd bool) {
	t.Helper()
	if simd && !SIMDAvailable() {
		t.Skip("no AVX2/FMA on this machine")
	}
	old := SIMDEnabled()
	SetSIMD(simd)
	t.Cleanup(func() { SetSIMD(old) })
}

// dotRowsCounts are the block lengths exercised: one row, the scan's
// block size and its neighbours, and short tail blocks.
var dotRowsCounts = []int{1, 2, 7, 63, 64, 65}

// TestDotRowsBitIdentical pins the batched kernels to the per-row
// kernels bit for bit — the property that lets the serving index batch
// its scan without changing a single response. Rows sit at every
// element offset 0..3 of their backing arrays, so the asm sees all
// 32-byte phases, and some carry subnormals, infinities and NaNs. The
// words on either side of out must survive the call.
func TestDotRowsBitIdentical(t *testing.T) {
	for _, mode := range dotRowsModes {
		t.Run(mode.name, func(t *testing.T) {
			setDotRowsMode(t, mode.simd)
			r := rng.New(51)
			for k := 1; k <= 64; k++ {
				dot, rows := DotKernel(k), DotRowsKernel[float64](k)
				dot32, rows32 := DotKernelOf[float32](k), DotRowsKernel[float32](k)
				for _, n := range dotRowsCounts {
					off := r.Intn(4)
					user := make([]float64, off+k)[off:]
					table := make([]float64, off+n*k)[off:]
					fill(r, user)
					fill(r, table)
					for i := 0; i < 1+n/8; i++ {
						table[r.Intn(len(table))] = special[r.Intn(len(special))]
					}
					const guard = -12345.5
					out := make([]float64, off+n+2)
					for i := range out {
						out[i] = guard
					}
					rows(user, table, out[off+1:off+1+n])
					if out[off] != guard || out[off+1+n] != guard {
						t.Fatalf("k=%d n=%d: batched dot wrote outside out", k, n)
					}
					for i := 0; i < n; i++ {
						want := dot(user, table[i*k:(i+1)*k])
						if got := out[off+1+i]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("k=%d n=%d row %d: batched %v (%#x), per-row %v (%#x)",
								k, n, i, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}

					user32 := make([]float32, off+k)[off:]
					table32 := make([]float32, off+n*k)[off:]
					for i, v := range user {
						user32[i] = float32(v)
					}
					for i, v := range table {
						table32[i] = float32(v)
					}
					out32 := make([]float32, off+n+2)
					for i := range out32 {
						out32[i] = guard
					}
					rows32(user32, table32, out32[off+1:off+1+n])
					if out32[off] != guard || out32[off+1+n] != guard {
						t.Fatalf("k=%d n=%d: batched float32 dot wrote outside out", k, n)
					}
					for i := 0; i < n; i++ {
						want := dot32(user32, table32[i*k:(i+1)*k])
						if got := out32[off+1+i]; math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("k=%d n=%d row %d: batched float32 %v (%#x), per-row %v (%#x)",
								k, n, i, got, math.Float32bits(got), want, math.Float32bits(want))
						}
					}
				}
			}
		})
	}
}

// TestDotRowsEmptyAndMismatch: an empty block is a no-op and a
// rows/out length mismatch panics on every dispatch path instead of
// letting the asm read past the table.
func TestDotRowsEmptyAndMismatch(t *testing.T) {
	for _, mode := range dotRowsModes {
		t.Run(mode.name, func(t *testing.T) {
			setDotRowsMode(t, mode.simd)
			user := make([]float64, 16)
			DotRowsKernel[float64](16)(user, nil, nil)
			DotRowsKernel[float32](16)(make([]float32, 16), nil, nil)
			defer func() {
				if recover() == nil {
					t.Fatal("mismatched rows/out lengths did not panic")
				}
			}()
			DotRowsKernel[float64](16)(user, make([]float64, 31), make([]float64, 2))
		})
	}
}

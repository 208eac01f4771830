package vecmath

import (
	"math"
	"testing"

	"nomad/internal/rng"
)

// dotGatherRanks are the ranks exercised: every width through one past
// the register-resident limit, then wider rows the kernel streams.
var dotGatherRanks = func() []int {
	var ks []int
	for k := 1; k <= 33; k++ {
		ks = append(ks, k)
	}
	return append(ks, 48, 64, 100)
}()

// dotGatherLens are the index-list lengths exercised: empty, one row,
// short lists round the 8-wide boundaries, and a long one.
var dotGatherLens = []int{0, 1, 2, 7, 8, 9, 100}

// gatherIndices draws n row indices into a rows-row table. The list
// names the first and last rows and repeats an index whenever it is
// long enough to.
func gatherIndices(r *rng.Source, n, rows int) []int32 {
	idx := make([]int32, n)
	for x := range idx {
		idx[x] = int32(r.Intn(rows))
	}
	if n > 0 {
		idx[0] = 0
	}
	if n > 1 {
		idx[n-1] = int32(rows - 1)
	}
	if n > 2 {
		idx[n/2] = idx[n/2-1]
	}
	return idx
}

// TestDotGatherBitIdentical pins the gathering kernels to the per-row
// kernels bit for bit under both dispatches, the property that
// lets the evaluator score a user's test items in one call without
// moving a prediction. The user row and the table sit at every element
// offset 0..3 of their backing arrays, some table entries are
// subnormal, infinite or NaN, and the words on either side of out must
// survive the call.
func TestDotGatherBitIdentical(t *testing.T) {
	const rows, guard = 13, -12345.5
	for _, mode := range dotRowsModes {
		t.Run(mode.name, func(t *testing.T) {
			setDotRowsMode(t, mode.simd)
			r := rng.New(52)
			for _, k := range dotGatherRanks {
				dot, gather := DotKernel(k), DotGatherKernel[float64](k)
				dot32, gather32 := DotKernelOf[float32](k), DotGatherKernel[float32](k)
				for _, n := range dotGatherLens {
					off := r.Intn(4)
					user := make([]float64, off+k)[off:]
					table := make([]float64, off+rows*k)[off:]
					fill(r, user)
					fill(r, table)
					for i := 0; i < rows/4; i++ {
						table[r.Intn(len(table))] = special[r.Intn(len(special))]
					}
					idx := gatherIndices(r, n, rows)

					out := make([]float64, off+n+2)
					for i := range out {
						out[i] = guard
					}
					gather(user, table, idx, out[off+1:off+1+n])
					if out[off] != guard || out[off+1+n] != guard {
						t.Fatalf("k=%d n=%d: gathered dot wrote outside out", k, n)
					}
					for x, i := range idx {
						want := dot(user, table[int(i)*k:(int(i)+1)*k])
						if got := out[off+1+x]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("k=%d n=%d entry %d (row %d): gathered %v (%#x), per-row %v (%#x)",
								k, n, x, i, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}

					user32 := make([]float32, off+k)[off:]
					table32 := make([]float32, off+rows*k)[off:]
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
					gather32(user32, table32, idx, out32[off+1:off+1+n])
					if out32[off] != guard || out32[off+1+n] != guard {
						t.Fatalf("k=%d n=%d: gathered float32 dot wrote outside out", k, n)
					}
					for x, i := range idx {
						want := dot32(user32, table32[int(i)*k:(int(i)+1)*k])
						if got := out32[off+1+x]; math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("k=%d n=%d entry %d (row %d): gathered float32 %v (%#x), per-row %v (%#x)",
								k, n, x, i, got, math.Float32bits(got), want, math.Float32bits(want))
						}
					}
				}
			}
		})
	}
}

// TestDotGatherRejectsBadIndices: an index outside the table, one that
// names a row the table holds only part of, any index into a table
// shorter than one row, or an idx/out length mismatch panics on every
// dispatch path — on the register-resident and the streaming widths
// alike — instead of letting the asm read past the table.
func TestDotGatherRejectsBadIndices(t *testing.T) {
	for _, mode := range dotRowsModes {
		t.Run(mode.name, func(t *testing.T) {
			setDotRowsMode(t, mode.simd)
			for _, k := range []int{5, 16, 48} {
				for _, c := range []struct {
					name    string
					idx     []int32
					out     int
					entries int // table length
				}{
					{"negative", []int32{0, -1}, 2, 3*k + k/2},
					{"past the end", []int32{3}, 1, 3*k + k/2},
					{"partial last row", []int32{2, 3}, 2, 3*k + k/2},
					{"table shorter than a row", []int32{0}, 1, k - 1},
					{"length mismatch", []int32{0, 1}, 1, 3 * k},
				} {
					for _, prec := range []string{"f64", "f32"} {
						func() {
							defer func() {
								if recover() == nil {
									t.Errorf("k=%d %s %s: no panic", k, prec, c.name)
								}
							}()
							if prec == "f64" {
								DotGatherKernel[float64](k)(make([]float64, k), make([]float64, c.entries), c.idx, make([]float64, c.out))
							} else {
								DotGatherKernel[float32](k)(make([]float32, k), make([]float32, c.entries), c.idx, make([]float32, c.out))
							}
						}()
					}
				}
			}
		})
	}
}

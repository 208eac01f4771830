package vecmath

// Batched inner products for scan-shaped callers (the serving index):
// one call scores a whole block of contiguous rows against one user
// row, hoisting the per-row dispatch, slice header and call overhead
// out of the scan the way ItemPass does for training.
//
// Every score is bit-identical to DotKernel(k) / DotKernel32(k) on the
// same row under the same dispatch switches: the assembly path
// reproduces DOT64/DOT32's accumulator assignment and reduction order,
// and the portable and reference paths loop the per-row kernel itself.

// DotRowsFunc computes out[r] = ⟨user, rows[r·k:(r+1)·k]⟩ for every r,
// with k = len(user). It panics unless len(rows) == len(out)·len(user).
type DotRowsFunc func(user, rows, out []float64)

// DotRowsFunc32 is the float32 twin of DotRowsFunc; accumulation is
// float32, as in DotFunc32.
type DotRowsFunc32 func(user, rows, out []float32)

// DotRowsKernel returns the batched inner-product kernel for rank k,
// dispatched like KernelFor: AVX2/FMA assembly when allowed, otherwise
// a loop over the per-row kernel DotKernel(k) selects.
func DotRowsKernel(k int) DotRowsFunc {
	if !referenceOnly.Load() && simdOn.Load() {
		if rows, ok := simdDotRows(k); ok {
			return rows
		}
	}
	dot := DotKernel(k)
	return func(user, rows, out []float64) { dotRowsEach(dot, user, rows, out) }
}

// DotRowsKernel32 is the float32 twin of DotRowsKernel.
func DotRowsKernel32(k int) DotRowsFunc32 {
	if !referenceOnly.Load() && simdOn.Load() {
		if rows, ok := simdDotRows32(k); ok {
			return rows
		}
	}
	dot := DotKernel32(k)
	return func(user, rows, out []float32) { dotRowsEach32(dot, user, rows, out) }
}

// dotRowsEach scores the block one row at a time with dot.
//
//nomad:noalloc
func dotRowsEach(dot DotFunc, user, rows, out []float64) {
	k := len(user)
	if len(rows) != len(out)*k {
		panic("vecmath: DotRows length mismatch")
	}
	for r := range out {
		out[r] = dot(user, rows[r*k:(r+1)*k])
	}
}

//nomad:noalloc
func dotRowsEach32(dot DotFunc32, user, rows, out []float32) {
	k := len(user)
	if len(rows) != len(out)*k {
		panic("vecmath: DotRows length mismatch")
	}
	for r := range out {
		out[r] = dot(user, rows[r*k:(r+1)*k])
	}
}

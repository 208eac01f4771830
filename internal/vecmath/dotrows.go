package vecmath

// Batched inner products: one call scores many rows against one user
// row, hoisting the per-row dispatch, slice header and call overhead
// out of the loop the way ItemPass does for training. DotRows scores a
// block of contiguous rows (the serving scan); DotGather scores rows
// picked from a table by index (the test-split evaluator).
//
// Every score is bit-identical to DotKernel(k) / DotKernel32(k) on the
// same row under the same dispatch: the assembly path
// reproduces DOT64/DOT32's accumulator assignment and reduction order,
// and the portable path loops the per-row kernel itself.

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
	if simdOn.Load() {
		if rows, ok := simdDotRows(k); ok {
			return rows
		}
	}
	dot := DotKernel(k)
	return func(user, rows, out []float64) { dotRowsEach(dot, user, rows, out) }
}

// DotRowsKernel32 is the float32 twin of DotRowsKernel.
func DotRowsKernel32(k int) DotRowsFunc32 {
	if simdOn.Load() {
		if rows, ok := simdDotRows32(k); ok {
			return rows
		}
	}
	dot := DotKernel32(k)
	return func(user, rows, out []float32) { dotRowsEach32(dot, user, rows, out) }
}

// DotGatherFunc computes out[x] = ⟨user, table[idx[x]·k:(idx[x]+1)·k]⟩
// for every x, with k = len(user). It panics unless len(idx) == len(out)
// and every idx[x] names a whole row of table.
type DotGatherFunc func(user, table []float64, idx []int32, out []float64)

// DotGatherFunc32 is the float32 twin of DotGatherFunc.
type DotGatherFunc32 func(user, table []float32, idx []int32, out []float32)

// DotGatherKernel returns the gathering twin of DotRowsKernel(k), with
// the same dispatch and the same bit-for-bit contract per row.
func DotGatherKernel(k int) DotGatherFunc {
	if simdOn.Load() {
		if gather, ok := simdDotGather(k); ok {
			return gather
		}
	}
	dot := DotKernel(k)
	return func(user, table []float64, idx []int32, out []float64) { dotGatherEach(dot, user, table, idx, out) }
}

// DotGatherKernel32 is the float32 twin of DotGatherKernel.
func DotGatherKernel32(k int) DotGatherFunc32 {
	if simdOn.Load() {
		if gather, ok := simdDotGather32(k); ok {
			return gather
		}
	}
	dot := DotKernel32(k)
	return func(user, table []float32, idx []int32, out []float32) { dotGatherEach(dot, user, table, idx, out) }
}

// dotGatherEach scores the gathered rows one at a time with dot; the
// slice expression panics on an index that names no whole row.
//
//nomad:noalloc
func dotGatherEach[T float32 | float64](dot func(a, b []T) T, user, table []T, idx []int32, out []T) {
	if len(idx) != len(out) {
		panic("vecmath: DotGather length mismatch")
	}
	k := len(user)
	for x, i := range idx {
		r := int(i) * k
		out[x] = dot(user, table[r:r+k])
	}
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

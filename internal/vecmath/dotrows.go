package vecmath

// Batched inner products: one call scores many rows against one user
// row, hoisting the per-row dispatch, slice header and call overhead
// out of the loop the way ItemPass does for training. DotRows scores a
// block of contiguous rows (the serving scan); DotGather scores rows
// picked from a table by index (the test-split evaluator).
//
// Every score is bit-identical to DotKernelOf[T](k) on the same row
// under the same dispatch: the assembly path reproduces DOT64/DOT32's
// accumulator assignment and reduction order, and the portable path
// loops the per-row kernel itself.

// DotRowsFunc computes out[r] = ⟨user, rows[r·k:(r+1)·k]⟩ for every r,
// with k = len(user), accumulating at T's precision. It panics unless
// len(rows) == len(out)·len(user).
type DotRowsFunc[T Float] func(user, rows, out []T)

// DotRowsKernel returns the batched inner-product kernel for rank k,
// dispatched like KernelOf: AVX2/FMA assembly when allowed, otherwise
// a loop over the per-row kernel DotKernelOf[T](k) selects.
func DotRowsKernel[T Float](k int) DotRowsFunc[T] {
	if s, simd := seamFor[T](k); simd {
		return s.rows
	}
	dot := DotKernelOf[T](k)
	return func(user, rows, out []T) { dotRowsEach(dot, user, rows, out) }
}

// DotGatherFunc computes out[x] = ⟨user, table[idx[x]·k:(idx[x]+1)·k]⟩
// for every x, with k = len(user). It panics unless len(idx) == len(out)
// and every idx[x] names a whole row of table.
type DotGatherFunc[T Float] func(user, table []T, idx []int32, out []T)

// DotGatherKernel returns the gathering twin of DotRowsKernel[T](k),
// with the same dispatch and the same bit-for-bit contract per row.
func DotGatherKernel[T Float](k int) DotGatherFunc[T] {
	if s, simd := seamFor[T](k); simd {
		return s.gather
	}
	dot := DotKernelOf[T](k)
	return func(user, table []T, idx []int32, out []T) { dotGatherEach(dot, user, table, idx, out) }
}

// dotGatherEach scores the gathered rows one at a time with dot; the
// slice expression panics on an index that names no whole row.
//
//nomad:noalloc
func dotGatherEach[T Float](dot DotFunc[T], user, table []T, idx []int32, out []T) {
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
func dotRowsEach[T Float](dot DotFunc[T], user, rows, out []T) {
	k := len(user)
	if len(rows) != len(out)*k {
		panic("vecmath: DotRows length mismatch")
	}
	for r := range out {
		out[r] = dot(user, rows[r*k:(r+1)*k])
	}
}

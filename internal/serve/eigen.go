package serve

import (
	"math"
	"sort"
)

// jacobiMaxSweeps caps the cyclic Jacobi iteration. Convergence is
// quadratic once the off-diagonal mass is small, so a well-formed
// matrix of any rank the project trains settles in under a dozen
// sweeps; the cap only bounds the work on input that never settles.
const jacobiMaxSweeps = 64

// symEigen diagonalizes the symmetric k×k matrix g (row-major; it is
// overwritten) by cyclic Jacobi rotations. It returns the eigenvalues
// in descending order and the matching unit eigenvectors as the rows
// of q (k×k, row-major), so q·g·qᵀ is diagonal to rounding. Equal
// eigenvalues keep the order of their diagonal positions, so the
// result is a pure function of g.
//
// Jacobi is chosen for being short and unconditionally stable: every
// rotation is orthogonal, so q stays orthonormal to rounding however
// clustered the spectrum is, and the O(k³) per sweep is noise at the
// ranks an index is built for.
func symEigen(g []float64, k int) (vals, q []float64) {
	v := make([]float64, k*k) // columns are the eigenvectors
	for i := 0; i < k; i++ {
		v[i*k+i] = 1
	}
	var total float64
	for _, x := range g {
		total += x * x
	}
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		var off float64
		for p := 0; p < k; p++ {
			for r := p + 1; r < k; r++ {
				off += g[p*k+r] * g[p*k+r]
			}
		}
		// Off-diagonal Frobenius norm below 1e-13 of the whole: an
		// order above the fill-in the rotations' own rounding leaves
		// (≈ k·2⁻⁵³ of it), so a converged matrix stops here.
		if off <= 1e-26*total {
			break
		}
		for p := 0; p < k; p++ {
			for r := p + 1; r < k; r++ {
				jacobiRotate(g, v, k, p, r)
			}
		}
	}
	vals = make([]float64, k)
	order := make([]int, k)
	for i := range vals {
		vals[i] = g[i*k+i]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })
	q = make([]float64, k*k)
	sorted := make([]float64, k)
	for row, col := range order {
		sorted[row] = vals[col]
		for i := 0; i < k; i++ {
			q[row*k+i] = v[i*k+col]
		}
	}
	return sorted, q
}

// jacobiRotate applies the plane rotation J(p,r) that zeroes g[p][r]:
// g ← JᵀgJ and v ← vJ. The tangent is the smaller root of
// t² + 2θt − 1 = 0, θ = (g_rr − g_pp)/(2g_pr), which keeps the rotation
// angle at most π/4 — the choice that makes cyclic Jacobi converge.
func jacobiRotate(g, v []float64, k, p, r int) {
	gpr := g[p*k+r]
	if gpr == 0 {
		return
	}
	theta := (g[r*k+r] - g[p*k+p]) / (2 * gpr)
	t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
	if math.IsInf(theta*theta, 1) {
		t = 0.5 / math.Abs(theta)
	}
	if theta < 0 {
		t = -t
	}
	c := 1 / math.Sqrt(t*t+1)
	s := t * c
	for i := 0; i < k; i++ { // columns p and r
		gip, gir := g[i*k+p], g[i*k+r]
		g[i*k+p] = c*gip - s*gir
		g[i*k+r] = s*gip + c*gir
	}
	for i := 0; i < k; i++ { // rows p and r
		gpi, gri := g[p*k+i], g[r*k+i]
		g[p*k+i] = c*gpi - s*gri
		g[r*k+i] = s*gpi + c*gri
	}
	g[p*k+r], g[r*k+p] = 0, 0
	for i := 0; i < k; i++ {
		vip, vir := v[i*k+p], v[i*k+r]
		v[i*k+p] = c*vip - s*vir
		v[i*k+r] = s*vip + c*vir
	}
}

package serve

import (
	"math"

	"nomad/internal/factor"
	"nomad/internal/vecmath"
)

// The spectral block bound. For a unit basis q⁰…q^{d−1} and any w, h,
//
//	⟨w,h⟩ = Σ_{c<d} (qᶜ·w)(qᶜ·h) + ⟨w_tail, h_tail⟩
//	      ≤ Σ_{c<d} max((qᶜ·w)·maxⱼ qᶜ·hⱼ, (qᶜ·w)·minⱼ qᶜ·hⱼ)
//	        + ‖w_tail‖·maxⱼ‖hⱼ,tail‖,
//
// where x_tail is x less its part along the basis, so
// ‖x_tail‖² = ‖x‖² − Σ_{c<d}(qᶜ·x)². The index keeps the maxima and
// minima per scan block (and over the block and every later one); TopN
// projects the user row once and evaluates the right-hand side per
// block — the max for a positive qᶜ·w, the min for a negative one. The
// basis is the top eigenvectors of the rows' Gram matrix, the
// directions along which the rows spread most, so most of a row's mass
// leaves the tail and the bound follows where the user row points —
// unlike ‖w‖·‖h‖, which is blind to it. Rows are never rotated: the
// scores still come from the original rows.

// eigDims is how many eigen-directions of the Gram matrix the
// spectral bound follows; the rest of each row is bounded by its norm.
// The value sits where a measured plateau starts. On the serving
// benchmark's model (300K × K16, top-10) the mean scanned share is
// 0.114 under the norm bound alone, 0.054 at 2 directions, 0.0088 at
// 4, 0.0065 at 6 and 0.0062 at 8 or 16, while each direction adds one
// batched dot per row to the build. The sweep is in EXPERIMENTS.md
// "Where a scan stops".
const eigDims = 6

// eigStride is one block's entry in a bound table: maxⱼ qᶜ·hⱼ for
// c < eigDims, then maxⱼ −qᶜ·hⱼ (minus the minimum) for c < eigDims,
// then maxⱼ‖hⱼ,tail‖. Directions past the index's ed stay zero.
const eigStride = 2*eigDims + 1

// gramSample caps the rows the Gram matrix is estimated from, evenly
// strided over the norm order. The eigenbasis only sets how tight the
// bound is, never whether it holds, so an estimate serves as well as
// the exact matrix: on the serving benchmark's model, estimates from
// 1,024, 4,096 and 16,384 rows give a mean scanned share of 0.00654,
// 0.00650 and 0.00647, and 4,096 rows cost a quarter of the ≈ 6 ms
// that 16,384 rows cost the build.
const gramSample = 4096

// eigMaxK is the largest rank the spectral bound is built for: Jacobi
// costs O(k³) per sweep and the Gram estimate O(gramSample·k²), noise
// up to here. A wider index keeps the norm bound alone.
const eigMaxK = 128

// boundBuilder fills an index's spectral bound tables one scan block at
// a time, while BuildIndex has the block in cache. A nil builder (the
// bound is off) does nothing.
type boundBuilder struct {
	ix  *Index
	dot vecmath.DotRowsFunc[float64]
	buf []float64 // one block widened to float64 (float32 indexes)
}

// newBoundBuilder picks the basis from md's rows in the index's (already
// sorted) item order and allocates the tables. It returns nil, leaving
// the bound off, for an empty index, a rank above eigMaxK or a
// non-finite Gram estimate.
func (ix *Index) newBoundBuilder(md *factor.Model) *boundBuilder {
	n, k := len(ix.items), ix.k
	if n == 0 || k > eigMaxK {
		return nil
	}
	g := gram(md, ix.items)
	for _, v := range g {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
	}
	_, q := symEigen(g, k)
	ix.ed = min(eigDims, k)
	ix.basis = q[:ix.ed*k]
	// Rounding the bound must absorb, relative to ‖w‖·‖h‖: the user's
	// and the row's tail norms each come from a cancelling subtraction
	// whose error is ≲ 4k·u·‖x‖² before the square root, so ≲ 2√(k·u)
	// after (u = 2⁻⁵³); a float32 kernel's accumulation adds up to
	// k·2⁻²⁴ to a score. eps is twice the sum.
	ix.eps = 8 * math.Sqrt(float64(k)*0x1p-53)
	if ix.prec == factor.Float32 {
		ix.eps += 2 * float64(k) * 0x1p-24
	}
	blocks := (n + scanBlock - 1) / scanBlock
	ix.blockMax = make([]float64, blocks*eigStride)
	ix.suffixMax = make([]float64, blocks*eigStride)
	bb := &boundBuilder{ix: ix, dot: vecmath.DotRowsKernel[float64](k)}
	if ix.prec == factor.Float32 {
		bb.buf = make([]float64, scanBlock*k)
	}
	return bb
}

// gram estimates Σⱼ hⱼhⱼᵀ (k×k, row-major) from at most gramSample of
// the items' rows, evenly strided over items.
func gram(md *factor.Model, items []int32) []float64 {
	k, n := md.K, len(items)
	s := min(n, gramSample)
	g := make([]float64, k*k)
	h := make([]float64, k)
	for r := 0; r < s; r++ {
		j := int(items[r*n/s])
		if md.Precision() == factor.Float32 {
			for c, v := range md.ItemRow32(j) {
				h[c] = float64(v)
			}
		} else {
			copy(h, md.ItemRow(j))
		}
		for a, ha := range h {
			ga := g[a*k : (a+1)*k]
			for b := a; b < k; b++ {
				ga[b] += ha * h[b]
			}
		}
	}
	for a := 0; a < k; a++ {
		for b := 0; b < a; b++ {
			g[a*k+b] = g[b*k+a]
		}
	}
	return g
}

// block fills the block-bound entry of rows [lo,hi), which must
// already be copied into the index. A NaN anywhere in the block — a
// non-finite row — makes every entry +Inf, so the block is never
// skipped.
func (bb *boundBuilder) block(lo, hi int) {
	if bb == nil {
		return
	}
	ix, k := bb.ix, bb.ix.k
	var rows []float64
	if ix.prec == factor.Float32 {
		rows = bb.buf[:(hi-lo)*k]
		for i, v := range ix.vec32[lo*k : hi*k] {
			rows[i] = float64(v)
		}
	} else {
		rows = ix.vec64[lo*k : hi*k]
	}
	t := ix.blockMax[lo/scanBlock*eigStride:][:eigStride]
	var proj, sq [scanBlock]float64
	var seen float64 // sum of non-negative terms: NaN iff one was
	for c := 0; c < ix.ed; c++ {
		p := proj[:hi-lo]
		bb.dot(ix.basis[c*k:(c+1)*k], rows, p)
		top, bottom := p[0], p[0]
		for r, v := range p {
			sq[r] += v * v
			if v > top {
				top = v
			}
			if v < bottom {
				bottom = v
			}
			seen += math.Abs(v)
		}
		t[c], t[eigDims+c] = top, -bottom
	}
	tail := 0.0
	for r, s := range sq[:hi-lo] {
		norm := ix.norms[lo+r]
		seen += norm
		if d := norm*norm - s; d > 0 {
			tail = max(tail, math.Sqrt(d))
		}
	}
	t[2*eigDims] = tail
	if math.IsNaN(seen) {
		for c := range t {
			t[c] = math.Inf(1)
		}
	}
}

// finish fills the suffix maxima once every block entry is in.
func (bb *boundBuilder) finish() {
	if bb == nil {
		return
	}
	ix := bb.ix
	last := (len(ix.items) - 1) / scanBlock * eigStride
	copy(ix.suffixMax[last:], ix.blockMax[last:])
	for lo := last - eigStride; lo >= 0; lo -= eigStride {
		suf, next := ix.suffixMax[lo:lo+eigStride], ix.suffixMax[lo+eigStride:]
		for c, v := range ix.blockMax[lo : lo+eigStride] {
			suf[c] = max(v, next[c])
		}
	}
}

// project returns the user row's side of the spectral bound, laid out
// against a table entry: max(qᶜ·w, 0) for c < ed, then max(−qᶜ·w, 0),
// then ‖w_tail‖ = √(‖w‖² − Σ(qᶜ·w)²). A NaN in the row leaves NaN in
// the result, and so in every bound.
func (ix *Index) project(user64 []float64, user32 []float32, unorm float64) [eigStride]float64 {
	var p [eigStride]float64
	var sq float64
	k := ix.k
	for c := 0; c < ix.ed; c++ {
		q := ix.basis[c*k : (c+1)*k]
		var s float64
		if ix.prec == factor.Float32 {
			for i, v := range user32[:k] {
				s += q[i] * float64(v)
			}
		} else {
			for i, v := range user64[:k] {
				s += q[i] * v
			}
		}
		p[c], p[eigDims+c] = max(s, 0), max(-s, 0)
		sq += s * s
	}
	p[2*eigDims] = math.Sqrt(max(0, unorm*unorm-sq))
	return p
}

// spectralBound is Σ_c p[c]·t[c], the user's projections against one
// bound-table entry, inflated for rounding: by the relative slack on
// its magnitude — unlike the norm bound it can be negative, and a
// negative bound times 1+slack would shrink — and by abs, eps·‖w‖·‖h‖
// of the block's largest row. Four partial sums keep the adds off one
// dependency chain; the reordering is rounding the slack absorbs.
func (ix *Index) spectralBound(p *[eigStride]float64, t []float64, abs float64) float64 {
	t = t[:eigStride]
	var s0, s1, s2, s3 float64
	c := 0
	for ; c+4 <= eigStride; c += 4 {
		s0 += p[c] * t[c]
		s1 += p[c+1] * t[c+1]
		s2 += p[c+2] * t[c+2]
		s3 += p[c+3] * t[c+3]
	}
	for ; c < eigStride; c++ {
		s0 += p[c] * t[c]
	}
	b := (s0 + s1) + (s2 + s3)
	return b + math.Abs(b)*(ix.slack-1) + abs
}

package serve

// Checks of the spectral block bound: the Jacobi eigensolver it is
// built from, the index order it relies on, and the scan it prunes,
// on model shapes where direction does and does not matter.

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nomad/internal/factor"
	"nomad/internal/topn"
)

// checkEigen asserts what symEigen promises for the symmetric k×k g:
// orthonormal rows of q, q·g·qᵀ diagonal, eigenvalues descending and
// equal to that diagonal, and a result that is a pure function of g.
func checkEigen(t *testing.T, g []float64, k int) {
	t.Helper()
	vals, q := symEigen(slices.Clone(g), k)
	vals2, q2 := symEigen(slices.Clone(g), k)
	if !slices.Equal(vals, vals2) || !slices.Equal(q, q2) {
		t.Fatalf("k=%d: two runs differ", k)
	}
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			var dot float64
			for i := 0; i < k; i++ {
				dot += q[a*k+i] * q[b*k+i]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-12 {
				t.Fatalf("k=%d: q row %d·row %d = %v, want %v", k, a, b, dot, want)
			}
		}
	}
	var norm float64
	for _, v := range g {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	for a := 0; a < k; a++ {
		if a > 0 && vals[a] > vals[a-1] {
			t.Fatalf("k=%d: eigenvalues not descending at %d: %v > %v", k, a, vals[a], vals[a-1])
		}
		for b := 0; b < k; b++ {
			var d float64 // (q·g·qᵀ)[a][b]
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					d += q[a*k+i] * g[i*k+j] * q[b*k+j]
				}
			}
			want := 0.0
			if a == b {
				want = vals[a]
			}
			if math.Abs(d-want) > 1e-10*norm {
				t.Fatalf("k=%d: (q·g·qᵀ)[%d][%d] = %v, want %v (‖g‖ %v)", k, a, b, d, want, norm)
			}
		}
	}
}

func TestSymEigen(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	random := func(k int) []float64 {
		g := make([]float64, k*k)
		for a := 0; a < k; a++ {
			for b := a; b < k; b++ {
				g[a*k+b] = r.NormFloat64()
				g[b*k+a] = g[a*k+b]
			}
		}
		return g
	}
	for _, k := range []int{1, 2, 3, 16, 50} {
		checkEigen(t, random(k), k)
	}
	t.Run("diagonal", func(t *testing.T) {
		const k = 7
		g := make([]float64, k*k)
		for i := 0; i < k; i++ {
			g[i*k+i] = float64((i*3)%k) - 2
		}
		checkEigen(t, g, k)
		vals, _ := symEigen(slices.Clone(g), k)
		if vals[0] != 4 || vals[k-1] != -2 {
			t.Fatalf("eigenvalues %v, want the diagonal sorted descending", vals)
		}
	})
	t.Run("repeated", func(t *testing.T) {
		// Q·diag(3,3,3,1,1,0)·Qᵀ for a random orthonormal Q.
		const k = 6
		diag := []float64{3, 3, 3, 1, 1, 0}
		q := randomOrthonormal(rand.New(rand.NewSource(8)), k)
		g := make([]float64, k*k)
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				for c := 0; c < k; c++ {
					g[a*k+b] += q[c*k+a] * diag[c] * q[c*k+b]
				}
			}
		}
		checkEigen(t, g, k)
		vals, _ := symEigen(slices.Clone(g), k)
		for i, want := range diag {
			if math.Abs(vals[i]-want) > 1e-12 {
				t.Fatalf("eigenvalues %v, want %v", vals, diag)
			}
		}
	})
	t.Run("zero", func(t *testing.T) {
		const k = 5
		checkEigen(t, make([]float64, k*k), k)
	})
}

// randomOrthonormal returns a seeded random orthonormal k×k matrix
// (rows), by Gram–Schmidt on Gaussian rows.
func randomOrthonormal(r *rand.Rand, k int) []float64 {
	q := make([]float64, k*k)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	for a := 0; a < k; a++ {
		ra := q[a*k : (a+1)*k]
		for b := 0; b < a; b++ {
			rb := q[b*k : (b+1)*k]
			var d float64
			for i := range ra {
				d += ra[i] * rb[i]
			}
			for i := range ra {
				ra[i] -= d * rb[i]
			}
		}
		var n float64
		for _, v := range ra {
			n += v * v
		}
		n = math.Sqrt(n)
		for i := range ra {
			ra[i] /= n
		}
	}
	return q
}

// decayModel is the serving benchmark's model shape at float64: user
// coordinate c scaled by 0.95^c, item coordinate c by 0.4^c and each
// item row by a log-normal(σ=0.4) popularity. Its Gram matrix is
// nearly diagonal with a steeply falling spectrum.
func decayModel(r *rand.Rand, users, items, k int) *factor.Model {
	md := factor.NewP(users, items, k, factor.Float64)
	sd := 1 / math.Sqrt(float64(k))
	for u := 0; u < users; u++ {
		scale := sd
		for c := range md.UserRow(u) {
			md.UserRow(u)[c] = scale * r.NormFloat64()
			scale *= 0.95
		}
	}
	for j := 0; j < items; j++ {
		pop := math.Exp(0.4 * r.NormFloat64())
		for c := range md.ItemRow(j) {
			md.ItemRow(j)[c] = sd * pop * r.NormFloat64()
			pop *= 0.4
		}
	}
	return md
}

// rotateModel applies the orthonormal k×k q (rows) to every user and
// item row of md in place: every score is kept (to rounding), but no
// coordinate axis lines up with the spectrum any more.
func rotateModel(md *factor.Model, q []float64) {
	k := md.K
	tmp := make([]float64, k)
	rotate := func(row []float64) {
		for a := range tmp {
			var s float64
			for i, v := range row {
				s += q[a*k+i] * v
			}
			tmp[a] = s
		}
		copy(row, tmp)
	}
	for u := 0; u < md.M; u++ {
		rotate(md.UserRow(u))
	}
	for j := 0; j < md.N; j++ {
		rotate(md.ItemRow(j))
	}
}

// isotropicModel has Gaussian user and item rows with equal variance
// along every direction: no direction to follow.
func isotropicModel(r *rand.Rand, users, items, k int) *factor.Model {
	md := factor.NewP(users, items, k, factor.Float64)
	for u := 0; u < users; u++ {
		for c := range md.UserRow(u) {
			md.UserRow(u)[c] = r.NormFloat64()
		}
	}
	for j := 0; j < items; j++ {
		for c := range md.ItemRow(j) {
			md.ItemRow(j)[c] = r.NormFloat64()
		}
	}
	return md
}

// normOnlyScanned replays the scan Index.TopN ran before the spectral
// bound over one user's precomputed Model.Predict scores (by item):
// blocks in index order, stop once the heap is full and the block's
// first norm bound is below its worst score. It returns how many rows
// that scan scored.
func normOnlyScanned(ix *Index, scores []float64, unorm float64, n int, isRated map[int32]bool) int {
	h := topn.NewHeap(n)
	for lo := 0; lo < ix.Len(); lo += scanBlock {
		if worst, ok := h.Worst(); ok && h.Full() && unorm*ix.norms[lo]*ix.slack < worst.Score {
			return lo
		}
		for _, j := range ix.items[lo:min(lo+scanBlock, ix.Len())] {
			if !isRated[j] {
				h.Offer(topn.Rec{Item: j, Score: scores[j]})
			}
		}
	}
	return ix.Len()
}

// TestSpectralBoundOracle runs every query on three model shapes
// against the brute-force oracle and against a replay of the norm-only
// scan. Where the rows' spectrum falls off — the benchmark's
// axis-aligned shape and the same model rotated — the spectral bound
// must score at most a quarter of what the norm bound scored; on an
// isotropic model it has nothing to follow and must score no more.
func TestSpectralBoundOracle(t *testing.T) {
	const items, k, n = 50000, 16, 10
	users := 256
	if raceDetector {
		users = 32 // one goroutine: -race adds nothing but an 8× run time
	}
	decay := decayModel(rand.New(rand.NewSource(21)), users, items, k)
	rotated := decay.Clone()
	rotateModel(rotated, randomOrthonormal(rand.New(rand.NewSource(22)), k))
	shapes := []struct {
		name     string
		md       *factor.Model
		maxShare float64 // of the norm-only replay's rows
	}{
		{"decay", decay, 0.25},
		{"rotated", rotated, 0.25},
		{"isotropic", isotropicModel(rand.New(rand.NewSource(23)), users, items, k), 1},
	}
	rated := heavyTailRated(users, items)
	scores := make([]float64, items)
	for _, sh := range shapes {
		for _, prec := range []factor.Precision{factor.Float64, factor.Float32} {
			md := sh.md.Convert(prec)
			ix := BuildIndex(md, nil)
			if ix.ed != eigDims {
				t.Fatalf("%s/%v: spectral bound off (ed %d)", sh.name, prec, ix.ed)
			}
			var scanned, replay [2]int // without, with exclusions
			for user := 0; user < users; user++ {
				for j := range scores {
					scores[j] = md.Predict(user, j)
				}
				for i, rt := range [][]int32{nil, rated[user]} {
					isRated := ratedSet(rt)
					want := topn.NewHeap(n)
					for j, score := range scores {
						if !isRated[int32(j)] {
							want.Offer(topn.Rec{Item: int32(j), Score: score})
						}
					}
					got, st := indexQuery(ix, md, user, n, rt)
					sameRecs(t, got, want.Sorted())
					if st.Scanned+st.Pruned != ix.Len() {
						t.Fatalf("scanned %d + pruned %d != len %d", st.Scanned, st.Pruned, ix.Len())
					}
					scanned[i] += st.Scanned
					replay[i] += normOnlyScanned(ix, scores, md.UserNorm(user), n, isRated)
				}
			}
			for i := range scanned {
				t.Logf("%s/%v rated=%v: scored %.4f of the table, norm-only replay %.4f", sh.name, prec, i == 1,
					float64(scanned[i])/float64(users*items), float64(replay[i])/float64(users*items))
				if float64(scanned[i]) > sh.maxShare*float64(replay[i]) {
					t.Errorf("%s/%v rated=%v: scored %d rows, norm-only replay %d: over %.2f of it",
						sh.name, prec, i == 1, scanned[i], replay[i], sh.maxShare)
				}
			}
		}
	}
}

// TestIndexNormOrder pins the radix-sorted index order to a plain
// comparison sort: descending norm, ties by ascending item id, over
// owned lists in any order and with many exact norm ties.
func TestIndexNormOrder(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const items, k = 3000, 4
	md := factor.NewP(1, items, k, factor.Float64)
	for j := 0; j < items; j++ {
		v := float64(r.Intn(40)) / 8 // few distinct norms: exact ties
		if j%5 == 0 {
			v = r.ExpFloat64()
		}
		md.ItemRow(j)[j%k] = v
	}
	for _, owned := range [][]int32{nil, {}, {7}, toInt32(r.Perm(items)[:1700]), toInt32(r.Perm(items))} {
		ix := BuildIndex(md, owned)
		want := owned
		if owned == nil {
			want = toInt32(r.Perm(items))
		}
		want = slices.Clone(want)
		sort.Slice(want, func(a, b int) bool {
			na, nb := md.ItemNorm(int(want[a])), md.ItemNorm(int(want[b]))
			if na != nb {
				return na > nb
			}
			return want[a] < want[b]
		})
		if !slices.Equal(ix.items, want) {
			t.Fatalf("owned %d items: index order differs from the comparison sort", len(want))
		}
		for i, j := range ix.items {
			if ix.norms[i] != md.ItemNorm(int(j)) {
				t.Fatalf("norm %d of item %d: %v, want %v", i, j, ix.norms[i], md.ItemNorm(int(j)))
			}
		}
	}
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

package serve

import (
	"math"
	"sort"
	"sync"

	"nomad/internal/factor"
	"nomad/internal/topn"
	"nomad/internal/vecmath"
)

// Index is the candidate pre-filter over (a shard of) the item
// factors: item vectors copied into norm-descending contiguous
// storage, so a top-N scan reads memory sequentially and can stop
// early on the Cauchy–Schwarz bound |⟨w_u,hⱼ⟩| ≤ ‖w_u‖·‖hⱼ‖.
//
// The early exit is admissible: the scan only stops once no remaining
// item can displace the heap's current worst (strictly below the
// threshold, so equal-score/lower-index ties keep scanning), which
// makes the pruned result identical to a full scan — the property the
// equivalence tests and the CI equality gate assert. Scores come from
// the batched form of the rank-dispatched vecmath kernels, bit for bit
// what Model.Predict computes at the same precision, so neither
// pruning nor batching changes anything downstream.
//
// Floating-point slack: the computed dot may exceed the computed norm
// product by a few ulps of accumulated rounding, so the bound is
// inflated by a relative slack (larger for float32) before comparing.
type Index struct {
	k     int
	prec  factor.Precision
	items []int32   // owned items in descending-norm order
	norms []float64 // ‖hⱼ‖ in items order, accumulated in float64
	vec64 []float64 // len(items)×k contiguous rows, items order
	vec32 []float32
	dot64 vecmath.DotRowsFunc
	dot32 vecmath.DotRowsFunc32
	slack float64
}

// indexSlack64 and indexSlack32 bound the relative rounding gap
// between a dot product and its norm-product upper bound: ~k ulps of
// the accumulation precision, with two orders of magnitude of margin.
const (
	indexSlack64 = 1 + 1e-12
	indexSlack32 = 1 + 1e-4
)

// BuildIndex copies the owned item rows of md (nil owned = every
// item) into a fresh scan-ordered index. The index is self-contained:
// it does not alias model storage, so an epoch's index stays valid
// whatever happens to the model it came from.
func BuildIndex(md *factor.Model, owned []int32) *Index {
	n := md.N
	if owned == nil {
		owned = make([]int32, n)
		for j := range owned {
			owned[j] = int32(j)
		}
	}
	ix := &Index{
		k:     md.K,
		prec:  md.Precision(),
		items: append([]int32(nil), owned...),
		norms: make([]float64, len(owned)),
		slack: indexSlack64,
	}
	for i, j := range ix.items {
		ix.norms[i] = md.ItemNorm(int(j))
	}
	// Descending norm; ties by ascending item id for determinism.
	sort.Sort(byNormDesc{ix})
	if ix.prec == factor.Float32 {
		ix.slack = indexSlack32
		ix.dot32 = vecmath.DotRowsKernel32(ix.k)
		ix.vec32 = make([]float32, len(ix.items)*ix.k)
		for i, j := range ix.items {
			copy(ix.vec32[i*ix.k:(i+1)*ix.k], md.ItemRow32(int(j)))
		}
		return ix
	}
	ix.dot64 = vecmath.DotRowsKernel(ix.k)
	ix.vec64 = make([]float64, len(ix.items)*ix.k)
	for i, j := range ix.items {
		copy(ix.vec64[i*ix.k:(i+1)*ix.k], md.ItemRow(int(j)))
	}
	return ix
}

type byNormDesc struct{ ix *Index }

func (s byNormDesc) Len() int { return len(s.ix.items) }
func (s byNormDesc) Less(a, b int) bool {
	if s.ix.norms[a] != s.ix.norms[b] {
		return s.ix.norms[a] > s.ix.norms[b]
	}
	return s.ix.items[a] < s.ix.items[b]
}
func (s byNormDesc) Swap(a, b int) {
	s.ix.items[a], s.ix.items[b] = s.ix.items[b], s.ix.items[a]
	s.ix.norms[a], s.ix.norms[b] = s.ix.norms[b], s.ix.norms[a]
}

// Len returns the number of indexed items.
func (ix *Index) Len() int { return len(ix.items) }

// K returns the latent rank the index was built at.
func (ix *Index) K() int { return ix.k }

// Precision returns the element precision of the indexed vectors.
func (ix *Index) Precision() factor.Precision { return ix.prec }

// ScanStats reports how far one top-N scan went; Scanned + Pruned ==
// Len() for every query.
type ScanStats struct {
	// Scanned is the number of rows scored, excluded (rated) ones
	// included: exclusion is looked up only after a score passes the
	// heap threshold.
	Scanned int
	// Pruned is the number of rows the norm bound skipped unscored.
	Pruned int
}

// norm64 is the float64-accumulated Euclidean norm of row — the same
// accumulation Model.UserNorm uses, so a gateway-side bound computed
// from a wire row agrees with the model-side one.
func norm64(row []float64) float64 {
	var s float64
	for _, v := range row {
		s += v * v
	}
	return math.Sqrt(s)
}

// ratedContains reports whether item is in the ascending-sorted rated
// list (the training-set exclusion).
func ratedContains(rated []int32, item int32) bool {
	lo, hi := 0, len(rated)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rated[mid] < item {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(rated) && rated[lo] == item
}

// scanBlock is the number of rows the scan bounds, scores and filters
// at a time: large enough to amortize the bound test and the kernel
// call, small enough that scoring past the exact cut (at most
// scanBlock−1 rows) stays noise next to a typical scan.
const scanBlock = 64

// scanScratch is one scan's block of scores. The kernels are reached
// through function values, so a stack array would escape; queries
// borrow one from scratchPool instead.
type scanScratch struct {
	s64 [scanBlock]float64
	s32 [scanBlock]float32
}

var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// TopN streams the indexed items into h, excluding the
// ascending-sorted rated list, stopping early once the norm bound
// proves no remaining item can enter. user64/user32 is the query
// user's factor row at the index's precision; unorm is its Euclidean
// norm. The result in h is identical to an unpruned full scan.
//
// The table is walked in blocks of scanBlock rows, cheapest check
// first: one norm-bound test per block (against the block's first,
// largest norm), one batched kernel call scoring the whole block, a
// plain compare of each score with the cached heap threshold, and only
// for the rows that pass it the exclusion lookup and the heap offer.
// The compare is Heap.Offer's own rejection predicate, so filtering by
// it before the exclusion lookup drops exactly the rows Offer would
// have dropped after it.
//
//nomad:noalloc
func (ix *Index) TopN(user64 []float64, user32 []float32, unorm float64, rated []int32, h *topn.Heap) ScanStats {
	var st ScanStats
	k, n := ix.k, len(ix.items)
	sc := scratchPool.Get().(*scanScratch)
	defer scratchPool.Put(sc)
	worst, _ := h.Worst()
	full := h.Full()
	for lo := 0; lo < n; lo += scanBlock {
		if full && unorm*ix.norms[lo]*ix.slack < worst.Score {
			st.Pruned = n - lo
			break
		}
		hi := min(lo+scanBlock, n)
		scores := sc.s64[:hi-lo]
		if ix.prec == factor.Float32 {
			s32 := sc.s32[:hi-lo]
			ix.dot32(user32, ix.vec32[lo*k:hi*k], s32)
			for r, v := range s32 {
				scores[r] = float64(v)
			}
		} else {
			ix.dot64(user64, ix.vec64[lo*k:hi*k], scores)
		}
		st.Scanned += hi - lo
		items := ix.items[lo:hi]
		for r, score := range scores {
			rec := topn.Rec{Item: items[r], Score: score}
			if full && topn.Worse(rec, worst) {
				continue
			}
			if ratedContains(rated, rec.Item) {
				continue
			}
			h.Offer(rec)
			worst, _ = h.Worst()
			full = h.Full()
		}
	}
	return st
}

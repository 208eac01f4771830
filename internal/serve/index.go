package serve

import (
	"math"
	"slices"
	"sync"

	"nomad/internal/factor"
	"nomad/internal/topn"
	"nomad/internal/vecmath"
)

// Index is the candidate pre-filter over (a shard of) the item
// factors: item vectors copied into norm-descending contiguous
// storage, so a top-N scan reads memory sequentially and can stop
// early on a score upper bound. Two bounds are kept: the Cauchy–Schwarz
// bound |⟨w_u,hⱼ⟩| ≤ ‖w_u‖·‖hⱼ‖, which needs only the norm order, and
// a spectral block bound that follows the user row's direction
// (bound.go).
//
// The early exit is admissible: a block is skipped, and the scan
// stops, only once no row left out can displace the heap's current
// worst (strictly below the threshold, so equal-score/lower-index ties
// keep scanning), which makes the pruned result identical to a full
// scan — the property the equivalence tests and the CI equality gate
// assert. Every row that may enter the heap is scored by the batched
// form of the rank-dispatched vecmath kernels on the original rows,
// bit for bit what Model.Predict computes at the same precision, so
// neither pruning nor batching changes anything downstream.
//
// Floating-point slack: the computed dot may exceed the computed bound
// by accumulated rounding, so each bound is inflated by a relative
// slack on its magnitude (larger for float32), and the spectral one
// also by an absolute eps·‖w‖·‖h‖, before comparing.
type Index struct {
	k     int
	prec  factor.Precision
	items []int32   // owned items in descending-norm order
	norms []float64 // ‖hⱼ‖ in items order, accumulated in float64
	vec64 []float64 // len(items)×k contiguous rows, items order
	vec32 []float32
	dot64 vecmath.DotRowsFunc[float64]
	dot32 vecmath.DotRowsFunc[float32]
	slack float64

	// The spectral block bound (bound.go); ed == 0 switches it off.
	// basis holds the top ed eigen-directions qᶜ of the rows' Gram
	// matrix (ed×k, row-major). blockMax holds eigStride entries per
	// scan block: the extremes of qᶜ·hⱼ and of the tail norm over the
	// block's rows; suffixMax the same over the block and every later
	// one.
	ed        int
	basis     []float64
	blockMax  []float64
	suffixMax []float64
	eps       float64
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
//
// The rows are copied one scan block at a time, and each block's
// spectral bound entry is computed while the block is still in cache,
// so the bound costs no second pass over the table.
func BuildIndex(md *factor.Model, owned []int32) *Index {
	if owned == nil {
		owned = make([]int32, md.N)
		for j := range owned {
			owned[j] = int32(j)
		}
	}
	n, k := len(owned), md.K
	ix := &Index{
		k:     k,
		prec:  md.Precision(),
		slack: indexSlack64,
	}
	ix.normOrder(md, owned)
	f32 := ix.prec == factor.Float32
	if f32 {
		ix.slack = indexSlack32
		ix.dot32 = vecmath.DotRowsKernel[float32](k)
		ix.vec32 = make([]float32, n*k)
	} else {
		ix.dot64 = vecmath.DotRowsKernel[float64](k)
		ix.vec64 = make([]float64, n*k)
	}
	bb := ix.newBoundBuilder(md)
	for lo := 0; lo < n; lo += scanBlock {
		hi := min(lo+scanBlock, n)
		for i := lo; i < hi; i++ {
			if f32 {
				copy(ix.vec32[i*k:(i+1)*k], md.ItemRow32(int(ix.items[i])))
			} else {
				copy(ix.vec64[i*k:(i+1)*k], md.ItemRow(int(ix.items[i])))
			}
		}
		bb.block(lo, hi)
	}
	bb.finish()
	return ix
}

// radixBits is the digit width of normOrder's radix sort: six passes
// over 64-bit keys, each with a 2048-entry count table that stays in
// L1.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// normOrder fills ix.items and ix.norms with owned in descending-norm
// order, ties by ascending item id. Norms are non-negative, so their
// IEEE bits order like the norms themselves: a stable LSD radix sort
// on the complemented bits of input in ascending item order yields the
// order directly, without a comparison sort's mispredicted branch per
// compare (a comparison sort was about half of a 300K-row build).
// A NaN norm sorts first; its place is unspecified, as before.
func (ix *Index) normOrder(md *factor.Model, owned []int32) {
	if !slices.IsSorted(owned) {
		owned = slices.Clone(owned)
		slices.Sort(owned)
	}
	n := len(owned)
	keys, keyBuf := make([]uint64, n), make([]uint64, n)
	items, itemBuf := slices.Clone(owned), make([]int32, n)
	for i, j := range owned {
		keys[i] = ^math.Float64bits(md.ItemNorm(int(j)))
	}
	var count [1 << radixBits]int
	for shift := 0; shift < 64; shift += radixBits {
		clear(count[:])
		for _, key := range keys {
			count[key>>shift&radixMask]++
		}
		if slices.Contains(count[:], n) {
			continue // every key shares this digit
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for i, key := range keys {
			d := key >> shift & radixMask
			keyBuf[count[d]], itemBuf[count[d]] = key, items[i]
			count[d]++
		}
		keys, keyBuf, items, itemBuf = keyBuf, keys, itemBuf, items
	}
	ix.items, ix.norms = items, make([]float64, n)
	for i, key := range keys {
		ix.norms[i] = math.Float64frombits(^key)
	}
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
	// Pruned is the number of rows the bounds skipped unscored: the
	// blocks the spectral bound skipped and the rest of the table once
	// a bound stopped the scan.
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
// ascending-sorted rated list, skipping blocks and stopping early once
// a bound proves no row left out can enter. user64/user32 is the query
// user's factor row at the index's precision; unorm is its Euclidean
// norm. The result in h is identical to an unpruned full scan.
//
// The table is walked in blocks of scanBlock rows, cheapest check
// first. Once the heap is full, each block faces three bound tests
// against the heap's worst score: the norm bound of its first, largest
// row stops the scan; the spectral bound over it and every later block
// stops the scan; the spectral bound over it alone skips it. A block
// that passes gets one batched kernel call scoring all its rows, a
// plain compare of each score with the cached heap threshold, and only
// for the rows that pass it the exclusion lookup and the heap offer.
// The compare is Heap.Offer's own rejection predicate, so filtering by
// it before the exclusion lookup drops exactly the rows Offer would
// have dropped after it. A skipped block holds no row scoring at or
// above the threshold, and the threshold only rises, so no row of it
// would ever have entered: the heap goes through the same states as in
// a full scan.
//
// The spectral bound projects the user row onto the basis once per
// query (project) and costs one short dot product per block
// (spectralBound); a NaN anywhere makes it NaN, which never compares
// below the threshold.
//
//nomad:noalloc
func (ix *Index) TopN(user64 []float64, user32 []float32, unorm float64, rated []int32, h *topn.Heap) ScanStats {
	var st ScanStats
	k, n := ix.k, len(ix.items)
	sc := scratchPool.Get().(*scanScratch)
	defer scratchPool.Put(sc)
	var p [eigStride]float64
	if ix.ed > 0 {
		p = ix.project(user64, user32, unorm)
	}
	worst, _ := h.Worst()
	full := h.Full()
	for lo := 0; lo < n; lo += scanBlock {
		hi := min(lo+scanBlock, n)
		if full {
			normBound := unorm * ix.norms[lo]
			if normBound*ix.slack < worst.Score {
				st.Pruned += n - lo
				break
			}
			if ix.ed > 0 {
				b := lo / scanBlock * eigStride
				abs := ix.eps * normBound
				if ix.spectralBound(&p, ix.suffixMax[b:b+eigStride], abs) < worst.Score {
					st.Pruned += n - lo
					break
				}
				if ix.spectralBound(&p, ix.blockMax[b:b+eigStride], abs) < worst.Score {
					st.Pruned += hi - lo
					continue
				}
			}
		}
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

// Package metrics evaluates matrix-completion models: test RMSE (the
// paper's comparison metric, §5.1), the regularized training objective
// J(W,H) of eq. (1) (the oracle the CCD++ and ALS tests check their
// monotone descent against), and time-series traces of RMSE versus
// wall-clock time and update count, which are the axes of every
// convergence figure in the paper.
package metrics

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/sparse"
	"nomad/internal/vecmath"
)

// RMSE returns the root-mean-square error of the model on a test split
// in user-major order, or NaN for an empty split.
//
// The users are cut into GOMAXPROCS contiguous ranges of about equal
// entry counts, one goroutine each. A range scores each user's entries
// with one gathering kernel call, the user row held in registers, then
// adds their squared errors in index order; the range partials are
// added in range order. Every prediction is bit-identical to
// DotKernelOf at the model's precision (float32 predictions accumulate
// in float32, as their training kernels do); only the squared-error sum
// is float64.
func RMSE(md *factor.Model, ix *dataset.TestIndex) float64 {
	n := ix.Len()
	if n == 0 {
		return math.NaN()
	}
	partial := rangeError[float64]
	if md.Precision() == factor.Float32 {
		partial = rangeError[float32]
	}
	bounds := userRanges(ix, runtime.GOMAXPROCS(0))
	partials := make([]float64, len(bounds)-1)
	var wg sync.WaitGroup
	for r := range partials {
		lo, hi := bounds[r], bounds[r+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			partials[r] = partial(md, ix, lo, hi)
		}()
	}
	wg.Wait()
	var total float64
	for _, p := range partials {
		total += p
	}
	return math.Sqrt(total / float64(n))
}

// userRanges cuts ix's users into parts contiguous ranges of about
// equal entry counts: range r is users [b[r], b[r+1]), where b[r] is
// the first user whose entries start at or past r·len/parts. A user
// with more entries than a share leaves the ranges after it empty.
func userRanges(ix *dataset.TestIndex, parts int) []int {
	users, n := ix.Users(), ix.Len()
	b := make([]int, parts+1)
	for r := 1; r < parts; r++ {
		at := int32(int64(r) * int64(n) / int64(parts))
		b[r] = sort.Search(users, func(u int) bool { return ix.Offsets[u] >= at })
	}
	b[parts] = users
	return b
}

// rangeError is squaredError over users [lo, hi) of ix for a model of
// precision T, with its own prediction buffer.
func rangeError[T vecmath.Float](md *factor.Model, ix *dataset.TestIndex, lo, hi int) float64 {
	w, h := factor.Flat[T](md)
	return squaredError(ix, lo, hi, w, h, md.K, vecmath.DotGatherKernel[T](md.K), make([]T, ix.MaxRow))
}

// squaredError sums (value − prediction)² over users [lo, hi) of ix, in
// index order, against the flat row-major tables w and h of rank k.
// out holds at least ix.MaxRow predictions.
//
//nomad:noalloc
func squaredError[T vecmath.Float](ix *dataset.TestIndex, lo, hi int, w, h []T, k int, dot vecmath.DotGatherFunc[T], out []T) float64 {
	var s float64
	for u := lo; u < hi; u++ {
		a, b := ix.Offsets[u], ix.Offsets[u+1]
		if a == b {
			continue
		}
		pred := out[:b-a]
		dot(w[u*k:(u+1)*k], h, ix.Items[a:b], pred)
		for x, v := range ix.Vals[a:b] {
			d := v - float64(pred[x])
			s += d * d
		}
	}
	return s
}

// Objective returns the regularized training objective of paper
// eq. (1) in its simplified per-rating form:
//
//	J(W,H) = ½ Σ_{(i,j)∈Ω} [ (A_ij − ⟨wᵢ,hⱼ⟩)² + λ(‖wᵢ‖² + ‖hⱼ‖²) ]
//
// which is exactly the weighted-regularization objective because each
// row's regularizer is counted once per rating.
func Objective(md *factor.Model, train *sparse.Matrix, lambda float64) float64 {
	partial := rowsObjective[float64]
	if md.Precision() == factor.Float32 {
		partial = rowsObjective[float32]
	}
	workers := runtime.GOMAXPROCS(0)
	rows := train.Rows()
	if workers > rows {
		workers = 1
	}
	partials := make([]float64, workers)
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			partials[w] = partial(md, train, lambda, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var total float64
	for _, p := range partials {
		total += p
	}
	return total / 2
}

// rowsObjective sums the eq. (1) terms of users [lo, hi) for a model of
// precision T. Predictions accumulate at T's precision, as training's
// do; the norms accumulate in float64 (Norm2Sq), because the objective
// is a global sum and should not inherit the row kernels' float32
// accumulation error.
func rowsObjective[T vecmath.Float](md *factor.Model, train *sparse.Matrix, lambda float64, lo, hi int) float64 {
	wData, hData := factor.Flat[T](md)
	k := md.K
	dot := vecmath.DotKernelOf[T](k)
	var s float64
	for i := lo; i < hi; i++ {
		wRow := wData[i*k : (i+1)*k]
		wNorm := vecmath.Norm2Sq(wRow)
		cols, vals := train.Row(i)
		for x, j := range cols {
			hRow := hData[int(j)*k : (int(j)+1)*k]
			d := vals[x] - float64(dot(wRow, hRow))
			s += d*d + lambda*(wNorm+vecmath.Norm2Sq(hRow))
		}
	}
	return s
}

// Point is one sample of a convergence trace.
type Point struct {
	Seconds float64 // wall-clock seconds since the run started
	Updates int64   // cumulative SGD updates (or equivalent work unit)
	RMSE    float64 // test RMSE at that moment
}

// Trace is a convergence time series. The zero value is ready to use.
// Trace is not safe for concurrent mutation; algorithms record from a
// single monitor goroutine.
type Trace struct {
	Points []Point
}

// Add appends a sample.
func (t *Trace) Add(seconds float64, updates int64, rmse float64) {
	t.Points = append(t.Points, Point{Seconds: seconds, Updates: updates, RMSE: rmse})
}

// Final returns the last sample, or a zero Point if empty.
func (t *Trace) Final() Point {
	if len(t.Points) == 0 {
		return Point{RMSE: math.NaN()}
	}
	return t.Points[len(t.Points)-1]
}

// Throughput summarizes update rates for the scaling figures (6, 10, 16).
type Throughput struct {
	Updates float64 // total updates performed
	Seconds float64 // wall-clock duration
	Workers int     // worker threads (cores × machines)
}

// PerWorkerPerSec returns updates per worker per second, the y-axis of
// the paper's throughput plots.
func (tp Throughput) PerWorkerPerSec() float64 {
	if tp.Seconds == 0 || tp.Workers == 0 {
		return 0
	}
	return tp.Updates / tp.Seconds / float64(tp.Workers)
}

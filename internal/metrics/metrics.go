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
	"sync"
	"unsafe"

	"nomad/internal/factor"
	"nomad/internal/sparse"
	"nomad/internal/vecmath"
)

// rmseAhead is how many test entries ahead of the one being scored RMSE
// prefetches the rows the entry names. Test entries come in no order
// the hardware can predict, so on a table larger than the cache every
// entry is a row miss; the hint changes which lines are resident, never
// a sum. Like vecmath's item-pass look-ahead (same value) the gain is a
// plateau: 4, 8 and 16 measured alike (EXPERIMENTS.md "Where the kernel
// waits on itself").
const rmseAhead = 8

// residentBytes is the factor-table size up to which RMSE leaves a
// table to the cache: a table that fits a core's private cache stays
// resident under evaluation, and hinting it costs a call per entry for
// nothing (netflix's 888 item rows; measured +10 %). The tables of the
// shapes this repository runs are a factor of ten away on either side.
const residentBytes = 1 << 20

// RMSE returns the root-mean-square error of the model on the given
// rating entries, computed in parallel. It returns NaN for an empty
// test set.
func RMSE(md *factor.Model, test []sparse.Entry) float64 {
	if len(test) == 0 {
		return math.NaN()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(test) {
		workers = 1
	}
	// Specialized prediction kernel, chosen once. The float32 path
	// predicts with float32 accumulation — the same arithmetic its
	// training kernels use — and only the squared-error sum is float64.
	var sum func(part []sparse.Entry) float64
	if md.Precision() == factor.Float32 {
		w, h, dot := md.WData32(), md.HData32(), vecmath.DotKernel32(md.K)
		sum = func(part []sparse.Entry) float64 { return squaredError(part, w, h, md.K, dot) }
	} else {
		w, h, dot := md.WData(), md.HData(), vecmath.DotKernel(md.K)
		sum = func(part []sparse.Entry) float64 { return squaredError(part, w, h, md.K, dot) }
	}
	partials := make([]float64, workers)
	var wg sync.WaitGroup
	chunk := (len(test) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(test) {
			hi = len(test)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			partials[w] = sum(test[lo:hi])
		}(w, lo, hi)
	}
	wg.Wait()
	var total float64
	for _, p := range partials {
		total += p
	}
	return math.Sqrt(total / float64(len(test)))
}

// squaredError sums (value − prediction)² over part, in order, against
// the flat row-major tables w and h of rank k.
func squaredError[T float32 | float64](part []sparse.Entry, w, h []T, k int, dot func(a, b []T) T) float64 {
	size := int(unsafe.Sizeof(w[0]))
	aheadW, aheadH := len(w)*size > residentBytes, len(h)*size > residentBytes
	var s float64
	for x, e := range part {
		if x+rmseAhead < len(part) {
			a := part[x+rmseAhead]
			if aheadW {
				vecmath.Prefetch(w, int(a.Row)*k, k)
			}
			if aheadH {
				vecmath.Prefetch(h, int(a.Col)*k, k)
			}
		}
		i, j := int(e.Row)*k, int(e.Col)*k
		d := e.Val - float64(dot(w[i:i+k], h[j:j+k]))
		s += d * d
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
			var s float64
			if md.Precision() == factor.Float32 {
				// Norms accumulate in float64 (Norm2Sq32) — the objective
				// is a global sum and should not inherit the row kernels'
				// float32 accumulation error.
				dot := vecmath.DotKernel32(md.K)
				for i := lo; i < hi; i++ {
					wRow := md.UserRow32(i)
					wNorm := vecmath.Norm2Sq32(wRow)
					cols, vals := train.Row(i)
					for x, j := range cols {
						d := vals[x] - float64(dot(wRow, md.ItemRow32(int(j))))
						s += d*d + lambda*(wNorm+vecmath.Norm2Sq32(md.ItemRow32(int(j))))
					}
				}
			} else {
				dot := vecmath.DotKernel(md.K)
				for i := lo; i < hi; i++ {
					wRow := md.UserRow(i)
					wNorm := vecmath.Norm2Sq(wRow)
					cols, vals := train.Row(i)
					for x, j := range cols {
						d := vals[x] - dot(wRow, md.ItemRow(int(j)))
						s += d*d + lambda*(wNorm+vecmath.Norm2Sq(md.ItemRow(int(j))))
					}
				}
			}
			partials[w] = s
		}(w, lo, hi)
	}
	wg.Wait()
	var total float64
	for _, p := range partials {
		total += p
	}
	return total / 2
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

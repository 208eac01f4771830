package main

import (
	"math"
	"sort"
)

// The benchmark owns its statistics: nothing here imports the
// repository, so a refactor of internal/benchenv cannot move the ruler.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics (the R-7 rule, what numpy and
// most load tools report). It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if lo < 0 {
		return s[0]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// summary is a metric's value as the benchmark reports it: the median
// of n samples (segments, windows, boots, batches) with its quartiles.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	return summary{Median: median(xs), Q1: percentile(xs, 25), Q3: percentile(xs, 75), N: len(xs)}
}

// single is the summary of a metric measured once per run, over n
// underlying operations.
func single(v float64, n int) summary { return summary{Median: v, Q1: v, Q3: v, N: n} }

// iqrShare is the interquartile distance as a share of the median: the
// spread the contract compares against a metric's bound.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// medianOfWindows cuts samples into consecutive windows by the time
// they were due, takes the p-th percentile inside each window, and
// summarizes across windows. A host burst then spoils one window, not
// the metric. Windows with no samples are skipped.
func medianOfWindows(due, value []float64, window float64, windows int, p float64) summary {
	per := make([][]float64, windows)
	for i, d := range due {
		w := int(d / window)
		if w >= 0 && w < windows {
			per[w] = append(per[w], value[i])
		}
	}
	var ps []float64
	for _, w := range per {
		if len(w) > 0 {
			ps = append(ps, percentile(w, p))
		}
	}
	return summarize(ps)
}

// tracePoint is one (seconds, rmse) sample of a convergence trace.
type tracePoint struct{ Seconds, RMSE float64 }

// timeToTarget returns when the trace first reaches rmse <= target,
// linearly interpolated between the bracketing samples. ok is false
// when the trace never crosses.
func timeToTarget(trace []tracePoint, target float64) (seconds float64, ok bool) {
	for i, p := range trace {
		if p.RMSE > target {
			continue
		}
		if i == 0 {
			return p.Seconds, true
		}
		prev := trace[i-1]
		if prev.RMSE == p.RMSE {
			return p.Seconds, true
		}
		frac := (prev.RMSE - target) / (prev.RMSE - p.RMSE)
		return prev.Seconds + frac*(p.Seconds-prev.Seconds), true
	}
	return 0, false
}

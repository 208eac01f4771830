package rng

import "math"

// Alias is Walker's alias method for O(1) sampling from an arbitrary
// discrete distribution over {0, ..., n-1}.
type Alias struct {
	src   *Source
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table for the (unnormalized, non-negative)
// weights. It panics if weights is empty or sums to zero.
func NewAlias(src *Source, weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("rng: NewAlias requires at least one weight")
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: NewAlias weight must be non-negative and finite")
		}
		total += w
	}
	if total == 0 {
		panic("rng: NewAlias weights sum to zero")
	}
	a := &Alias{
		src:   src,
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	// Scaled probabilities; classic two-stack construction.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, l := range large {
		a.prob[l] = 1
	}
	for _, s := range small {
		a.prob[s] = 1 // numerical leftovers
	}
	return a
}

// Sample draws one index distributed according to the table's weights.
func (a *Alias) Sample() int {
	i := a.src.Intn(len(a.prob))
	if a.src.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// N returns the number of outcomes in the table.
func (a *Alias) N() int { return len(a.prob) }

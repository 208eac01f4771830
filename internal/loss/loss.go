// Package loss implements the separable loss functions that the NOMAD
// framework generalizes over. The paper's §6 notes that the algorithm
// applies to any objective of the form
//
//	f(W,H) = Σ_{(i,j)∈Ω} f_ij(wᵢ, hⱼ),
//
// not just the square loss of eq. (1): the nomadic-token machinery only
// needs a per-rating gradient. This package provides the square loss
// (the paper's experiments), the absolute loss (robust to outliers) and
// the logistic loss (binary/one-class matrices, the SVM/logistic
// direction the paper names as ongoing work).
package loss

import (
	"fmt"
	"math"
)

// Loss is a separable per-rating loss f(pred, actual) with the scalar
// factor of its negative gradient: for matrix completion the SGD step
// is
//
//	w ← w + s·(g·h − λ·w),  h ← h + s·(g·w_old − λ·h)
//
// where g = Grad(pred, actual). For the square loss g is the residual
// (actual − pred), recovering paper eq. (9)–(10).
type Loss interface {
	// Name returns the loss's identifier ("square", "absolute", "logistic").
	Name() string
	// Value returns f(pred, actual).
	Value(pred, actual float64) float64
	// Grad returns the negative-gradient scalar g described above.
	Grad(pred, actual float64) float64
}

// Square is ½(actual − pred)², the paper's loss.
type Square struct{}

// Name implements Loss.
func (Square) Name() string { return "square" }

// Value implements Loss.
func (Square) Value(pred, actual float64) float64 {
	d := actual - pred
	return d * d / 2
}

// Grad implements Loss.
func (Square) Grad(pred, actual float64) float64 { return actual - pred }

// Absolute is |actual − pred|, whose constant-magnitude gradient makes
// the fit robust to rating outliers.
type Absolute struct{}

// Name implements Loss.
func (Absolute) Name() string { return "absolute" }

// Value implements Loss.
func (Absolute) Value(pred, actual float64) float64 { return math.Abs(actual - pred) }

// Grad implements Loss. At the (measure-zero) kink the subgradient 0
// is used.
func (Absolute) Grad(pred, actual float64) float64 {
	switch {
	case actual > pred:
		return 1
	case actual < pred:
		return -1
	default:
		return 0
	}
}

// Logistic is log(1+exp(−y·pred)) for labels y ∈ {−1, +1}, the binary
// matrix-completion loss of the paper's §6 future-work direction.
type Logistic struct{}

// Name implements Loss.
func (Logistic) Name() string { return "logistic" }

// Value implements Loss.
func (Logistic) Value(pred, actual float64) float64 {
	// log(1+exp(−y·p)) computed stably.
	z := -actual * pred
	if z > 30 {
		return z
	}
	return math.Log1p(math.Exp(z))
}

// Grad implements Loss: d/dpred[−loss] = y·σ(−y·pred).
func (Logistic) Grad(pred, actual float64) float64 {
	return actual * sigmoid(-actual*pred)
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// IsSquare reports whether l is the square loss (or nil, which every
// solver defaults to square). The SGD solvers use it to devirtualize
// the hot path: for the square loss, g = actual − pred is exactly the
// residual the fused vecmath kernels compute internally, so the
// per-rating Grad interface dispatch can be skipped entirely.
// Non-square losses keep the generic Grad path.
func IsSquare(l Loss) bool {
	if l == nil {
		return true
	}
	_, ok := l.(Square)
	return ok
}

// ByName returns the named loss.
func ByName(name string) (Loss, error) {
	switch name {
	case "", "square":
		return Square{}, nil
	case "absolute":
		return Absolute{}, nil
	case "logistic":
		return Logistic{}, nil
	default:
		return nil, fmt.Errorf("loss: unknown loss %q (square, absolute, logistic)", name)
	}
}

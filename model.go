package nomad

import (
	"fmt"
	"io"

	"nomad/internal/factor"
	"nomad/internal/topn"
	"nomad/internal/vecmath"
)

// Model is a trained low-rank factorization: the predicted rating of
// (user, item) is the inner product of their latent factor rows.
type Model struct {
	inner *factor.Model
}

// Predict returns the model's estimate of user's rating for item.
func (m *Model) Predict(user, item int) float64 { return m.inner.Predict(user, item) }

// Rank returns the latent dimension.
func (m *Model) Rank() int { return m.inner.K }

// Precision returns the element type of the factor storage; see
// WithPrecision.
func (m *Model) Precision() Precision { return Precision(m.inner.Precision()) }

// Users returns the number of user rows.
func (m *Model) Users() int { return m.inner.M }

// Items returns the number of item rows.
func (m *Model) Items() int { return m.inner.N }

// Recommendation is one scored item.
type Recommendation struct {
	Item  int
	Score float64
}

// Recommend returns the topN highest-predicted items for the user,
// excluding items the user already rated in d's training set. Pass a
// nil dataset to rank over all items. Ties rank the lower item index
// first.
//
// Scores are streamed through a bounded min-heap of size topN
// (internal/topn — the same heap and ordering the nomad-serve
// scatter/gather path uses), so the cost is O(N·log topN) with no
// per-call N-sized allocation — the serving-path shape, where the
// catalog N is large and topN is 10.
func (m *Model) Recommend(d *Dataset, user, topN int) []Recommendation {
	if topN <= 0 {
		return nil
	}
	md := m.inner
	var score func(j int) float64
	if md.Precision() == factor.Float32 {
		dot, w := vecmath.DotKernelOf[float32](md.K), md.UserRow32(user)
		score = func(j int) float64 { return float64(dot(w, md.ItemRow32(j))) }
	} else {
		dot, w := vecmath.DotKernel(md.K), md.UserRow(user)
		score = func(j int) float64 { return dot(w, md.ItemRow(j)) }
	}
	// Score first, then compare with the heap's threshold (Offer's own
	// rejection test), and look the rating up only for the few items
	// that would enter: the lookup is the expensive check.
	h := topn.NewHeap(topN)
	var worst topn.Rec
	full := false
	for j := 0; j < md.N; j++ {
		rec := topn.Rec{Item: int32(j), Score: score(j)}
		if full && topn.Worse(rec, worst) {
			continue
		}
		if d != nil && d.Rated(user, j) {
			continue
		}
		h.Offer(rec)
		worst, _ = h.Worst()
		full = h.Full()
	}
	recs := h.Sorted()
	out := make([]Recommendation, len(recs))
	for i, r := range recs {
		out[i] = Recommendation{Item: int(r.Item), Score: r.Score}
	}
	return out
}

// Save serializes the model in the repository's binary format.
func (m *Model) Save(w io.Writer) error { return m.inner.WriteBinary(w) }

// LoadModel reads a model written by Save.
func LoadModel(r io.Reader) (*Model, error) {
	inner, err := factor.ReadBinary(r)
	if err != nil {
		return nil, fmt.Errorf("nomad: %w", err)
	}
	return &Model{inner: inner}, nil
}

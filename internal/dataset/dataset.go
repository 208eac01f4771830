// Package dataset provides the training/test rating collections used
// by the experiments, and synthetic generators that reproduce the
// *shape* of the paper's three proprietary benchmark datasets
// (Table 2: Netflix, Yahoo! Music, Hugewiki).
//
// The real datasets are not redistributable, so we synthesize data the
// way §5.5 of the paper does for its weak-scaling experiment: ground
// truth user/item factors are drawn from an isotropic Gaussian, each
// observed rating is ⟨wᵢ, hⱼ⟩ plus Gaussian noise (σ = 0.1), and the
// per-user / per-item rating counts follow heavy-tailed (Zipf-like)
// distributions mimicking the empirical degree skew of the originals.
// What matters to the algorithms under study is the m:n:|Ω| shape and
// the degree skew — both are preserved at any scale factor.
package dataset

import (
	"fmt"
	"math"

	"nomad/internal/rng"
	"nomad/internal/sparse"
)

// Dataset is a train/test split over a rating matrix.
type Dataset struct {
	Name  string
	Train *sparse.Matrix
	Test  []sparse.Entry
}

// Rows returns the number of users.
func (d *Dataset) Rows() int { return d.Train.Rows() }

// Cols returns the number of items.
func (d *Dataset) Cols() int { return d.Train.Cols() }

// Spec describes a synthetic dataset.
type Spec struct {
	Name     string
	Rows     int   // users (m)
	Cols     int   // items (n)
	NNZ      int64 // total observed ratings before the train/test split
	RowSkew  float64
	ColSkew  float64 // Zipf exponents shaping the degree distributions
	TrueRank int     // rank of the ground-truth factors
	NoiseSD  float64 // σ of the additive rating noise
	TestFrac float64 // fraction of ratings held out for testing
	Quantize bool    // round ratings onto a 1..5 star scale
	Seed     uint64
}

// Shape constants of the paper's Table 2 datasets.
const (
	netflixRows = 2_649_429
	netflixCols = 17_770
	netflixNNZ  = 99_072_112

	yahooRows = 1_999_990
	yahooCols = 624_961
	yahooNNZ  = 252_800_275

	hugewikiRows = 50_082_603
	hugewikiCols = 39_780
	hugewikiNNZ  = 2_736_496_604
)

// scaled shrinks a Table 2 shape by the given factor, preserving the
// mean ratings-per-user and ratings-per-item (rows, cols and nnz all
// scale linearly), with floors so tiny scales stay usable.
func scaled(name string, rows, cols int, nnz int64, scale float64, skewR, skewC float64, quantize bool) Spec {
	if scale <= 0 {
		panic("dataset: scale must be positive")
	}
	r := int(float64(rows) * scale)
	c := int(float64(cols) * scale)
	z := int64(float64(nnz) * scale)
	if r < 32 {
		r = 32
	}
	if c < 16 {
		c = 16
	}
	if z < int64(4*r) {
		z = int64(4 * r)
	}
	// Dimensions shrink linearly but the cell count shrinks
	// quadratically, so tiny scales can push density past what
	// rejection sampling (or the matrix itself) can hold. Add users
	// rather than dropping ratings: that preserves the profile's
	// defining ratings-per-item ratio and the m ≫ n shape, at the cost
	// of a lower ratings-per-user mean (documented in DESIGN.md).
	if maxZ := int64(r) * int64(c) / 4; z > maxZ {
		r = int(4*z/int64(c)) + 1
	}
	return Spec{
		Name:     name,
		Rows:     r,
		Cols:     c,
		NNZ:      z,
		RowSkew:  skewR,
		ColSkew:  skewC,
		TrueRank: 16,
		NoiseSD:  0.1,
		TestFrac: 0.1,
		Quantize: quantize,
		Seed:     42,
	}
}

// NetflixLike returns a spec mimicking the Netflix dataset's shape
// (m ≫ n, ≈5.6K ratings per item, 1–5 star values) at the given scale.
func NetflixLike(scale float64) Spec {
	return scaled("netflix-like", netflixRows, netflixCols, netflixNNZ, scale, 0.9, 0.9, true)
}

// YahooLike returns a spec mimicking Yahoo! Music's shape: a very
// large item set with only ≈404 ratings per item, which makes
// distributed runs communication-bound (§5.3).
func YahooLike(scale float64) Spec {
	return scaled("yahoo-like", yahooRows, yahooCols, yahooNNZ, scale, 0.8, 1.0, false)
}

// HugewikiLike returns a spec mimicking Hugewiki's shape: few items
// with ≈69K ratings each, which makes runs compute-bound.
func HugewikiLike(scale float64) Spec {
	return scaled("hugewiki-like", hugewikiRows, hugewikiCols, hugewikiNNZ, scale, 0.7, 0.8, false)
}

// LongtailLike returns a long-tail catalog shape: an item set an
// order of magnitude larger than the user set with only ≈4.5 ratings
// per item (think storefront catalogs where most items have a handful
// of interactions). With so few ratings per token, per-token cost —
// first the cache misses on each token's offsets, rating slices and
// rows, then the transport — not SGD arithmetic, dominates NOMAD's
// worker loop, which makes this the fine-grained-token stress workload
// of the benchmark suite (the shared-memory analog of what §5.3 says
// Yahoo's shape does to the network layer).
func LongtailLike(scale float64) Spec {
	return scaled("longtail-like", 80_000, 600_000, 2_700_000, scale, 0.6, 0.6, false)
}

// Grow reproduces the §5.5 weak-scaling generator: the item count is
// fixed at (scaled) Netflix's 17,770 while users and ratings grow
// proportionally to the number of machines.
func Grow(machines int, scale float64) Spec {
	if machines < 1 {
		panic("dataset: machines must be >= 1")
	}
	s := scaled(fmt.Sprintf("grow-%dx", machines),
		480_189*machines, netflixCols, int64(netflixNNZ)*int64(machines), scale, 0.9, 0.9, false)
	return s
}

// ByName returns the named profile ("netflix", "yahoo", "hugewiki",
// "longtail") at the given scale.
func ByName(name string, scale float64) (Spec, error) {
	switch name {
	case "netflix", "netflix-like":
		return NetflixLike(scale), nil
	case "yahoo", "yahoo-like":
		return YahooLike(scale), nil
	case "hugewiki", "hugewiki-like":
		return HugewikiLike(scale), nil
	case "longtail", "longtail-like":
		return LongtailLike(scale), nil
	default:
		return Spec{}, fmt.Errorf("dataset: unknown profile %q", name)
	}
}

// truth deterministically regenerates the ground-truth factor row for
// index i without storing the full factor matrix: each row is a fresh
// PRNG stream derived from the dataset seed. Coordinates are scaled so
// ⟨wᵢ, hⱼ⟩ has unit variance regardless of rank.
func truth(seed uint64, side uint64, i int, rank int, out []float64) {
	r := rng.New(seed ^ side ^ uint64(i)*0x9e3779b97f4a7c15)
	sd := 1 / math.Sqrt(math.Sqrt(float64(rank))) // (1/⁴√r)² · r = √r... see below
	// Var(⟨w,h⟩) = r · Var(w)·Var(h) = r · sd⁴ = 1 when sd = r^(-1/4).
	for l := 0; l < rank; l++ {
		out[l] = r.Normal(0, sd)
	}
}

// Generate synthesizes the dataset described by the spec.
func (s Spec) Generate() (*Dataset, error) {
	if s.Rows <= 0 || s.Cols <= 0 || s.NNZ <= 0 {
		return nil, fmt.Errorf("dataset: invalid spec %+v", s)
	}
	if s.NNZ > int64(s.Rows)*int64(s.Cols) {
		return nil, fmt.Errorf("dataset: nnz %d exceeds matrix capacity", s.NNZ)
	}
	if s.TestFrac < 0 || s.TestFrac >= 1 {
		return nil, fmt.Errorf("dataset: test fraction %v out of [0,1)", s.TestFrac)
	}
	r := rng.New(s.Seed)

	// Degree-weight tables: Zipf weights over shuffled ranks so that
	// heavy users/items are scattered across the index space.
	rowW := zipfWeights(r, s.Rows, s.RowSkew)
	colW := zipfWeights(r, s.Cols, s.ColSkew)
	rowAlias := rng.NewAlias(r.Split(1), rowW)
	colAlias := rng.NewAlias(r.Split(2), colW)

	// Sample distinct (i, j) pairs.
	seen := make(map[uint64]struct{}, s.NNZ)
	entries := make([]sparse.Entry, 0, s.NNZ)
	// Ground-truth rows of the smaller side are tabulated once — each
	// would otherwise be regenerated for every rating that names it —
	// while the larger side stays on the fly, as truth intends, so the
	// generator holds O(min(m,n)·rank) floats, not the factor matrices.
	const wSide, hSide = 0x5555555555555555, 0xaaaaaaaaaaaaaaaa
	rank := s.TrueRank
	itemsCached := s.Cols <= s.Rows
	cachedSide := uint64(wSide)
	if itemsCached {
		cachedSide = hSide
	}
	cached := make([]float64, min(s.Rows, s.Cols)*rank)
	for x := 0; x*rank < len(cached); x++ {
		truth(s.Seed, cachedSide, x, rank, cached[x*rank:(x+1)*rank])
	}
	scratch := make([]float64, rank)
	noise := r.Split(3)
	attempts := int64(0)
	maxAttempts := s.NNZ * 50
	for int64(len(entries)) < s.NNZ {
		attempts++
		if attempts > maxAttempts {
			return nil, fmt.Errorf("dataset: rejection sampling stalled at %d/%d entries (matrix too dense for skew)", len(entries), s.NNZ)
		}
		i := rowAlias.Sample()
		j := colAlias.Sample()
		key := uint64(i)*uint64(s.Cols) + uint64(j)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		wRow, hRow := scratch, scratch
		if itemsCached {
			truth(s.Seed, wSide, i, rank, scratch)
			hRow = cached[j*rank : (j+1)*rank]
		} else {
			truth(s.Seed, hSide, j, rank, scratch)
			wRow = cached[i*rank : (i+1)*rank]
		}
		var dot float64
		for l := 0; l < rank; l++ {
			dot += wRow[l] * hRow[l]
		}
		v := dot + noise.Normal(0, s.NoiseSD)
		if s.Quantize {
			v = math.Round(3.0 + 1.1*v)
			if v < 1 {
				v = 1
			}
			if v > 5 {
				v = 5
			}
		}
		entries = append(entries, sparse.Entry{Row: int32(i), Col: int32(j), Val: v})
	}
	return split(s.Name, s.Rows, s.Cols, entries, s.TestFrac, r.Split(4))
}

// zipfWeights returns n Zipf(s) weights assigned to shuffled ranks.
func zipfWeights(r *rng.Source, n int, skew float64) []float64 {
	perm := make([]int, n)
	r.Perm(perm)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(perm[i]+1), -skew)
	}
	return w
}

// split partitions entries into train and test. Test entries whose
// user or item would otherwise be absent from the training set are
// moved back to train, so every test prediction is over trained rows.
func split(name string, rows, cols int, entries []sparse.Entry, frac float64, r *rng.Source) (*Dataset, error) {
	trainRowCount := make([]int32, rows)
	trainColCount := make([]int32, cols)
	isTest := make([]bool, len(entries))
	for x := range entries {
		if r.Float64() < frac {
			isTest[x] = true
		} else {
			trainRowCount[entries[x].Row]++
			trainColCount[entries[x].Col]++
		}
	}
	var train []sparse.Entry
	var test []sparse.Entry
	for x, e := range entries {
		if isTest[x] && trainRowCount[e.Row] > 0 && trainColCount[e.Col] > 0 {
			test = append(test, e)
		} else {
			train = append(train, e)
		}
	}
	tm, err := sparse.FromEntries(rows, cols, train)
	if err != nil {
		return nil, fmt.Errorf("dataset: building train matrix: %w", err)
	}
	return &Dataset{Name: name, Train: tm, Test: test}, nil
}

// FromMatrix builds a Dataset by randomly splitting an existing rating
// matrix into train and test portions.
func FromMatrix(name string, m *sparse.Matrix, testFrac float64, seed uint64) (*Dataset, error) {
	if testFrac < 0 || testFrac >= 1 {
		return nil, fmt.Errorf("dataset: test fraction %v out of [0,1)", testFrac)
	}
	entries := m.Entries(nil)
	return split(name, m.Rows(), m.Cols(), entries, testFrac, rng.New(seed))
}

// Stats describes a generated dataset for the Table 2 report.
type Stats struct {
	Name           string
	Rows, Cols     int
	TrainNNZ       int
	TestNNZ        int
	RatingsPerItem float64
	RatingsPerUser float64
	MaxItemDegree  int
	MaxUserDegree  int
}

// Stats summarizes the dataset.
func (d *Dataset) Stats() Stats {
	rs := d.Train.RowStats()
	cs := d.Train.ColStats()
	return Stats{
		Name:           d.Name,
		Rows:           d.Rows(),
		Cols:           d.Cols(),
		TrainNNZ:       d.Train.NNZ(),
		TestNNZ:        len(d.Test),
		RatingsPerItem: cs.Mean,
		RatingsPerUser: rs.Mean,
		MaxItemDegree:  cs.Max,
		MaxUserDegree:  rs.Max,
	}
}

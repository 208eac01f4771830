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
	"runtime"
	"sync"

	"nomad/internal/parallel"
	"nomad/internal/rng"
	"nomad/internal/sparse"
	"nomad/internal/vecmath"
)

// Dataset is a train/test split over a rating matrix.
type Dataset struct {
	Name  string
	Train *sparse.Matrix
	Test  []sparse.Entry

	testOnce   sync.Once
	testByUser *TestIndex
}

// TestByUser returns the user-major view of Test, built by the first
// call and shared by every later one. Test must not change after that
// first call.
func (d *Dataset) TestByUser() *TestIndex {
	d.testOnce.Do(func() { d.testByUser = IndexTest(d.Rows(), d.Test) })
	return d.testByUser
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

// Sides of the ground truth: truth's stream for user row i and item
// row j are told apart by these salts.
const wSide, hSide = 0x5555555555555555, 0xaaaaaaaaaaaaaaaa

// truth is the ground-truth factor row for index i of one side, a pure
// function of (seed, side, i): each row is a fresh PRNG stream derived
// from the dataset seed, so rows can be generated in any order and on
// any goroutine. Generate tabulates every row of both sides once.
// Coordinates are scaled so ⟨wᵢ, hⱼ⟩ has unit variance regardless of
// rank.
func truth(seed uint64, side uint64, i int, rank int, out []float64) {
	r := rng.New(seed ^ side ^ uint64(i)*0x9e3779b97f4a7c15)
	sd := 1 / math.Sqrt(math.Sqrt(float64(rank))) // (1/⁴√r)² · r = √r... see below
	// Var(⟨w,h⟩) = r · Var(w)·Var(h) = r · sd⁴ = 1 when sd = r^(-1/4).
	for l := 0; l < rank; l++ {
		out[l] = r.Normal(0, sd)
	}
}

// tabulate fills tab with truth's rows 0 … n-1 of one side, split
// over the available cores.
func tabulate(tab []float64, n int, seed, side uint64, rank int) {
	parallel.For(runtime.GOMAXPROCS(0), n, func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			truth(seed, side, x, rank, tab[x*rank:(x+1)*rank])
		}
	})
}

// Generate synthesizes the dataset described by the spec, in three
// phases. Only the first depends on order, and it alone runs serially;
// the output is the same bit for bit at any GOMAXPROCS.
//
//  1. sample draws (i, j) from the degree-skewed alias tables and
//     keeps the first occurrence of each pair, in attempt order.
//  2. A value pass gives the k-th kept pair ⟨wᵢ, hⱼ⟩ plus the k-th
//     draw of the noise stream. The noise draws, and the ground-truth
//     rows both sides tabulate, depend on nothing phase 1 decides, so
//     they are made while it runs; the dot products are split over
//     the cores after it.
//  3. split holds out the test fraction.
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
	noise := r.Split(3)
	splitRNG := r.Split(4)

	// Each entry's Val holds its noise draw until the value pass adds
	// the dot product.
	entries := make([]sparse.Entry, s.NNZ)
	rank := s.TrueRank
	w := make([]float64, s.Rows*rank)
	h := make([]float64, s.Cols*rank)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := range entries {
			entries[k].Val = noise.Normal(0, s.NoiseSD)
		}
	}()
	go func() {
		defer wg.Done()
		tabulate(w, s.Rows, s.Seed, wSide, rank)
		tabulate(h, s.Cols, s.Seed, hSide, rank)
	}()
	err := sample(entries, rowAlias, colAlias, s.NNZ*50)
	wg.Wait()
	if err != nil {
		return nil, err
	}

	parallel.For(runtime.GOMAXPROCS(0), len(entries), func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			e := &entries[x]
			wRow := w[int(e.Row)*rank : (int(e.Row)+1)*rank]
			hRow := h[int(e.Col)*rank : (int(e.Col)+1)*rank]
			var dot float64
			for l := 0; l < rank; l++ {
				dot += wRow[l] * hRow[l]
			}
			v := dot + e.Val
			if s.Quantize {
				v = math.Round(3.0 + 1.1*v)
				if v < 1 {
					v = 1
				}
				if v > 5 {
					v = 5
				}
			}
			e.Val = v
		}
	})
	return split(s.Name, s.Rows, s.Cols, entries, s.TestFrac, splitRNG)
}

// sampleAhead is how many attempts sample draws before it tests them
// against the set. The alias draws do not depend on what the set
// accepts, so drawing early changes no pair; it lets each slot's cache
// line be prefetched a few microseconds before it is probed. The
// streams are not read again, so the draws left over at the end are
// harmless.
const sampleAhead = 32

// sample fills the Row/Col of entries with distinct (i, j) pairs: each
// attempt draws i from rows and then j from cols, and the first
// occurrence of a pair is kept, in attempt order. It fails once more
// than maxAttempts attempts were needed.
func sample(entries []sparse.Entry, rows, cols *rng.Alias, maxAttempts int64) error {
	type attempt struct {
		i, j int32
		key  uint64
		slot int
	}
	seen := newPairSet(len(entries))
	n := uint64(cols.N())
	var ring [sampleAhead]attempt
	draw := func(a *attempt) {
		a.i = int32(rows.Sample())
		a.j = int32(cols.Sample())
		a.key = uint64(a.i)*n + uint64(a.j)
		a.slot = seen.slot(a.key)
		vecmath.Prefetch(seen.keys, a.slot, 1)
	}
	for x := range ring {
		draw(&ring[x])
	}
	attempts := int64(0)
	for k, x := 0, 0; k < len(entries); x = (x + 1) % sampleAhead {
		attempts++
		if attempts > maxAttempts {
			return fmt.Errorf("dataset: rejection sampling stalled at %d/%d entries (matrix too dense for skew)", k, len(entries))
		}
		a := ring[x]
		draw(&ring[x])
		if seen.insert(a.key, a.slot) {
			entries[k].Row, entries[k].Col = a.i, a.j
			k++
		}
	}
	return nil
}

// pairSet is an open-addressing set of uint64 keys, sized once for the
// number of keys it will hold: linear probing over a power-of-two
// table kept at most three-quarters full. A slot holds key+1, so zero
// marks it empty.
type pairSet struct {
	keys  []uint64
	shift uint // 64 - log2(len(keys))
}

func newPairSet(n int) *pairSet {
	bits := uint(4)
	for 3<<bits < 4*n {
		bits++
	}
	return &pairSet{keys: make([]uint64, 1<<bits), shift: 64 - bits}
}

// slot is key's home slot (Fibonacci hashing: the top bits of a
// multiplicative hash).
func (s *pairSet) slot(key uint64) int {
	return int((key + 1) * 0x9e3779b97f4a7c15 >> s.shift)
}

// insert adds key, probing from its home slot, and reports whether it
// was absent.
func (s *pairSet) insert(key uint64, slot int) bool {
	mask := len(s.keys) - 1
	for {
		switch s.keys[slot] {
		case key + 1:
			return false
		case 0:
			s.keys[slot] = key + 1
			return true
		}
		slot = (slot + 1) & mask
	}
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
// The train part is compacted in place, in order, so entries' storage
// is reused and must not be read afterwards.
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
	nTest := 0
	for x, e := range entries {
		isTest[x] = isTest[x] && trainRowCount[e.Row] > 0 && trainColCount[e.Col] > 0
		if isTest[x] {
			nTest++
		}
	}
	test := make([]sparse.Entry, 0, nTest)
	train := entries[:0]
	for x, e := range entries {
		if isTest[x] {
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

// TestIndex is a test split in user-major order: user u's entries are
// Items[Offsets[u]:Offsets[u+1]] with values Vals at the same
// positions, in the order they have in the split. Duplicate entries are
// kept. Evaluating in this order keeps a user's row in registers while
// its entries are scored, instead of fetching a random user's row for
// every entry.
type TestIndex struct {
	Offsets []int32 // users+1 entries, Offsets[0] = 0
	Items   []int32
	Vals    []float64
	MaxRow  int // most entries any one user has
}

// IndexTest builds the user-major view of test over users rows with a
// stable counting sort. It panics if an entry names a user outside
// [0, users) or the split has more than MaxInt32 entries.
func IndexTest(users int, test []sparse.Entry) *TestIndex {
	if int64(len(test)) > math.MaxInt32 {
		panic("dataset: test split too large for an int32 index")
	}
	ix := &TestIndex{
		Offsets: make([]int32, users+1),
		Items:   make([]int32, len(test)),
		Vals:    make([]float64, len(test)),
	}
	for _, e := range test {
		ix.Offsets[e.Row+1]++
	}
	for u := 0; u < users; u++ {
		ix.MaxRow = max(ix.MaxRow, int(ix.Offsets[u+1]))
		ix.Offsets[u+1] += ix.Offsets[u]
	}
	next := make([]int32, users)
	copy(next, ix.Offsets)
	for _, e := range test {
		x := next[e.Row]
		next[e.Row]++
		ix.Items[x], ix.Vals[x] = e.Col, e.Val
	}
	return ix
}

// Users returns the number of user rows the index spans.
func (ix *TestIndex) Users() int { return len(ix.Offsets) - 1 }

// Len returns the number of test entries.
func (ix *TestIndex) Len() int { return len(ix.Items) }

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

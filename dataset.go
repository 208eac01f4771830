package nomad

import (
	"fmt"
	"io"

	"nomad/internal/dataset"
	"nomad/internal/metrics"
	"nomad/internal/sparse"
)

// Rating is one observed (user, item, value) triple.
type Rating struct {
	User, Item int
	Value      float64
}

// Dataset is a train/test split over a rating matrix.
type Dataset struct {
	inner *dataset.Dataset
}

// NewDataset builds a dataset from explicit train and test ratings
// over a users×items matrix. Test ratings may reference only users and
// items that also appear in the training set if meaningful evaluation
// is desired, but this is not enforced.
func NewDataset(users, items int, trainRatings, testRatings []Rating) (*Dataset, error) {
	b := sparse.NewBuilder(users, items, len(trainRatings))
	for _, r := range trainRatings {
		b.Add(r.User, r.Item, r.Value)
	}
	m, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("nomad: building training matrix: %w", err)
	}
	test := make([]sparse.Entry, 0, len(testRatings))
	for _, r := range testRatings {
		if r.User < 0 || r.User >= users || r.Item < 0 || r.Item >= items {
			return nil, fmt.Errorf("nomad: test rating (%d,%d) out of range", r.User, r.Item)
		}
		test = append(test, sparse.Entry{Row: int32(r.User), Col: int32(r.Item), Val: r.Value})
	}
	return &Dataset{inner: &dataset.Dataset{Name: "custom", Train: m, Test: test}}, nil
}

// Split builds a dataset from one list of ratings, holding out the
// given fraction (e.g. 0.1) as the test set. Held-out ratings whose
// user or item would otherwise vanish from training are kept in train.
func Split(users, items int, ratings []Rating, testFraction float64, seed uint64) (*Dataset, error) {
	b := sparse.NewBuilder(users, items, len(ratings))
	for _, r := range ratings {
		b.Add(r.User, r.Item, r.Value)
	}
	m, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("nomad: building rating matrix: %w", err)
	}
	ds, err := dataset.FromMatrix("custom", m, testFraction, seed)
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: ds}, nil
}

// Synthesize generates a dataset with the shape of one of the paper's
// benchmarks — profile is "netflix", "yahoo" or "hugewiki" — or of
// "longtail", a catalog of many items with a few ratings each, at the
// given scale (fraction of the original size; 0.002 is a comfortable
// laptop scale). The output depends only on (profile, scale, seed):
// the same bits at any GOMAXPROCS on a given GOARCH.
func Synthesize(profile string, scale float64, seed uint64) (*Dataset, error) {
	spec, err := dataset.ByName(profile, scale)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	ds, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: ds}, nil
}

// Users returns the number of user rows.
func (d *Dataset) Users() int { return d.inner.Rows() }

// Items returns the number of item columns.
func (d *Dataset) Items() int { return d.inner.Cols() }

// TrainSize returns the number of training ratings.
func (d *Dataset) TrainSize() int { return d.inner.Train.NNZ() }

// TestSize returns the number of held-out test ratings.
func (d *Dataset) TestSize() int { return len(d.inner.Test) }

// UserRatings returns the training ratings of one user.
func (d *Dataset) UserRatings(user int) []Rating {
	cols, vals := d.inner.Train.Row(user)
	out := make([]Rating, len(cols))
	for x, j := range cols {
		out[x] = Rating{User: user, Item: int(j), Value: vals[x]}
	}
	return out
}

// RatedItems returns the ascending-sorted item ids the user rated in
// the training set — the serving layer's exclusion list shape. The
// slice aliases internal storage and must not be modified.
func (d *Dataset) RatedItems(user int) []int32 {
	cols, _ := d.inner.Train.Row(user)
	return cols
}

// Rated reports whether the training set contains (user, item).
func (d *Dataset) Rated(user, item int) bool {
	_, ok := d.inner.Train.At(user, item)
	return ok
}

// RMSE evaluates a model on this dataset's test split.
func (d *Dataset) RMSE(m *Model) float64 {
	return metrics.RMSE(m.inner, d.inner.TestByUser())
}

// RankingQuality summarizes top-K recommendation quality on the test
// split: mean precision@K, recall@K and NDCG@K over test users, where
// an item is relevant if its held-out rating is at least the given
// threshold. Items from each user's training row are excluded from the
// candidate ranking.
type RankingQuality struct {
	Users      int
	K          int
	PrecisionK float64
	RecallK    float64
	NDCGK      float64
}

// Ranking evaluates the model's top-K recommendations against the test
// split.
func (d *Dataset) Ranking(m *Model, k int, relevantAtLeast float64) RankingQuality {
	rep := metrics.Ranking(m.inner, d.inner.Train, d.inner.Test, k, relevantAtLeast)
	return RankingQuality{
		Users:      rep.Users,
		K:          rep.K,
		PrecisionK: rep.PrecisionK,
		RecallK:    rep.RecallK,
		NDCGK:      rep.NDCGK,
	}
}

// WriteTrainMatrix writes the training matrix in the repository's text
// format ("rows cols nnz" header then "user item value" lines).
func (d *Dataset) WriteTrainMatrix(w io.Writer) error {
	return d.inner.Train.WriteText(w)
}

// ReadDataset reads a text-format rating matrix (see WriteTrainMatrix)
// and splits it into train and test portions.
func ReadDataset(r io.Reader, testFraction float64, seed uint64) (*Dataset, error) {
	m, err := sparse.ReadText(r)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.FromMatrix("file", m, testFraction, seed)
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: ds}, nil
}

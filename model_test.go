package nomad

import (
	"fmt"
	"sort"
	"testing"

	"nomad/internal/factor"
)

// recommendFullSort is the reference implementation Recommend replaced:
// score every candidate, sort all N, truncate. The equivalence test
// pins the heap to it; the benchmarks measure the gap at N ≫ topN.
func recommendFullSort(m *Model, d *Dataset, user, topN int) []Recommendation {
	if topN <= 0 {
		return nil
	}
	recs := make([]Recommendation, 0, m.inner.N)
	for j := 0; j < m.inner.N; j++ {
		if d != nil && d.Rated(user, j) {
			continue
		}
		recs = append(recs, Recommendation{Item: j, Score: m.Predict(user, j)})
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].Score != recs[b].Score {
			return recs[a].Score > recs[b].Score
		}
		return recs[a].Item < recs[b].Item
	})
	if len(recs) > topN {
		recs = recs[:topN]
	}
	return recs
}

func testModel(users, items, k int, seed uint64) *Model {
	return &Model{inner: factor.NewInit(users, items, k, seed)}
}

func TestRecommendMatchesFullSort(t *testing.T) {
	// Exclusion lists at ~10% density put rated items inside every
	// user's top list, so Recommend's look-up-only-on-admission order
	// is compared with the reference's exclude-first order.
	var ratings []Rating
	for user := 0; user < 40; user++ {
		for item := user % 7; item < 500; item += 7 + user%5 {
			ratings = append(ratings, Rating{User: user, Item: item, Value: 1})
		}
	}
	ds, err := NewDataset(40, 500, ratings, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []factor.Precision{factor.Float64, factor.Float32} {
		m := &Model{inner: factor.NewInitP(40, 500, 8, 11, prec)}
		for _, d := range []*Dataset{nil, ds} {
			for _, topN := range []int{1, 3, 10, 499, 500, 501, 2000} {
				for user := 0; user < 5; user++ {
					got := m.Recommend(d, user, topN)
					want := recommendFullSort(m, d, user, topN)
					if len(got) != len(want) {
						t.Fatalf("%v topN=%d user=%d: %d recs, want %d", prec, topN, user, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v topN=%d user=%d rank %d: got %+v want %+v", prec, topN, user, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestRecommendTieBreaksByItem(t *testing.T) {
	// A zero model scores every item identically; the ranking must
	// still be deterministic: lowest item indices first.
	m := &Model{inner: factor.New(3, 20, 4)}
	recs := m.Recommend(nil, 0, 5)
	if len(recs) != 5 {
		t.Fatalf("got %d recs", len(recs))
	}
	for i, r := range recs {
		if r.Item != i {
			t.Fatalf("rank %d = item %d, want %d (tie-break by index)", i, r.Item, i)
		}
	}
}

// The benchmark pair demonstrates the heap's win when the catalog is
// much larger than the requested list (the serving-path shape).
func benchmarkRecommend(b *testing.B, impl func(*Model, *Dataset, int, int) []Recommendation) {
	const items, topN = 50000, 10
	m := testModel(16, items, 16, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := impl(m, nil, i%16, topN)
		if len(recs) != topN {
			b.Fatalf("got %d recs", len(recs))
		}
	}
}

func BenchmarkRecommendTop10Heap(b *testing.B) {
	benchmarkRecommend(b, func(m *Model, d *Dataset, user, topN int) []Recommendation {
		return m.Recommend(d, user, topN)
	})
}

func BenchmarkRecommendTop10FullSort(b *testing.B) {
	benchmarkRecommend(b, recommendFullSort)
}

func ExampleModel_Recommend() {
	ds, _ := Synthesize("netflix", 0.0002, 9)
	s, _ := NewSession(ds, WithWorkers(2), WithSeed(2), WithStopConditions(MaxEpochs(5)))
	res, _ := s.Run(nil)
	recs := res.Model.Recommend(ds, 0, 3)
	fmt.Println(len(recs))
	// Output: 3
}

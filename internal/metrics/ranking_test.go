package metrics

import (
	"math"
	"testing"

	"nomad/internal/factor"
	"nomad/internal/sparse"
)

// rankFixture: 2 users, 4 items. The model scores items by index
// descending for user 0 (item 0 best) and ascending for user 1.
func rankFixture(t *testing.T) (*factor.Model, *sparse.Matrix) {
	t.Helper()
	md := factor.New(2, 4, 1)
	copy(md.UserRow(0), []float64{1})
	copy(md.UserRow(1), []float64{-1})
	for j := 0; j < 4; j++ {
		copy(md.ItemRow(j), []float64{float64(3 - j)}) // scores 3,2,1,0 for user 0
	}
	train, err := sparse.FromEntries(2, 4, []sparse.Entry{
		{Row: 0, Col: 3, Val: 5}, // user 0 already rated item 3
	})
	if err != nil {
		t.Fatal(err)
	}
	return md, train
}

func TestRankingPerfectTop1(t *testing.T) {
	md, train := rankFixture(t)
	// User 0's relevant held-out item is item 0, which the model ranks
	// first among unrated items → precision@1 = recall@1 = ndcg@1 = 1.
	test := []sparse.Entry{{Row: 0, Col: 0, Val: 5}}
	rep := Ranking(md, train, test, 1, 4.0)
	if rep.Users != 1 || rep.PrecisionK != 1 || rep.RecallK != 1 || rep.NDCGK != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRankingMissAtK1(t *testing.T) {
	md, train := rankFixture(t)
	// Relevant item 2 is ranked third for user 0 → top-1 misses it.
	test := []sparse.Entry{{Row: 0, Col: 2, Val: 5}}
	rep := Ranking(md, train, test, 1, 4.0)
	if rep.PrecisionK != 0 || rep.RecallK != 0 || rep.NDCGK != 0 {
		t.Fatalf("report = %+v", rep)
	}
	// At k=3 it is found, at rank 3: precision 1/3, recall 1, ndcg 1/log2(4).
	rep = Ranking(md, train, test, 3, 4.0)
	if math.Abs(rep.PrecisionK-1.0/3) > 1e-12 || rep.RecallK != 1 {
		t.Fatalf("report@3 = %+v", rep)
	}
	wantNDCG := (1 / math.Log2(4)) / 1
	if math.Abs(rep.NDCGK-wantNDCG) > 1e-12 {
		t.Fatalf("ndcg = %v, want %v", rep.NDCGK, wantNDCG)
	}
}

func TestRankingExcludesTrainedItems(t *testing.T) {
	md, train := rankFixture(t)
	// Item 3 is in user 0's training row; even though its test rating
	// is relevant it cannot appear among candidates, so the user's
	// only relevant candidate is unreachable → recall 0.
	test := []sparse.Entry{{Row: 0, Col: 3, Val: 5}}
	rep := Ranking(md, train, test, 4, 4.0)
	if rep.RecallK != 0 {
		t.Fatalf("trained item leaked into ranking: %+v", rep)
	}
}

func TestRankingSkipsUsersWithoutRelevantItems(t *testing.T) {
	md, train := rankFixture(t)
	test := []sparse.Entry{{Row: 1, Col: 0, Val: 1}} // below threshold
	rep := Ranking(md, train, test, 2, 4.0)
	if rep.Users != 0 {
		t.Fatalf("irrelevant user evaluated: %+v", rep)
	}
}

func TestRankingMultipleUsersAveraged(t *testing.T) {
	md, train := rankFixture(t)
	// User 0: relevant item 0, ranked 1st → precision@1 = 1.
	// User 1: model ranks item 3 first (score ascending); relevant
	// item 0 is ranked last → precision@1 = 0.
	test := []sparse.Entry{
		{Row: 0, Col: 0, Val: 5},
		{Row: 1, Col: 0, Val: 5},
	}
	rep := Ranking(md, train, test, 1, 4.0)
	if rep.Users != 2 || math.Abs(rep.PrecisionK-0.5) > 1e-12 {
		t.Fatalf("averaged report = %+v", rep)
	}
}

func TestRankingDefaultK(t *testing.T) {
	md, train := rankFixture(t)
	test := []sparse.Entry{{Row: 0, Col: 0, Val: 5}}
	rep := Ranking(md, train, test, 0, 4.0)
	if rep.K != 10 {
		t.Fatalf("default K = %d", rep.K)
	}
}

// TestRankingDeterministic: the report is a float sum over users, so
// it must visit them in one order. Two calls on one model and split
// with hundreds of test users return the same bits.
func TestRankingDeterministic(t *testing.T) {
	const m, n = 600, 60
	md := factor.NewInit(m, n, 8, 3)
	b := sparse.NewBuilder(m, n, 0)
	var test []sparse.Entry
	for i := 0; i < m; i++ {
		for x := 0; x < 3; x++ {
			b.Add(i, (i*7+x)%n, 3)
			test = append(test, sparse.Entry{Row: int32(i), Col: int32((i*11 + 20 + x) % n), Val: float64(3 + x)})
		}
	}
	train, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	first := Ranking(md, train, test, 5, 4.0)
	if first.Users < 500 {
		t.Fatalf("only %d users with relevant items", first.Users)
	}
	for call := 0; call < 4; call++ {
		rep := Ranking(md, train, test, 5, 4.0)
		if math.Float64bits(rep.PrecisionK) != math.Float64bits(first.PrecisionK) ||
			math.Float64bits(rep.RecallK) != math.Float64bits(first.RecallK) ||
			math.Float64bits(rep.NDCGK) != math.Float64bits(first.NDCGK) {
			t.Fatalf("call %d: %+v, first call %+v", call+2, rep, first)
		}
	}
}

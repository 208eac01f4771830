package metrics

import (
	"math"
	"sort"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/sparse"
	"nomad/internal/vecmath"
)

// RankingReport summarizes top-N recommendation quality on a test set:
// for each test user, the model ranks the items it was not trained on,
// and the user's held-out highly rated items count as relevant.
type RankingReport struct {
	Users      int     // test users evaluated
	PrecisionK float64 // mean fraction of top-K that is relevant
	RecallK    float64 // mean fraction of relevant items found in top-K
	NDCGK      float64 // mean normalized discounted cumulative gain
	K          int
}

// Ranking evaluates top-K recommendation quality. An item is relevant
// to a user if their held-out test rating for it is at least relevant
// (e.g. 4.0 on a 5-star scale, or 0 for centered data). Items in the
// user's training row are excluded from the candidate list, mirroring
// deployment. Users with no relevant test items are skipped.
func Ranking(md *factor.Model, train *sparse.Matrix, test []sparse.Entry, k int, relevant float64) RankingReport {
	if k <= 0 {
		k = 10
	}
	// Users in ascending order, each one's relevant items in split
	// order, so the report's float sums run in one order every call.
	ix := dataset.IndexTest(train.Rows(), test)
	rep := RankingReport{K: k}
	predict := predictor[float64]
	if md.Precision() == factor.Float32 {
		predict = predictor[float32]
	}
	score := predict(md)
	type scored struct {
		item  int32
		score float64
	}
	candidates := make([]scored, 0, md.N)
	var rel []int32
	for user := 0; user < ix.Users(); user++ {
		rel = rel[:0]
		for x := ix.Offsets[user]; x < ix.Offsets[user+1]; x++ {
			if ix.Vals[x] >= relevant {
				rel = append(rel, ix.Items[x])
			}
		}
		if len(rel) == 0 {
			continue
		}
		// Rank all items the user has not rated in training.
		candidates = candidates[:0]
		trainCols, _ := train.Row(user)
		rated := make(map[int32]bool, len(trainCols))
		for _, j := range trainCols {
			rated[j] = true
		}
		for j := 0; j < md.N; j++ {
			if rated[int32(j)] {
				continue
			}
			candidates = append(candidates, scored{item: int32(j), score: score(user, j)})
		}
		if len(candidates) == 0 {
			continue
		}
		sort.Slice(candidates, func(a, b int) bool {
			if candidates[a].score != candidates[b].score {
				return candidates[a].score > candidates[b].score
			}
			return candidates[a].item < candidates[b].item
		})
		top := candidates
		if len(top) > k {
			top = top[:k]
		}
		relSet := make(map[int32]bool, len(rel))
		for _, j := range rel {
			relSet[j] = true
		}
		hits := 0
		var dcg float64
		for rank, c := range top {
			if relSet[c.item] {
				hits++
				dcg += 1 / math.Log2(float64(rank)+2)
			}
		}
		var idcg float64
		ideal := len(rel)
		if ideal > k {
			ideal = k
		}
		for rank := 0; rank < ideal; rank++ {
			idcg += 1 / math.Log2(float64(rank)+2)
		}
		rep.Users++
		rep.PrecisionK += float64(hits) / float64(len(top))
		rep.RecallK += float64(hits) / float64(len(rel))
		if idcg > 0 {
			rep.NDCGK += dcg / idcg
		}
	}
	if rep.Users > 0 {
		rep.PrecisionK /= float64(rep.Users)
		rep.RecallK /= float64(rep.Users)
		rep.NDCGK /= float64(rep.Users)
	}
	return rep
}

// predictor returns md.Predict for a model of precision T with the dot
// kernel selected once, for loops that predict in bulk.
func predictor[T vecmath.Float](md *factor.Model) func(i, j int) float64 {
	w, h := factor.Flat[T](md)
	k, dot := md.K, vecmath.DotKernelOf[T](md.K)
	return func(i, j int) float64 { return float64(dot(w[i*k:(i+1)*k], h[j*k:(j+1)*k])) }
}

package core

import (
	"bytes"
	"slices"
	"testing"

	"nomad/internal/factor"
	"nomad/internal/loss"
	"nomad/internal/rng"
	"nomad/internal/train"
	"nomad/internal/vecmath"
)

const (
	lanesItems = 2*meshBlock + 16
	lanesUsers = 600
)

// lanesDegree is how many local ratings item j of lanesFixture has:
// j%8 == 3 none, j%8 == 5 a few (under laneMin: a barrier), j%8 == 7
// exactly laneMin, the rest a long list.
func lanesDegree(r *rng.Source, j int) int {
	switch j % 8 {
	case 3:
		return 0
	case 5:
		return 1 + r.Intn(laneMin-1)
	case 7:
		return laneMin
	}
	return laneMin + 1 + r.Intn(lanesUsers/2)
}

// lanesFixture is one worker's state for the lane tests: a model, and
// rating lists ascending by user (as buildShard leaves them) over
// users [userLo, userHi), cut at midUser.
func lanesFixture(prec factor.Precision, userLo, userHi, midUser int) (*factor.Model, *localRatings, train.Config) {
	const k = 16
	r := rng.New(23)
	lr := &localRatings{colPtr: make([]int32, lanesItems+1), midUser: int32(midUser)}
	pool := make([]int32, userHi-userLo)
	for j := 0; j < lanesItems; j++ {
		for i := range pool {
			pool[i] = int32(userLo + i)
		}
		r.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		list := pool[:min(lanesDegree(r, j), len(pool))]
		slices.Sort(list)
		for _, u := range list {
			lr.users = append(lr.users, u)
			lr.vals = append(lr.vals, float64(1+r.Intn(5)))
		}
		lr.colPtr[j+1] = int32(len(lr.users))
	}
	lr.counts = make([]int32, len(lr.users))
	cfg := train.Config{K: k, Lambda: 0.05, Alpha: 0.05, Beta: 0.02, Loss: loss.Square{}, Precision: prec}
	return factor.NewInitP(lanesUsers, lanesItems, k, 7, prec), lr, cfg
}

// withPair makes sure hp has a two-list kernel — the dispatched one, or
// where the dispatch has none (other GOARCHes, either kernel switch) a
// stand-in that alternates single ratings through hp's own item pass,
// which is all runBlock needs of it — and counts the calls.
func withPair[T vecmath.Float](hp *hotPath[T], calls *int) {
	pair := hp.pair
	hp.pair = func(w []T, a, b vecmath.ItemList[T], lambda T, steps []float64, slow func(int) float64) {
		*calls++
		if pair != nil {
			pair(w, a, b, lambda, steps, slow)
			return
		}
		for x := 0; x < min(len(a.Users), len(b.Users)); x++ {
			hp.itemSGD(a.Users[x:x+1], a.Vals[x:x+1], a.Counts[x:x+1], a.H)
			hp.itemSGD(b.Users[x:x+1], b.Vals[x:x+1], b.Counts[x:x+1], b.H)
		}
	}
}

// tokenOrder is the oracle: the block loop as it was before the lanes,
// one token after the other, each list whole.
func tokenOrder[T vecmath.Float](hp *hotPath[T], lr *localRatings, block []int32) {
	for _, j := range block {
		usersJ, vals, counts := lr.itemRatings(int(j))
		hp.itemSGDItem(int(j), usersJ, vals, counts)
	}
}

// laneState is everything a block leaves behind: the model's bytes and
// the per-rating counts.
func laneState(t *testing.T, md *factor.Model, lr *localRatings) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := md.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	for _, c := range lr.counts {
		buf.Write([]byte{byte(c), byte(c >> 8), byte(c >> 16), byte(c >> 24)})
	}
	return buf.Bytes()
}

// lanesBlocks are the block shapes the lane tests run, as item ids.
func lanesBlocks() map[string][]int32 {
	seq := func(n int, pick func(i int) int32) []int32 {
		b := make([]int32, n)
		for i := range b {
			b[i] = pick(i)
		}
		return b
	}
	return map[string][]int32{
		"one long token":  {0},
		"one short token": {5},
		"full block":      seq(meshBlock, func(i int) int32 { return int32(lanesItems - meshBlock + i) }),
		"all short":       seq(12, func(i int) int32 { return int32(8*i + 5) }),
		"all long":        seq(meshBlock, func(i int) int32 { return int32(8*(i/6) + []int{0, 1, 2, 4, 6, 7}[i%6]) }),
		"barrier amid":    {0, 1, 2, 5, 4, 6, 8},
		"empty items":     {3, 0, 11, 1, 19, 3 + 8*3, 2},
		"ends on barrier": {0, 1, 13},
	}
}

// TestLanesEqualTokenOrder: runBlock with the lanes on must leave, for
// every block shape and both precisions, the bytes the token-by-token
// loop leaves — W, H and counts — and call begin and finish once per
// token in token order with the token's rating count; and it must have
// paired something whenever two long tokens were there to pair. The
// shapes include users all on one side of midUser (either side), where
// one lane has nothing to do.
func TestLanesEqualTokenOrder(t *testing.T) {
	testLanesEqualTokenOrder[float64](t, factor.Float64)
	testLanesEqualTokenOrder[float32](t, factor.Float32)
}

func testLanesEqualTokenOrder[T vecmath.Float](t *testing.T, prec factor.Precision) {
	for _, cut := range []struct {
		name            string
		lo, hi, midUser int
	}{
		{"median", 0, lanesUsers, lanesUsers / 2},
		{"skewed", 0, lanesUsers, lanesUsers / 10},
		{"all high", 100, lanesUsers, 100},
		{"all low", 0, lanesUsers - 50, lanesUsers},
	} {
		for name, block := range lanesBlocks() {
			md, lr, cfg := lanesFixture(prec, cut.lo, cut.hi, cut.midUser)
			hp := newHotPath[T](md, cfg)
			mdRef, lrRef, _ := lanesFixture(prec, cut.lo, cut.hi, cut.midUser)
			hpRef := newHotPath[T](mdRef, cfg)
			pairs := 0
			withPair(hp, &pairs)

			var begun, finished []int
			long := 0
			// Twice over the same block: the second pass meets moved counts.
			for pass := 0; pass < 2; pass++ {
				tokenOrder(hpRef, lrRef, block)
				done := hp.runBlock(lr, block, true, func(n int) bool {
					begun = append(begun, n)
					return true
				}, func(i, n int) bool {
					finished = append(finished, i, n)
					return false
				})
				if done != len(block) {
					t.Fatalf("%v %s %q: %d of %d tokens done with no stop", prec, cut.name, name, done, len(block))
				}
			}
			var wantBegun, wantFinished []int
			for pass := 0; pass < 2; pass++ {
				for i, j := range block {
					n := int(lr.colPtr[j+1] - lr.colPtr[j])
					if wantBegun, wantFinished = append(wantBegun, n), append(wantFinished, i, n); n >= laneMin {
						long++
					}
				}
			}
			if !slices.Equal(begun, wantBegun) || !slices.Equal(finished, wantFinished) {
				t.Errorf("%v %s %q: begin %v finish %v, want %v and %v", prec, cut.name, name, begun, finished, wantBegun, wantFinished)
			}
			if !bytes.Equal(laneState(t, md, lr), laneState(t, mdRef, lrRef)) {
				t.Errorf("%v %s %q: factors or counts differ from the token-by-token loop", prec, cut.name, name)
			}
			if adjacentLong := name == "full block" || name == "all long" || name == "barrier amid"; adjacentLong && cut.name == "median" && pairs == 0 {
				t.Errorf("%v %s %q: long tokens next to each other and nothing ran paired", prec, cut.name, name)
			}
			if cut.name == "all high" || cut.name == "all low" || long == 0 {
				if pairs != 0 {
					t.Errorf("%v %s %q: %d paired calls with one lane empty", prec, cut.name, name, pairs)
				}
			}
		}
	}
}

// TestLanesStopLeavesWholeTokens raises the stop at every token of a
// mixed block, once from finish (another worker or the monitor stopped
// the run: the lanes complete what they have begun) and once from begin
// (the budget shadow: nothing past the crossing token starts). Either
// way the tokens runBlock reports done are a prefix of the block, at
// least up to the stop; the state is exactly the token-by-token loop's
// over that prefix — so nothing is half-applied and no parked token was
// touched — and finish ran once for each, in order.
func TestLanesStopLeavesWholeTokens(t *testing.T) {
	testLanesStopLeavesWholeTokens[float64](t, factor.Float64)
	testLanesStopLeavesWholeTokens[float32](t, factor.Float32)
}

func testLanesStopLeavesWholeTokens[T vecmath.Float](t *testing.T, prec factor.Precision) {
	block := []int32{0, 1, 5, 2, 4, 3, 6, 8, 13, 9, 10, 12, 7, 14}
	for _, fromBegin := range []bool{false, true} {
		for at := range block {
			md, lr, cfg := lanesFixture(prec, 0, lanesUsers, lanesUsers/3)
			hp := newHotPath[T](md, cfg)
			pairs := 0
			withPair(hp, &pairs)

			begun := 0
			var finished []int
			done := hp.runBlock(lr, block, true, func(int) bool {
				begun++
				return !fromBegin || begun <= at+1 // token `at` is the last to start
			}, func(i, _ int) bool {
				finished = append(finished, i)
				return !fromBegin && i >= at
			})
			if done <= at || done > len(block) || (fromBegin && done != at+1) {
				t.Fatalf("%v begin=%v stop at %d: %d tokens done", prec, fromBegin, at, done)
			}
			want := make([]int, done)
			for i := range want {
				want[i] = i
			}
			if !slices.Equal(finished, want) {
				t.Errorf("%v begin=%v stop at %d: finish order %v, %d done", prec, fromBegin, at, finished, done)
			}
			mdRef, lrRef, _ := lanesFixture(prec, 0, lanesUsers, lanesUsers/3)
			hpRef := newHotPath[T](mdRef, cfg)
			tokenOrder(hpRef, lrRef, block[:done])
			if !bytes.Equal(laneState(t, md, lr), laneState(t, mdRef, lrRef)) {
				t.Errorf("%v begin=%v stop at %d: state is not that of tokens [0, %d) applied whole", prec, fromBegin, at, done)
			}
		}
	}
}

// TestLanesOffIsTokenOrder: with lanes off (the straggler, or no
// two-list kernel) runBlock is the old loop — same bytes, no pairing,
// no allocation either way.
func TestLanesOffIsTokenOrder(t *testing.T) {
	block := lanesBlocks()["full block"]
	for _, lanes := range []bool{false, true} {
		md, lr, cfg := lanesFixture(factor.Float64, 0, lanesUsers, lanesUsers/2)
		hp := newHotPath[float64](md, cfg)
		pairs := 0
		withPair(hp, &pairs)
		mdRef, lrRef, _ := lanesFixture(factor.Float64, 0, lanesUsers, lanesUsers/2)
		hpRef := newHotPath[float64](mdRef, cfg)
		tokenOrder(hpRef, lrRef, block)
		begin, finish := func(int) bool { return true }, func(int, int) bool { return false }
		hp.runBlock(lr, block, lanes, begin, finish)
		if !bytes.Equal(laneState(t, md, lr), laneState(t, mdRef, lrRef)) {
			t.Errorf("lanes=%v: state differs from the token-by-token loop", lanes)
		}
		if !lanes && pairs != 0 {
			t.Errorf("lanes off: %d paired calls", pairs)
		}
		if a := testing.AllocsPerRun(10, func() { hp.runBlock(lr, block, lanes, begin, finish) }); a != 0 {
			t.Errorf("lanes=%v: runBlock allocates %.1f times per block", lanes, a)
		}
	}
}

// TestMidUserIsTheRatingMassMedian: buildShard cuts each worker's
// users where half of its local ratings lie below.
func TestMidUserIsTheRatingMassMedian(t *testing.T) {
	ds := testData(t)
	for _, p := range []int{1, 2, 3} {
		users := partitionUsers(ds, train.Config{}, p)
		for q, lr := range buildShards(ds.Train, users, 0, p, nil) {
			below := 0
			for _, u := range lr.users {
				if u < lr.midUser {
					below++
				}
			}
			// The cut is the first user boundary at or past half the mass,
			// so it overshoots half by less than one user's ratings.
			maxDeg := 0
			for _, i := range users.Part(q) {
				maxDeg = max(maxDeg, ds.Train.RowDegree(int(i)))
			}
			if 2*below < lr.nnz() || 2*(below-maxDeg) >= lr.nnz() && lr.nnz() > 0 {
				t.Errorf("p=%d worker %d: %d of %d ratings below midUser %d (largest user %d)", p, q, below, lr.nnz(), lr.midUser, maxDeg)
			}
		}
	}
}

package core

import (
	"bytes"
	"testing"

	"nomad/internal/factor"
	"nomad/internal/loss"
	"nomad/internal/train"
	"nomad/internal/vecmath"
)

// prefetchFixture is one worker's state over a shape chosen for the
// block pipeline's edges: more items than a block holds, a first and a
// last item with no local ratings (so the last offsets equal
// len(users)), single-rating items, and lists longer than prefetchRows
// that name both the first and the last user row.
func prefetchFixture(prec factor.Precision) (*factor.Model, *localRatings, train.Config) {
	const m, n, k = 50, meshBlock + 6, 16
	lr := &localRatings{colPtr: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		var deg int
		switch {
		case j == 0 || j == n-1 || j%7 == 3:
			deg = 0
		case j%5 == 0:
			deg = prefetchRows + 4
		default:
			deg = 1 + j%3
		}
		for x := 0; x < deg; x++ {
			u := (j*13 + x*7) % m
			if x == 0 {
				u = 0
			} else if x == deg-1 {
				u = m - 1
			}
			lr.users = append(lr.users, int32(u))
			lr.vals = append(lr.vals, float64(1+(j+x)%5))
		}
		lr.colPtr[j+1] = int32(len(lr.users))
	}
	lr.counts = make([]int32, len(lr.users))
	cfg := train.Config{K: k, Lambda: 0.05, Alpha: 0.05, Beta: 0.02, Loss: loss.Square{}, Precision: prec}
	return factor.NewInitP(m, n, k, 7, prec), lr, cfg
}

// trainBlock runs one popped block the way the block loop does — look
// ahead, then SGD on the token's model row — with the look-ahead
// optionally left out.
func trainBlock[T vecmath.Float](hp *hotPath[T], lr *localRatings, block []int, ahead bool) {
	item := func(i int) int {
		if i < len(block) {
			return block[i]
		}
		return -1
	}
	for i, j := range block {
		if ahead {
			hp.prefetchAhead(lr, item(i+1), item(i+2), item(i+3))
		}
		usersJ, vals, counts := lr.itemRatings(j)
		hp.itemSGDItem(j, usersJ, vals, counts)
	}
}

// TestPrefetchAheadTouchesNothing drives the block pipeline over blocks
// of one token, of a full meshBlock ending on the last item id, and of
// nothing but items without local ratings, in both precisions, and
// requires what the prefetch contract promises: no index out of range,
// no allocation, and factors bit-identical to the same blocks trained
// without it.
func TestPrefetchAheadTouchesNothing(t *testing.T) {
	testPrefetchAheadTouchesNothing[float64](t, factor.Float64)
	testPrefetchAheadTouchesNothing[float32](t, factor.Float32)
}

func testPrefetchAheadTouchesNothing[T vecmath.Float](t *testing.T, prec factor.Precision) {
	n := meshBlock + 6
	full := make([]int, meshBlock)
	for i := range full {
		full[i] = n - meshBlock + i // ends on the last item id
	}
	blocks := [][]int{{5}, {n - 1}, full, {0, 3, n - 1}, {n - 1, 10, 0, 5, 5, 2}}

	var models [2]bytes.Buffer
	for side, ahead := range []bool{false, true} {
		md, lr, cfg := prefetchFixture(prec)
		hp := newHotPath[T](md, cfg)
		for _, block := range blocks {
			trainBlock(hp, lr, block, ahead)
		}
		if err := md.WriteBinary(&models[side]); err != nil {
			t.Fatal(err)
		}
		if !ahead {
			continue
		}
		// Items past either end are "no such token", not an index.
		hp.prefetchAhead(lr, n, n+1, 1<<30)
		hp.prefetchAhead(lr, -1, -1, -1)
		if a := testing.AllocsPerRun(10, func() { trainBlock(hp, lr, full, true) }); a != 0 {
			t.Errorf("%v: block pipeline allocates %.1f times per block", prec, a)
		}
	}
	if !bytes.Equal(models[0].Bytes(), models[1].Bytes()) {
		t.Errorf("%v: factors differ with the look-ahead on", prec)
	}
}

package core

import (
	"bytes"
	"testing"

	"nomad/internal/factor"
	"nomad/internal/loss"
	"nomad/internal/train"
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

// trainBlock runs one popped block the way the block loops do — look
// ahead, then SGD on the token — with the item vector either in the
// model (shared memory) or travelling beside it (distributed), and with
// the look-ahead optionally left out.
func trainBlock(hp *hotPath, lr *localRatings, block []int, vecs [][]float64, ahead bool) {
	k := len(block)
	for i, j := range block {
		if ahead {
			j1, j2, j3, vec2 := -1, -1, -1, []float64(nil)
			if i+1 < k {
				j1 = block[i+1]
			}
			if i+2 < k {
				j2 = block[i+2]
				if vecs != nil {
					vec2 = vecs[j2]
				}
			}
			if i+3 < k {
				j3 = block[i+3]
			}
			hp.prefetchAhead(lr, j1, j2, j3, vec2)
		}
		usersJ, vals, counts := lr.itemRatings(j)
		if vecs != nil {
			hp.itemSGDVec(j, usersJ, vals, counts, vecs[j])
		} else {
			hp.itemSGDItem(j, usersJ, vals, counts)
		}
	}
}

// TestPrefetchAheadTouchesNothing drives the block pipeline over blocks
// of one token, of a full meshBlock ending on the last item id, and of
// nothing but items without local ratings, in both precisions and both
// token shapes, and requires what the prefetch contract promises: no
// index out of range, no allocation, and factors bit-identical to the
// same blocks trained without it.
func TestPrefetchAheadTouchesNothing(t *testing.T) {
	n := meshBlock + 6
	full := make([]int, meshBlock)
	for i := range full {
		full[i] = n - meshBlock + i // ends on the last item id
	}
	blocks := [][]int{{5}, {n - 1}, full, {0, 3, n - 1}, {n - 1, 10, 0, 5, 5, 2}}

	for _, prec := range []factor.Precision{factor.Float64, factor.Float32} {
		for _, dist := range []bool{false, true} {
			var models [2]bytes.Buffer
			for side, ahead := range []bool{false, true} {
				md, lr, cfg := prefetchFixture(prec)
				hp := newHotPath(md, cfg.Schedule(), cfg)
				var vecs [][]float64
				if dist {
					vecs = make([][]float64, n)
					for j := range vecs {
						vecs[j] = make([]float64, cfg.K)
						md.CopyItemRowTo64(j, vecs[j])
					}
				}
				for _, block := range blocks {
					trainBlock(&hp, lr, block, vecs, ahead)
				}
				if err := md.WriteBinary(&models[side]); err != nil {
					t.Fatal(err)
				}
				if !ahead {
					continue
				}
				// Items past either end are "no such token", not an index.
				hp.prefetchAhead(lr, n, n+1, 1<<30, nil)
				hp.prefetchAhead(lr, -1, -1, -1, nil)
				if a := testing.AllocsPerRun(10, func() { trainBlock(&hp, lr, full, vecs, true) }); a != 0 {
					t.Errorf("%v dist=%v: block pipeline allocates %.1f times per block", prec, dist, a)
				}
			}
			if !bytes.Equal(models[0].Bytes(), models[1].Bytes()) {
				t.Errorf("%v dist=%v: factors differ with the look-ahead on", prec, dist)
			}
		}
	}
}

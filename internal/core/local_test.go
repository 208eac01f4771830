package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"nomad/internal/partition"
	"nomad/internal/sparse"
	"nomad/internal/train"
)

// filterShard is the oracle for buildShard: worker q's ratings are the
// entries of train.Col(j) whose user q owns, item by item, in the CSC
// order — no counting sort, no row view.
func filterShard(tr *sparse.Matrix, users *partition.Partition, q int) (colPtr, us []int32, vals []float64) {
	colPtr = []int32{0}
	for j := 0; j < tr.Cols(); j++ {
		rows, pos := tr.Col(j)
		for x, i := range rows {
			if users.Owner(int(i)) == q {
				us = append(us, i)
				vals = append(vals, tr.ValAt(pos[x]))
			}
		}
		colPtr = append(colPtr, int32(len(us)))
	}
	return colPtr, us, vals
}

// massMedian is the oracle for midUser: one past the smallest user at
// which the shard's ratings on users up to it reach half of them, or 0
// for an empty shard.
func massMedian(us []int32) int32 {
	sorted := slices.Clone(us)
	slices.Sort(sorted)
	for x, u := range sorted {
		if 2*(x+1) >= len(sorted) && (x+1 == len(sorted) || sorted[x+1] != u) {
			return u + 1
		}
	}
	return 0
}

// stepCount is a recognisable per-rating count for the resume round
// trip.
func stepCount(i, j int32) int32 { return i*1009 + j + 1 }

// TestShardsMatchFilterOracle checks every shard buildShards makes
// against filterShard, for equal-range and rating-balanced user
// partitions over 1, 2, 3 and 5 workers: same item offsets, same users
// in the same (ascending) order, bit-equal values, the rating-mass
// median, zero counts on a fresh build, and checkpoint counts that
// survive exportCounts → buildShards. A multi-process rank's build of
// only its own workers must equal those workers' shards of the full
// build, and its exportCounts stream must be the full stream with the
// other ranks' users zeroed.
func TestShardsMatchFilterOracle(t *testing.T) {
	ds := testData(t)
	tr := ds.Train
	for _, balance := range []bool{false, true} {
		for _, p := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("balance=%v/p=%d", balance, p), func(t *testing.T) {
				users := partitionUsers(ds, train.Config{BalanceUsers: balance}, p)
				local := buildShards(tr, users, 0, p, nil)
				if len(local) != p {
					t.Fatalf("%d shards for %d workers", len(local), p)
				}
				for q, lr := range local {
					colPtr, us, vals := filterShard(tr, users, q)
					if !slices.Equal(lr.colPtr, colPtr) || !slices.Equal(lr.users, us) {
						t.Fatalf("worker %d: shard layout differs from the CSC filter", q)
					}
					for x := range vals {
						if math.Float64bits(lr.vals[x]) != math.Float64bits(vals[x]) {
							t.Fatalf("worker %d rating %d: value %v, want %v", q, x, lr.vals[x], vals[x])
						}
					}
					if want := massMedian(us); lr.midUser != want {
						t.Errorf("worker %d: midUser %d, want %d", q, lr.midUser, want)
					}
					if len(lr.counts) != len(us) || slices.ContainsFunc(lr.counts, func(c int32) bool { return c != 0 }) {
						t.Errorf("worker %d: a fresh shard's counts are not %d zeros", q, len(us))
					}
				}

				// Resume round trip: exportCounts lays the counts out in
				// CSC order, and a build from that layout restores them.
				for _, lr := range local {
					for j := 0; j < tr.Cols(); j++ {
						us, _, counts := lr.itemRatings(j)
						for x, i := range us {
							counts[x] = stepCount(i, int32(j))
						}
					}
				}
				canon := exportCounts(tr, users, local, 0)
				g := 0
				for j := 0; j < tr.Cols(); j++ {
					rows, _ := tr.Col(j)
					for _, i := range rows {
						if canon[g] != stepCount(i, int32(j)) {
							t.Fatalf("exported count of (%d,%d) is %d, want %d", i, j, canon[g], stepCount(i, int32(j)))
						}
						g++
					}
				}
				for q, lr := range buildShards(tr, users, 0, p, canon) {
					if !slices.Equal(lr.counts, local[q].counts) {
						t.Fatalf("worker %d: counts did not survive the round trip", q)
					}
				}

				// A multi-process cluster of p/W ranks with W workers each:
				// a rank builds workers [rank·W, rank·W+W) only.
				for W := 1; W <= p; W++ {
					if p%W != 0 {
						continue
					}
					for rank := 0; rank < p/W; rank++ {
						own := buildShards(tr, users, rank*W, rank*W+W, canon)
						if len(own) != W {
							t.Fatalf("W=%d rank %d built %d shards", W, rank, len(own))
						}
						for w, lr := range own {
							full := local[rank*W+w]
							if !slices.Equal(lr.users, full.users) || !slices.Equal(lr.counts, full.counts) || lr.midUser != full.midUser {
								t.Fatalf("W=%d rank %d: its shard %d differs from the full build's", W, rank, w)
							}
						}
						var want []int32
						g := 0
						for j := 0; j < tr.Cols(); j++ {
							rows, _ := tr.Col(j)
							for _, i := range rows {
								c := int32(0)
								if users.Owner(int(i))/W == rank {
									c = canon[g]
								}
								want = append(want, c)
								g++
							}
						}
						if got := exportCounts(tr, users, own, rank*W); !slices.Equal(got, want) {
							t.Fatalf("W=%d rank %d: its exportCounts stream is not the full stream with other ranks' users zeroed", W, rank)
						}
					}
				}
			})
		}
	}
}

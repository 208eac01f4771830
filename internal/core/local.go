package core

import (
	"sync"

	"nomad/internal/dataset"
	"nomad/internal/partition"
	"nomad/internal/sparse"
	"nomad/internal/train"
)

// localRatings is one worker's private, item-grouped view of the
// training ratings: for each item j it stores the ratings Ω̄ⱼ^(q) whose
// users are owned by worker q (§3.1). Alongside each rating it keeps
// the per-(i,j) update count t that drives the step-size schedule of
// eq. (11). All of this state is worker-local by construction — the
// reason NOMAD needs no locks around it.
type localRatings struct {
	colPtr []int32 // n+1 offsets into the arrays below
	users  []int32 // global user index of each rating
	vals   []float64
	counts []int32 // updates applied to this (i,j) so far

	// midUser cuts the worker's users at its rating-mass median: about
	// half of the local ratings are on users below it. Within an item's
	// list (ascending by user) it is where lane L's share ends and lane
	// H's begins (lanes.go). Derived from the matrix; never checkpointed.
	midUser int32
}

// itemRatings returns the users, values and per-rating update counts
// of worker-local ratings on item j. Returning the counts window
// directly keeps the hot loop's accesses at a plain counts[x] instead
// of re-deriving base+x offsets into the full array per rating.
func (lr *localRatings) itemRatings(j int) (users []int32, vals []float64, counts []int32) {
	lo, hi := lr.colPtr[j], lr.colPtr[j+1]
	return lr.users[lo:hi], lr.vals[lo:hi], lr.counts[lo:hi]
}

// nnz returns the number of worker-local ratings.
func (lr *localRatings) nnz() int { return len(lr.users) }

// resumeCounts is the per-rating step counts a run restores: nil for a
// fresh run, whose shards start at zero.
func resumeCounts(st *train.State, ds *dataset.Dataset) []int32 {
	if st == nil {
		return nil
	}
	return st.CountsFor(ds.Train.NNZ())
}

// buildShards builds the stores of workers [lo, hi) of the users'
// partition, one goroutine per shard, and returns them indexed from
// lo. A run builds the shards its own workers train and no other: all
// p for shared memory and the in-process distributed runner, the W of
// its own rank for a multi-process rank. With counts set (a checkpoint's
// canonical CSC-ordered step counts) each shard also restores its own.
func buildShards(train *sparse.Matrix, users *partition.Partition, lo, hi int, counts []int32) []*localRatings {
	out := make([]*localRatings, hi-lo)
	var wg sync.WaitGroup
	for q := lo; q < hi; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[q-lo] = buildShard(train, users, q, counts)
		}()
	}
	wg.Wait()
	return out
}

// buildShard builds worker q's store from the training rows of the
// users it owns: a two-pass counting sort of those rows by item,
// O(nnz_q + n). Part(q) lists the users ascending, so every item's
// list comes out ascending by user.
func buildShard(train *sparse.Matrix, users *partition.Partition, q int, counts []int32) *localRatings {
	n := train.Cols()
	own := users.Part(q)
	lr := &localRatings{colPtr: make([]int32, n+1)}
	for _, i := range own {
		cols, _ := train.Row(int(i))
		for _, j := range cols {
			lr.colPtr[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		lr.colPtr[j+1] += lr.colPtr[j]
	}
	total := lr.colPtr[n]
	lr.users = make([]int32, total)
	lr.vals = make([]float64, total)
	lr.counts = make([]int32, total)
	next := make([]int32, n)
	copy(next, lr.colPtr[:n])
	var below int32
	for _, i := range own {
		cols, vals := train.Row(int(i))
		if 2*below < total {
			below += int32(len(cols))
			lr.midUser = i + 1
		}
		for x, j := range cols {
			c := next[j]
			lr.users[c] = i
			lr.vals[c] = vals[x]
			next[j] = c + 1
		}
	}
	if counts != nil {
		lr.importCounts(train, users, q, counts)
	}
	return lr
}

// importCounts restores worker q's step counts from canonical
// CSC-ordered counts (exportCounts' layout): the shard stores its
// ratings item by item, ascending by user, which is the order the CSC
// traversal meets them.
func (lr *localRatings) importCounts(train *sparse.Matrix, users *partition.Partition, q int, counts []int32) {
	c, g := 0, 0
	for j := 0; j < train.Cols(); j++ {
		rows, _ := train.Col(j)
		for _, i := range rows {
			if users.Owner(int(i)) == q {
				lr.counts[c] = counts[g]
				c++
			}
			g++
		}
	}
}

package core

import (
	"nomad/internal/partition"
	"nomad/internal/sparse"
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

// buildLocalRatings splits the training matrix by user owner into one
// item-grouped store per worker. Users' partition `users` has one part
// per worker (p parts). The split is a two-pass counting sort over the
// global CSC view, O(nnz + p·n).
func buildLocalRatings(train *sparse.Matrix, users *partition.Partition) []*localRatings {
	p := users.P()
	n := train.Cols()
	out := make([]*localRatings, p)
	for q := 0; q < p; q++ {
		out[q] = &localRatings{colPtr: make([]int32, n+1)}
	}
	// Pass 1: per-worker, per-item counts.
	for j := 0; j < n; j++ {
		rows, _ := train.Col(j)
		for _, i := range rows {
			out[users.Owner(int(i))].colPtr[j+1]++
		}
	}
	for q := 0; q < p; q++ {
		lr := out[q]
		for j := 0; j < n; j++ {
			lr.colPtr[j+1] += lr.colPtr[j]
		}
		total := lr.colPtr[n]
		lr.users = make([]int32, total)
		lr.vals = make([]float64, total)
		lr.counts = make([]int32, total)
		var below int32
		for _, i := range users.Part(q) {
			if 2*below >= total {
				break
			}
			below += int32(train.RowDegree(int(i)))
			lr.midUser = i + 1
		}
	}
	// Pass 2: fill, using a moving cursor per worker per item.
	cursor := make([][]int32, p)
	for q := 0; q < p; q++ {
		cursor[q] = make([]int32, n)
		copy(cursor[q], out[q].colPtr[:n])
	}
	for j := 0; j < n; j++ {
		rows, pos := train.Col(j)
		for x, i := range rows {
			q := users.Owner(int(i))
			c := cursor[q][j]
			out[q].users[c] = i
			out[q].vals[c] = train.ValAt(pos[x])
			cursor[q][j] = c + 1
		}
	}
	return out
}

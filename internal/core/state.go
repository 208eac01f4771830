package core

// Checkpoint plumbing for NOMAD: translating between the run's
// worker-local layout (per-worker item-grouped rating stores, parked
// token queues, split RNG streams) and the flat, layout-independent
// train.State a checkpoint carries.

import (
	"fmt"

	"nomad/internal/partition"
	"nomad/internal/queue"
	"nomad/internal/rng"
	"nomad/internal/sparse"
)

// exportCounts flattens the per-rating update counts of the shards of
// workers [lo, lo+len(local)) into the training matrix's canonical CSC
// entry order, restricted to those workers' users — all of them when
// local holds every shard, one lockstep machine's stream for
// mergeCounts otherwise. A shard stores its ratings in the order the
// CSC traversal meets them (buildShard), so replaying the traversal
// visits each shard's array in storage order.
func exportCounts(tr *sparse.Matrix, users *partition.Partition, local []*localRatings, lo int) []int32 {
	out := make([]int32, 0, tr.NNZ())
	cur := make([]int32, len(local))
	for j := 0; j < tr.Cols(); j++ {
		rows, _ := tr.Col(j)
		for _, i := range rows {
			if q := users.Owner(int(i)) - lo; q >= 0 && q < len(local) {
				out = append(out, local[q].counts[cur[q]])
				cur[q]++
			}
		}
	}
	return out
}

// forEachParked walks a token-ownership map — a checkpoint's, or what
// a runner holds at teardown — in pop order, calling park(queue, item)
// per token when park is not nil. Every item must appear exactly
// once: a duplicate would put one item row in two workers' hands and
// break the single-owner discipline that makes NOMAD race-free, so it
// is an error, as are out-of-range indices and missing items.
func forEachParked(saved [][]int32, n int, park func(qi int, item int32)) error {
	seen := make([]bool, n)
	held := 0
	for qi, items := range saved {
		for _, j := range items {
			if int(j) < 0 || int(j) >= n {
				return fmt.Errorf("item token %d out of range [0,%d)", j, n)
			}
			if seen[j] {
				return fmt.Errorf("item token %d held twice", j)
			}
			seen[j] = true
			held++
			if park != nil {
				park(qi, j)
			}
		}
	}
	if held != n {
		return fmt.Errorf("%d tokens held for %d items", held, n)
	}
	return nil
}

// restoreMesh reloads the checkpointed token-ownership map: worker
// qi's parked tokens refill its self lane in pop order; tokens beyond
// the lane's capacity preload the worker's self-destination out-buffer,
// which the worker flushes behind the lane's content — preserving the
// logical queue order that makes single-worker resume bit-compatible.
// When the map is missing (a fresh run, or a distributed checkpoint,
// which parks no tokens) or was taken with a different worker count,
// all n tokens are scattered uniformly instead, spread over source
// lanes so no lane carries the whole scatter.
func restoreMesh(mesh *queue.Mesh[itemToken], preload [][]itemToken, saved [][]int32, n int, root *rng.Source) error {
	p := mesh.P()
	if len(saved) != p {
		for j := 0; j < n; j++ {
			dst := root.Intn(p)
			if !mesh.Send(j%p, dst, itemToken{item: int32(j)}) {
				preload[dst] = append(preload[dst], itemToken{item: int32(j)})
			}
		}
		return nil
	}
	err := forEachParked(saved, n, func(qi int, item int32) {
		if !mesh.Send(qi, qi, itemToken{item: item}) {
			preload[qi] = append(preload[qi], itemToken{item: item})
		}
	})
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

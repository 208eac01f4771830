// Package fpsgd implements FPSGD** (Zhuang et al., RecSys 2013), the
// shared-memory baseline of the paper's §5.2 experiments.
//
// FPSGD** partitions the rating matrix into a p′×p′ grid of blocks with
// p′ > p (here p′ = 2p) and runs p worker threads under a task manager:
// a worker may process block (a, b) only if no other worker currently
// holds row-stripe a or column-stripe b — so no two workers ever touch
// the same wᵢ or hⱼ, making updates race-free without locks on
// individual rows. When a worker finishes a block it asks the manager
// for another *free* block, preferring the least-updated one (with
// random tie-breaking), which keeps block update counts balanced.
//
// Compared to NOMAD's p×n partitioning (one "block" per item), the
// coarse grid forces workers to synchronize through the manager and
// limits overlap; the Fig 5 benchmark reproduces that contrast.
package fpsgd

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/partition"
	"nomad/internal/rng"
	"nomad/internal/sched"
	"nomad/internal/sparse"
	"nomad/internal/train"
	"nomad/internal/vecmath"
)

// FPSGD is the solver. The zero value is ready to use.
type FPSGD struct{}

// New returns an FPSGD** solver.
func New() *FPSGD { return &FPSGD{} }

// Name implements train.Algorithm.
func (*FPSGD) Name() string { return "fpsgd" }

// block is one grid cell's ratings, stored flat for cache-friendly
// passes, with per-rating update counts for the step-size schedule.
// Block exclusivity makes all of this single-owner at any moment.
type block struct {
	users  []int32
	items  []int32
	vals   []float64
	counts []int32
	perm   []int32 // scratch for randomized visiting order
}

// manager is the FPSGD** task manager.
type manager struct {
	mu       sync.Mutex
	pp       int // grid side p′
	rowBusy  []bool
	colBusy  []bool
	updates  []int // per-block completed passes
	nonEmpty []bool
}

// acquire returns a free block id (no busy row/col), preferring the
// least-updated candidate with random tie-breaking, or -1 if no block
// is currently free.
func (tm *manager) acquire(r *rng.Source) int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	best, bestCount, ties := -1, int(^uint(0)>>1), 0
	for a := 0; a < tm.pp; a++ {
		if tm.rowBusy[a] {
			continue
		}
		for b := 0; b < tm.pp; b++ {
			if tm.colBusy[b] {
				continue
			}
			id := a*tm.pp + b
			if !tm.nonEmpty[id] {
				continue
			}
			c := tm.updates[id]
			switch {
			case c < bestCount:
				best, bestCount, ties = id, c, 1
			case c == bestCount:
				ties++
				if r.Intn(ties) == 0 {
					best = id
				}
			}
		}
	}
	if best >= 0 {
		tm.rowBusy[best/tm.pp] = true
		tm.colBusy[best%tm.pp] = true
	}
	return best
}

// release returns a block to the pool and credits one pass over it.
func (tm *manager) release(id int) {
	tm.mu.Lock()
	tm.rowBusy[id/tm.pp] = false
	tm.colBusy[id%tm.pp] = false
	tm.updates[id]++
	tm.mu.Unlock()
}

// Train implements train.Algorithm. FPSGD** is a shared-memory
// algorithm; Machines is folded into the worker count.
func (*FPSGD) Train(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	cfg, err := cfg.Normalize(ds)
	if err != nil {
		return nil, err
	}
	if err := cfg.RequireFloat64("fpsgd"); err != nil {
		return nil, err
	}
	if err := cfg.Resume.Validate("fpsgd", ds.Rows(), ds.Cols(), cfg.K); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := cfg.TotalWorkers()
	pp := 2 * p // grid side: strictly more blocks than workers
	if pp < 2 {
		pp = 2
	}
	m, n := ds.Rows(), ds.Cols()
	schedule := cfg.Schedule()
	userPart := partition.EqualRanges(m, pp)
	itemPart := partition.EqualRanges(n, pp)
	blocks := buildBlocks(ds, userPart, itemPart, pp)

	var md *factor.Model
	root := rng.New(cfg.Seed)
	workerRNG := make([]*rng.Source, p)
	if st := cfg.Resume; st != nil {
		md = st.Model
		importCounts(ds.Train, userPart, itemPart, blocks, pp, st.CountsFor(ds.Train.NNZ()))
		st.RestoreStreams(root, workerRNG)
	} else {
		md = factor.NewInit(m, n, cfg.K, cfg.Seed)
		for q := 0; q < p; q++ {
			workerRNG[q] = root.Split(uint64(q))
		}
	}

	tm := &manager{
		pp:       pp,
		rowBusy:  make([]bool, pp),
		colBusy:  make([]bool, pp),
		updates:  make([]int, pp*pp),
		nonEmpty: make([]bool, pp*pp),
	}
	for id, blk := range blocks {
		tm.nonEmpty[id] = len(blk.users) > 0
	}

	counter := train.NewCounterFor(cfg, p)
	rec := train.NewRecorderFor(cfg, ds.Test, md, hooks)
	kern := vecmath.KernelFor(cfg.K) // square loss: fused kernel, chosen once
	var stop atomic.Bool
	var wg sync.WaitGroup
	for q := 0; q < p; q++ {
		wg.Add(1)
		go func(q int, r *rng.Source) {
			defer wg.Done()
			runWorker(q, md, blocks, tm, kern, schedule, cfg, counter, &stop, r)
		}(q, workerRNG[q])
	}

	runErr := train.Monitor(ctx, &stop, counter, cfg, rec, md, hooks)
	wg.Wait()
	rmse := rec.Sample(md, counter.Total())

	return &train.Result{
		Algorithm: "fpsgd",
		Model:     md,
		TestRMSE:  rmse,
		Trace:     rec.Trace(),
		Updates:   counter.Total(),
		Elapsed:   rec.Elapsed(),
		Final: &train.State{
			Algorithm: "fpsgd",
			Seed:      cfg.Seed,
			Updates:   counter.Total(),
			Model:     md,
			Counts:    exportCounts(ds.Train, userPart, itemPart, blocks, pp),
			RNG:       train.CaptureStreams(root, workerRNG),
		},
	}, runErr
}

// runWorker repeatedly leases a free block from the manager and runs
// one randomized SGD pass over it. FPSGD** implements the paper's
// square loss, so every update goes through the fused kernel.
func runWorker(q int, md *factor.Model, blocks []*block, tm *manager,
	kern vecmath.Kernel, schedule sched.Schedule, cfg train.Config,
	counter *train.Counter, stop *atomic.Bool, r *rng.Source) {

	lambda := cfg.Lambda
	table, _ := schedule.(*sched.Table)
	for !stop.Load() {
		id := tm.acquire(r)
		if id < 0 {
			runtime.Gosched()
			continue
		}
		blk := blocks[id]
		// Visit the block's ratings in fresh random order each pass.
		for i := range blk.perm {
			blk.perm[i] = int32(i)
		}
		r.Shuffle(len(blk.perm), func(i, j int) { blk.perm[i], blk.perm[j] = blk.perm[j], blk.perm[i] })
		for _, x := range blk.perm {
			t := blk.counts[x]
			blk.counts[x] = t + 1
			var step float64
			if table != nil {
				step = table.Step(int(t)) // direct, inlinable lookup
			} else {
				step = schedule.Step(int(t))
			}
			kern.Step(md.UserRow(int(blk.users[x])), md.ItemRow(int(blk.items[x])),
				blk.vals[x], step, lambda)
		}
		counter.Add(q, int64(len(blk.perm)))
		// Worker-side budget check: stop promptly at a block boundary
		// once the counted total crosses the update budget.
		if counter.Total() >= cfg.MaxUpdates {
			stop.Store(true)
		}
		tm.release(id)
	}
}

// exportCounts flattens the per-block, per-rating update counts into
// the training matrix's canonical CSR entry order. Blocks are built by
// one CSR traversal (buildBlocks), so replaying that traversal visits
// each block's array exactly in storage order.
func exportCounts(tr *sparse.Matrix, userPart, itemPart *partition.Partition, blocks []*block, pp int) []int32 {
	out := make([]int32, 0, tr.NNZ())
	cur := make([]int32, len(blocks))
	for i := 0; i < tr.Rows(); i++ {
		a := userPart.Owner(i)
		cols, _ := tr.Row(i)
		for _, j := range cols {
			id := a*pp + itemPart.Owner(int(j))
			out = append(out, blocks[id].counts[cur[id]])
			cur[id]++
		}
	}
	return out
}

// importCounts is the inverse of exportCounts: it scatters canonical
// CSR-ordered counts back into freshly built blocks.
func importCounts(tr *sparse.Matrix, userPart, itemPart *partition.Partition, blocks []*block, pp int, counts []int32) {
	cur := make([]int32, len(blocks))
	x := 0
	for i := 0; i < tr.Rows(); i++ {
		a := userPart.Owner(i)
		cols, _ := tr.Row(i)
		for _, j := range cols {
			id := a*pp + itemPart.Owner(int(j))
			blocks[id].counts[cur[id]] = counts[x]
			cur[id]++
			x++
		}
	}
}

// buildBlocks sorts the training ratings into the p′×p′ grid.
func buildBlocks(ds *dataset.Dataset, userPart, itemPart *partition.Partition, pp int) []*block {
	counts := make([]int, pp*pp)
	train := ds.Train
	for i := 0; i < train.Rows(); i++ {
		a := userPart.Owner(i)
		cols, _ := train.Row(i)
		for _, j := range cols {
			counts[a*pp+itemPart.Owner(int(j))]++
		}
	}
	blocks := make([]*block, pp*pp)
	for id := range blocks {
		c := counts[id]
		blocks[id] = &block{
			users:  make([]int32, 0, c),
			items:  make([]int32, 0, c),
			vals:   make([]float64, 0, c),
			counts: make([]int32, c),
			perm:   make([]int32, c),
		}
	}
	for i := 0; i < train.Rows(); i++ {
		a := userPart.Owner(i)
		cols, vals := train.Row(i)
		for x, j := range cols {
			blk := blocks[a*pp+itemPart.Owner(int(j))]
			blk.users = append(blk.users, int32(i))
			blk.items = append(blk.items, j)
			blk.vals = append(blk.vals, vals[x])
		}
	}
	return blocks
}

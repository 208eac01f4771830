// Package core implements NOMAD, the paper's primary contribution: a
// non-locking, stochastic, multi-machine, asynchronous, decentralized
// matrix-completion solver.
//
// The design follows §3 of the paper directly:
//
//   - Users are partitioned across workers once; their wᵢ rows never
//     move (§3.1).
//   - Item parameters hⱼ are *nomadic*: each lives in exactly one
//     worker's queue at a time. A worker pops a token (j, hⱼ), runs SGD
//     over its locally stored ratings for item j, then forwards the
//     token to another worker — the owner-computes rule that makes the
//     algorithm lock-free and its updates serializable.
//   - In distributed mode, a machine circulates an incoming token
//     through its local workers in a random permutation before sending
//     it over the network (§3.4), accumulating ~100 tokens per message
//     (§3.5).
//   - With LoadBalance enabled, token routing prefers lightly loaded
//     recipients using queue-length gossip carried on every message
//     (§3.3).
//
// Inside a machine a token is only the item index: hⱼ stays in the
// model row, which ownership transfer keeps free of data races. Every
// runner's workers train tokens with one trainer (hotPath.runBlock)
// from one loop (runWorker), and every distributed machine — one of M
// in this process, or the one machine of a multi-process rank — is
// started by runMachine. A distributed run copies hⱼ out of the row
// only onto the wire, and back in on arrival.
package core

import (
	"context"
	"fmt"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/loss"
	"nomad/internal/partition"
	"nomad/internal/sched"
	"nomad/internal/train"
	"nomad/internal/vecmath"
)

// NOMAD is the solver. The zero value is ready to use.
type NOMAD struct{}

// New returns a NOMAD solver.
func New() *NOMAD { return &NOMAD{} }

// Name implements train.Algorithm.
func (*NOMAD) Name() string { return "nomad" }

// Train implements train.Algorithm.
func (*NOMAD) Train(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	cfg, err := cfg.Normalize(ds)
	if err != nil {
		return nil, err
	}
	if err := cfg.Resume.Validate("nomad", ds.Rows(), ds.Cols(), cfg.K); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var vl *visitLog
	if hooks.Replaying() {
		if cfg.Failover || cfg.Chaos != nil {
			return nil, fmt.Errorf("core: the replay check does not cover failover, elastic or chaos runs")
		}
		vl = &visitLog{}
		if cfg.Resume != nil {
			vl.start = cfg.Resume.Model.Clone() // the run trains on it in place
		}
	}
	runner := trainDistributed
	switch {
	case cfg.Role != "":
		runner = trainMultiProcess // workers learn cfg.Machines at the handshake
	case cfg.Machines == 1:
		runner = trainShared
	}
	res, err := runner(ctx, ds, cfg, hooks, vl)
	if vl == nil || res == nil || res.Final == nil {
		return res, err // no log, no result, or a multi-process worker: rank 0 replays
	}
	visits, rerr := vl.replay(ds, cfg, res)
	if rerr != nil {
		return res, rerr
	}
	hooks.Emit(train.ReplayEvent{Visits: visits})
	return res, err
}

// hotPath is the per-run selection every SGD worker loop shares, at the
// model's precision T: the flat factor rows, kernels, the tabulated
// schedule and, for the square loss, the batched item-pass kernel — all
// chosen once per run, never per rating. Each worker builds one and
// trains its tokens with runBlock, on the item rows in the model.
// Ratings, step sizes and loss gradients stay float64 at either
// precision; only the factor rows and the arithmetic on them are T (the
// precision contract of DESIGN.md §9).
type hotPath[T vecmath.Float] struct {
	k            int
	wData, hData []T
	table        *sched.Table
	lossFn       loss.Loss // non-square losses only: the square loss runs the item pass
	steps        []float64
	slow         func(int) float64
	lambda       T
	kern         vecmath.Kernel[T]
	itemPass     vecmath.ItemPassFunc[T]
	pair         vecmath.ItemPassPairFunc[T] // nil: no two-list kernel, runBlock keeps to token order
}

func newHotPath[T vecmath.Float](md *factor.Model, cfg train.Config) *hotPath[T] {
	hp := &hotPath[T]{k: cfg.K, table: cfg.Schedule(), lossFn: cfg.Loss, lambda: T(cfg.Lambda)}
	hp.wData, hp.hData = factor.Flat[T](md)
	hp.steps, hp.slow = hp.table.Steps(), hp.table.Fallback().Step
	hp.kern = vecmath.KernelOf[T](cfg.K)
	if loss.IsSquare(cfg.Loss) {
		hp.itemPass, hp.pair = hp.kern.ItemPass, hp.kern.ItemPassPair
	}
	return hp
}

// itemTrainer returns itemSGDItem of a hot path at md's precision, for
// the replay, which trains one visit at a time.
func itemTrainer(md *factor.Model, cfg train.Config) func(j int, usersJ []int32, vals []float64, counts []int32) {
	if md.Precision() == factor.Float32 {
		return newHotPath[float32](md, cfg).itemSGDItem
	}
	return newHotPath[float64](md, cfg).itemSGDItem
}

// prefetchRows is how many leading user rows of the next token the
// block pipeline warms: exactly the rows the SIMD item pass's own
// look-ahead (vecmath's itemPassAhead, same value) starts too late for.
const prefetchRows = 8

// prefetchAhead is one beat of the software pipeline runBlock runs
// over an already-popped block while it trains token i (DESIGN.md §4
// piece 4). Each stage reads only what the previous beat made resident
// and prefetches what the next one will read: the rating-list offsets
// of token i+3 (item j3); the heads of token i+2's rating slices and
// its item row; the user rows of token i+1's first ratings. A negative
// item means the block ends before that token. Every address touched
// is the worker's own — its localRatings, its users' rows, rows of
// tokens it holds — so nothing here can be seen by, or wait on,
// another worker.
//
//nomad:noalloc
func (hp *hotPath[T]) prefetchAhead(lr *localRatings, j1, j2, j3 int) {
	n := len(lr.colPtr) - 1
	vecmath.Prefetch(lr.colPtr, j3, 1)
	if uint(j2) < uint(n) {
		lo := int(lr.colPtr[j2]) // == len(users) for a trailing empty list: ignored
		vecmath.Prefetch(lr.users, lo, 1)
		vecmath.Prefetch(lr.vals, lo, 1)
		vecmath.Prefetch(lr.counts, lo, 1)
		vecmath.Prefetch(hp.hData, j2*hp.k, hp.k)
	}
	if uint(j1) < uint(n) {
		lo, hi := lr.colPtr[j1], lr.colPtr[j1+1]
		for _, u := range lr.users[lo:min(hi, lo+prefetchRows)] {
			vecmath.Prefetch(hp.wData, int(u)*hp.k, hp.k)
		}
	}
}

// itemRow is item j's row hⱼ.
func (hp *hotPath[T]) itemRow(j int) []T { return hp.hData[j*hp.k : (j+1)*hp.k] }

// itemSGD runs the SGD updates for one item's rating list (hRow is the
// item row, shared across the list).
func (hp *hotPath[T]) itemSGD(usersJ []int32, vals []float64, counts []int32, hRow []T) {
	if hp.itemPass != nil {
		hp.itemPass(hp.wData, usersJ, vals, counts, hRow, hp.lambda, hp.steps, hp.slow)
		return
	}
	for x, u := range usersJ {
		t := counts[x]
		counts[x] = t + 1
		wRow := hp.wData[int(u)*hp.k : (int(u)+1)*hp.k]
		g := hp.lossFn.Grad(float64(hp.kern.Dot(wRow, hRow)), vals[x])
		hp.kern.Grad(wRow, hRow, T(g), T(hp.table.Step(int(t))), hp.lambda)
	}
}

// itemSGDItem trains one item's rating list on its model row, which
// the token's holder owns.
func (hp *hotPath[T]) itemSGDItem(j int, usersJ []int32, vals []float64, counts []int32) {
	hp.itemSGD(usersJ, vals, counts, hp.itemRow(j))
}

// partitionUsers splits users across p workers: equal user counts by
// default, or equal rating counts when cfg.BalanceUsers is set (the
// paper's footnote-1 alternative).
func partitionUsers(ds *dataset.Dataset, cfg train.Config, p int) *partition.Partition {
	if !cfg.BalanceUsers {
		return partition.EqualRanges(ds.Rows(), p)
	}
	weights := make([]int, ds.Rows())
	for i := range weights {
		weights[i] = ds.Train.RowDegree(i)
	}
	return partition.EqualWeight(weights, p)
}

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
	hooks.EmitReplay(train.ReplayEvent{Visits: visits})
	return res, err
}

// hotPath is the per-run selection every SGD worker loop shares:
// kernels, the tabulated schedule and, for the square loss, the
// batched item-pass kernel — all chosen once per run, never per
// rating. Each worker builds one and trains its tokens with runBlock,
// on the item rows in the model.
type hotPath struct {
	md     *factor.Model
	table  *sched.Table
	lossFn loss.Loss // non-square losses only: the square loss runs the item pass
	steps  []float64
	slow   func(int) float64
	lambda float64

	// Float64 models.
	wData    []float64
	hData    []float64
	kern     vecmath.Kernel
	itemPass vecmath.ItemPassFunc
	pair     vecmath.ItemPassPairFunc // nil: no two-list kernel, runBlock keeps to token order

	// Float32 models.
	f32        bool
	wData32    []float32
	hData32    []float32
	kern32     vecmath.Kernel32
	itemPass32 vecmath.ItemPassFunc32
	pair32     vecmath.ItemPassPairFunc32
	lambda32   float32
}

func newHotPath(md *factor.Model, cfg train.Config) hotPath {
	hp := hotPath{md: md, table: cfg.Schedule(), lossFn: cfg.Loss, lambda: cfg.Lambda}
	hp.steps, hp.slow = hp.table.Steps(), hp.table.Fallback().Step
	square := loss.IsSquare(cfg.Loss)
	if md.Precision() == factor.Float32 {
		hp.f32 = true
		hp.wData32, hp.hData32 = md.WData32(), md.HData32()
		hp.kern32 = vecmath.KernelFor32(cfg.K)
		hp.lambda32 = float32(cfg.Lambda)
		if square {
			hp.itemPass32, hp.pair32 = hp.kern32.ItemPass, hp.kern32.ItemPassPair
		}
	} else {
		hp.wData, hp.hData = md.WData(), md.HData()
		hp.kern = vecmath.KernelFor(cfg.K)
		if square {
			hp.itemPass, hp.pair = hp.kern.ItemPass, hp.kern.ItemPassPair
		}
	}
	return hp
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
func (hp *hotPath) prefetchAhead(lr *localRatings, j1, j2, j3 int) {
	n := len(lr.colPtr) - 1
	vecmath.Prefetch(lr.colPtr, j3, 1)
	if uint(j2) < uint(n) {
		lo := int(lr.colPtr[j2]) // == len(users) for a trailing empty list: ignored
		vecmath.Prefetch(lr.users, lo, 1)
		vecmath.Prefetch(lr.vals, lo, 1)
		vecmath.Prefetch(lr.counts, lo, 1)
		hp.prefetchRow(hp.hData, hp.hData32, j2)
	}
	if uint(j1) < uint(n) {
		lo, hi := lr.colPtr[j1], lr.colPtr[j1+1]
		for _, u := range lr.users[lo:min(hi, lo+prefetchRows)] {
			hp.prefetchRow(hp.wData, hp.wData32, int(u))
		}
	}
}

// prefetchRow prefetches row r of a factor matrix held as d64 or d32,
// whichever the model's precision uses.
func (hp *hotPath) prefetchRow(d64 []float64, d32 []float32, r int) {
	if k := hp.md.K; hp.f32 {
		vecmath.Prefetch(d32, r*k, k)
	} else {
		vecmath.Prefetch(d64, r*k, k)
	}
}

// itemSGD runs the SGD updates for one item's rating list (hRow is the
// item row, shared across the list). Float64 models only; the
// precision-agnostic entry point is itemSGDItem.
func (hp *hotPath) itemSGD(usersJ []int32, vals []float64, counts []int32, hRow []float64) {
	if hp.itemPass != nil {
		hp.itemPass(hp.wData, usersJ, vals, counts, hRow, hp.lambda, hp.steps, hp.slow)
		return
	}
	for x, u := range usersJ {
		t := counts[x]
		counts[x] = t + 1
		wRow := hp.md.UserRow(int(u))
		g := hp.lossFn.Grad(hp.kern.Dot(wRow, hRow), vals[x])
		hp.kern.Grad(wRow, hRow, g, hp.table.Step(int(t)), hp.lambda)
	}
}

// itemSGD32 is itemSGD for Float32 models. Ratings, step sizes and loss
// gradients stay float64 — only the factor rows and the arithmetic on
// them narrow (the precision contract of DESIGN.md §9).
func (hp *hotPath) itemSGD32(usersJ []int32, vals []float64, counts []int32, hRow []float32) {
	if hp.itemPass32 != nil {
		hp.itemPass32(hp.wData32, usersJ, vals, counts, hRow, hp.lambda32, hp.steps, hp.slow)
		return
	}
	for x, u := range usersJ {
		t := counts[x]
		counts[x] = t + 1
		wRow := hp.md.UserRow32(int(u))
		g := hp.lossFn.Grad(float64(hp.kern32.Dot(wRow, hRow)), vals[x])
		hp.kern32.Grad(wRow, hRow, float32(g), float32(hp.table.Step(int(t))), hp.lambda32)
	}
}

// itemSGDItem trains one item's rating list on its model row, which
// the token's holder owns.
func (hp *hotPath) itemSGDItem(j int, usersJ []int32, vals []float64, counts []int32) {
	if hp.f32 {
		hp.itemSGD32(usersJ, vals, counts, hp.md.ItemRow32(j))
		return
	}
	hp.itemSGD(usersJ, vals, counts, hp.md.ItemRow(j))
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

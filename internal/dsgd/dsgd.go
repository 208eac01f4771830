// Package dsgd implements Distributed Stochastic Gradient Descent
// (Gemulla et al., KDD 2011), the primary bulk-synchronous baseline of
// the paper's distributed experiments (§4.1, Figs 8, 11, 12, 20).
//
// The rating matrix is blocked p×p over p logical workers (machines ×
// threads). Within sub-epoch s, worker g runs SGD on block
// (I_g, J_{(g+s) mod p}); the blocks are interchangeable strata, so
// workers never share a wᵢ or hⱼ. After every sub-epoch all workers
// synchronize and the item blocks shift one position around the ring,
// crossing the (simulated) network whenever adjacent workers live on
// different machines. This bulk synchronization is precisely what NOMAD
// avoids: computation and communication alternate instead of
// overlapping, and every sub-epoch waits for its slowest worker (the
// "curse of the last reducer").
//
// The step size follows the bold-driver heuristic (§5.1): grow 5% after
// an epoch whose training loss decreased, halve it otherwise.
package dsgd

import (
	"context"
	"sync/atomic"
	"time"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/netsim"
	"nomad/internal/parallel"
	"nomad/internal/partition"
	"nomad/internal/rng"
	"nomad/internal/sched"
	"nomad/internal/train"
	"nomad/internal/vecmath"
)

// DSGD is the solver. The zero value is ready to use.
type DSGD struct{}

// New returns a DSGD solver.
func New() *DSGD { return &DSGD{} }

// Name implements train.Algorithm.
func (*DSGD) Name() string { return "dsgd" }

// stratum is the flat rating store of one (user-block, item-block)
// cell, with a scratch permutation for randomized visiting order.
type stratum struct {
	users []int32
	items []int32
	vals  []float64
	perm  []int32
}

// Train implements train.Algorithm.
func (*DSGD) Train(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	cfg, err := cfg.Normalize(ds)
	if err != nil {
		return nil, err
	}
	if err := cfg.RequireFloat64("dsgd"); err != nil {
		return nil, err
	}
	if err := cfg.Resume.Validate("dsgd", ds.Rows(), ds.Cols(), cfg.K); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := cfg.TotalWorkers()
	m, n := ds.Rows(), ds.Cols()
	userPart := partition.EqualRanges(m, p)
	itemPart := partition.EqualRanges(n, p)
	strata := buildStrata(ds, userPart, itemPart, p)

	net := netsim.New(cfg.Machines, cfg.Profile)
	defer net.Shutdown()
	machineOf := func(g int) int { return g / cfg.Workers }

	driver := sched.NewBoldDriver(cfg.BoldStep)
	root := rng.New(cfg.Seed)
	workerRNG := make([]*rng.Source, p)
	var md *factor.Model
	var updates atomic.Int64
	s := 0 // ring position persists across epochs (and checkpoints)
	if st := cfg.Resume; st != nil {
		md = st.Model
		updates.Store(st.Updates)
		s = int(st.Ring)
		if st.Bold != nil {
			driver.Restore(st.Bold.Step, st.Bold.Prev, st.Bold.Primed)
		}
		st.RestoreStreams(root, workerRNG)
	} else {
		md = factor.NewInit(m, n, cfg.K, cfg.Seed)
		for g := range workerRNG {
			workerRNG[g] = root.Split(uint64(g))
		}
	}
	step := driver.Step
	kern := vecmath.KernelFor(cfg.K) // square loss: fused kernel, chosen once
	counter := train.NewCounterFor(cfg, p)
	rec := train.NewRecorderFor(cfg, ds.Test, md, hooks)
	start := time.Now()

	epoch := cfg.EpochsDone(updates.Load())
	for !train.StopCheck(ctx, cfg, start, updates.Load()) {
		var epochLoss float64
		for sub := 0; sub < p; sub++ {
			losses := make([]float64, p)
			parallel.For(p, p, func(_, lo, hi int) {
				for g := lo; g < hi; g++ {
					blk := strata[g*p+(g+s)%p]
					losses[g] = sgdPass(blk, md, kern, step, cfg.Lambda, workerRNG[g])
					counter.Add(g, int64(len(blk.perm)))
					updates.Add(int64(len(blk.perm)))
				}
			})
			for _, l := range losses {
				epochLoss += l
			}
			exchangeBlocks(net, md, itemPart, machineOf, p, s, cfg.K)
			s++
			if train.StopCheck(ctx, cfg, start, updates.Load()) {
				break
			}
		}
		step = driver.Observe(epochLoss)
		epoch++
		hooks.EmitEpoch(train.EpochEvent{Epoch: epoch, Updates: updates.Load()})
		if cfg.Machines > 1 {
			hooks.EmitNetwork(train.NetworkEvent{BytesSent: net.BytesSent(), MessagesSent: net.MessagesSent()})
		}
		if rec.Due(updates.Load()) {
			rec.Sample(md, updates.Load())
		}
	}
	rmse := rec.Sample(md, updates.Load())

	boldStep, boldPrev, boldPrimed := driver.Snapshot()
	return &train.Result{
		Algorithm:    "dsgd",
		Model:        md,
		TestRMSE:     rmse,
		Trace:        rec.Trace(),
		Updates:      updates.Load(),
		Elapsed:      rec.Elapsed(),
		BytesSent:    net.BytesSent(),
		MessagesSent: net.MessagesSent(),
		Final: &train.State{
			Algorithm: "dsgd",
			Seed:      cfg.Seed,
			Updates:   updates.Load(),
			Ring:      int64(s),
			Bold:      &train.BoldState{Step: boldStep, Prev: boldPrev, Primed: boldPrimed},
			Model:     md,
			RNG:       train.CaptureStreams(root, workerRNG),
		},
	}, ctx.Err()
}

// sgdPass runs one randomized SGD sweep over a stratum and returns the
// sum of squared pre-update errors (the bold driver's loss signal).
// DSGD implements the paper's square loss, so every update goes
// through the fused kernel.
func sgdPass(blk *stratum, md *factor.Model, kern vecmath.Kernel, step, lambda float64, r *rng.Source) float64 {
	for i := range blk.perm {
		blk.perm[i] = int32(i)
	}
	r.Shuffle(len(blk.perm), func(i, j int) { blk.perm[i], blk.perm[j] = blk.perm[j], blk.perm[i] })
	var loss float64
	for _, x := range blk.perm {
		e := kern.Step(md.UserRow(int(blk.users[x])), md.ItemRow(int(blk.items[x])),
			blk.vals[x], step, lambda)
		loss += e * e
	}
	return loss
}

// exchangeBlocks performs the post-sub-epoch ring shift of item
// blocks: worker g receives block (g+s+1) mod p from worker (g+1) mod
// p. Only cross-machine edges touch the network; the coordinator then
// waits for every transfer to arrive — the bulk-synchronization point.
func exchangeBlocks(net *netsim.Network, md *factor.Model,
	itemPart *partition.Partition, machineOf func(int) int, p, s, k int) {

	expected := make([]int, net.Machines())
	for g := 0; g < p; g++ {
		holder := (g + 1) % p
		src, dst := machineOf(holder), machineOf(g)
		if src == dst {
			continue
		}
		blockIdx := (g + s + 1) % p
		part := itemPart.Part(blockIdx)
		if len(part) == 0 {
			continue
		}
		lo := int(part[0])
		hi := lo + len(part) // EqualRanges parts are contiguous
		sendBlock(net, md, src, dst, lo, hi, k, s)
		expected[dst]++
	}
	for mc, count := range expected {
		for i := 0; i < count; i++ {
			<-net.Recv(mc)
		}
	}
}

// sendBlock ships rows [lo,hi) of H with their modelled wire size.
// Factor data is shared in-process, so the payload is only a header;
// the cost is what matters.
func sendBlock(net *netsim.Network, md *factor.Model, src, dst, lo, hi, k, tag int) {
	net.Send(src, dst, netsim.BlockWireSize(hi-lo, k), tag)
	_ = md
}

// buildStrata sorts the training ratings into the p×p grid.
func buildStrata(ds *dataset.Dataset, userPart, itemPart *partition.Partition, p int) []*stratum {
	tr := ds.Train
	counts := make([]int, p*p)
	for i := 0; i < tr.Rows(); i++ {
		g := userPart.Owner(i)
		cols, _ := tr.Row(i)
		for _, j := range cols {
			counts[g*p+itemPart.Owner(int(j))]++
		}
	}
	strata := make([]*stratum, p*p)
	for id := range strata {
		c := counts[id]
		strata[id] = &stratum{
			users: make([]int32, 0, c),
			items: make([]int32, 0, c),
			vals:  make([]float64, 0, c),
			perm:  make([]int32, c),
		}
	}
	for i := 0; i < tr.Rows(); i++ {
		g := userPart.Owner(i)
		cols, vals := tr.Row(i)
		for x, j := range cols {
			blk := strata[g*p+itemPart.Owner(int(j))]
			blk.users = append(blk.users, int32(i))
			blk.items = append(blk.items, j)
			blk.vals = append(blk.vals, vals[x])
		}
	}
	return strata
}

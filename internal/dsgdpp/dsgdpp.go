// Package dsgdpp implements DSGD++ (Teflioudi, Makari & Gemulla, ICDM
// 2012), the improved bulk-synchronous baseline of §4.1.
//
// DSGD++ addresses DSGD's first drawback — network idle while the CPU
// computes and vice versa — by splitting the items into 2p blocks
// instead of p. At sub-epoch s, worker g computes on block
// (2g + s) mod 2p while the block it will need next, (2g + s + 1) mod
// 2p (which worker (g+1) mod p finished one sub-epoch earlier), is
// already in flight across the network. Transfers therefore overlap
// with computation, but the per-sub-epoch synchronization barrier
// remains, so DSGD++ still suffers the curse of the last reducer — the
// precise gap NOMAD closes (§4.1, Figs 8, 11, 12).
package dsgdpp

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

// DSGDPP is the solver. The zero value is ready to use.
type DSGDPP struct{}

// New returns a DSGD++ solver.
func New() *DSGDPP { return &DSGDPP{} }

// Name implements train.Algorithm.
func (*DSGDPP) Name() string { return "dsgdpp" }

// stratum is one (user-block, item-block) cell; see dsgd.
type stratum struct {
	users []int32
	items []int32
	vals  []float64
	perm  []int32
}

// Train implements train.Algorithm.
func (*DSGDPP) Train(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	cfg, err := cfg.Normalize(ds)
	if err != nil {
		return nil, err
	}
	if err := cfg.RequireFloat64("dsgd++"); err != nil {
		return nil, err
	}
	if err := cfg.Resume.Validate("dsgdpp", ds.Rows(), ds.Cols(), cfg.K); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := cfg.TotalWorkers()
	bp := 2 * p // item blocks
	m, n := ds.Rows(), ds.Cols()
	userPart := partition.EqualRanges(m, p)
	itemPart := partition.EqualRanges(n, bp)
	strata := buildStrata(ds, userPart, itemPart, p, bp)

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
		for sub := 0; sub < bp; sub++ {
			// Initiate next-block transfers *before* computing, so
			// they ride the network while the CPU is busy.
			expected := prefetch(net, itemPart, machineOf, p, bp, s, cfg.K)

			losses := make([]float64, p)
			parallel.For(p, p, func(_, lo, hi int) {
				for g := lo; g < hi; g++ {
					blk := strata[g*bp+(2*g+s)%bp]
					losses[g] = sgdPass(blk, md, kern, step, cfg.Lambda, workerRNG[g])
					counter.Add(g, int64(len(blk.perm)))
					updates.Add(int64(len(blk.perm)))
				}
			})
			for _, l := range losses {
				epochLoss += l
			}
			// Synchronization point: collect the prefetched blocks.
			// They have usually arrived already — that is the overlap.
			for mc, count := range expected {
				for i := 0; i < count; i++ {
					<-net.Recv(mc)
				}
			}
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
		Algorithm:    "dsgdpp",
		Model:        md,
		TestRMSE:     rmse,
		Trace:        rec.Trace(),
		Updates:      updates.Load(),
		Elapsed:      rec.Elapsed(),
		BytesSent:    net.BytesSent(),
		MessagesSent: net.MessagesSent(),
		Final: &train.State{
			Algorithm: "dsgdpp",
			Seed:      cfg.Seed,
			Updates:   updates.Load(),
			Ring:      int64(s),
			Bold:      &train.BoldState{Step: boldStep, Prev: boldPrev, Primed: boldPrimed},
			Model:     md,
			RNG:       train.CaptureStreams(root, workerRNG),
		},
	}, ctx.Err()
}

// prefetch starts the transfer of each worker's *next* item block,
// (2g+s+1) mod 2p, from the worker that finished it at sub-epoch s-1
// (worker (g+1) mod p). Returns the expected arrival count per machine.
func prefetch(net *netsim.Network, itemPart *partition.Partition,
	machineOf func(int) int, p, bp, s, k int) []int {

	expected := make([]int, net.Machines())
	for g := 0; g < p; g++ {
		holder := (g + 1) % p
		src, dst := machineOf(holder), machineOf(g)
		if src == dst {
			continue
		}
		blockIdx := (2*g + s + 1) % bp
		part := itemPart.Part(blockIdx)
		if len(part) == 0 {
			continue
		}
		net.Send(src, dst, netsim.BlockWireSize(len(part), k), s)
		expected[dst]++
	}
	return expected
}

// sgdPass runs one randomized SGD sweep over a stratum; see dsgd. The
// square loss routes through the fused kernel selected once per run.
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

// buildStrata sorts the training ratings into the p×2p grid.
func buildStrata(ds *dataset.Dataset, userPart, itemPart *partition.Partition, p, bp int) []*stratum {
	tr := ds.Train
	counts := make([]int, p*bp)
	for i := 0; i < tr.Rows(); i++ {
		g := userPart.Owner(i)
		cols, _ := tr.Row(i)
		for _, j := range cols {
			counts[g*bp+itemPart.Owner(int(j))]++
		}
	}
	strata := make([]*stratum, p*bp)
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
			blk := strata[g*bp+itemPart.Owner(int(j))]
			blk.users = append(blk.users, int32(i))
			blk.items = append(blk.items, j)
			blk.vals = append(blk.vals, vals[x])
		}
	}
	return strata
}

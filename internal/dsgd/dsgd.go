// Package dsgd implements the paper's two bulk-synchronous distributed
// baselines (§4.1, Figs 8, 11, 12, 20):
//
//   - DSGD, Distributed Stochastic Gradient Descent (Gemulla et al.,
//     KDD 2011). The rating matrix is blocked p×p over p logical
//     workers (machines × threads). Within sub-epoch s, worker g runs
//     SGD on block (I_g, J_{(g+s) mod p}); the blocks are
//     interchangeable strata, so workers never share a wᵢ or hⱼ. After
//     every sub-epoch all workers synchronize and the item blocks shift
//     one position around the ring, crossing the (simulated) network
//     whenever adjacent workers live on different machines.
//   - DSGD++ (Teflioudi, Makari & Gemulla, ICDM 2012), which addresses
//     DSGD's first drawback — network idle while the CPU computes and
//     vice versa — by splitting the items into 2p blocks instead of p.
//     At sub-epoch s, worker g computes on block (2g + s) mod 2p while
//     the block it will need next, (2g + s + 1) mod 2p (which worker
//     (g+1) mod p finished one sub-epoch earlier), is already in flight
//     across the network.
//
// Both keep the per-sub-epoch synchronization: every sub-epoch waits
// for its slowest worker (the "curse of the last reducer"). That is
// precisely what NOMAD avoids.
//
// The step size follows the bold-driver heuristic (§5.1): it starts at
// the run's Alpha, grows 5% after an epoch whose training loss
// decreased, and halves otherwise.
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

// DSGD is the solver: DSGD from New, DSGD++ from NewPP.
type DSGD struct {
	pp bool // DSGD++: 2p item blocks, next block prefetched during compute
}

// New returns a DSGD solver.
func New() *DSGD { return &DSGD{} }

// NewPP returns a DSGD++ solver.
func NewPP() *DSGD { return &DSGD{pp: true} }

// Name implements train.Algorithm.
func (d *DSGD) Name() string {
	if d.pp {
		return "dsgdpp"
	}
	return "dsgd"
}

// itemBlocks is the number of item blocks for p workers: p for DSGD,
// 2p for DSGD++. One epoch is itemBlocks sub-epochs.
func (d *DSGD) itemBlocks(p int) int {
	if d.pp {
		return 2 * p
	}
	return p
}

// block is the item block worker g computes on at ring position s.
func (d *DSGD) block(g, s, p int) int {
	if d.pp {
		return (2*g + s) % (2 * p)
	}
	return (g + s) % p
}

// stratum is the flat rating store of one (user-block, item-block)
// cell, with a scratch permutation for randomized visiting order.
type stratum struct {
	users []int32
	items []int32
	vals  []float64
	perm  []int32
}

// Train implements train.Algorithm.
func (d *DSGD) Train(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	name := d.Name()
	cfg, err := cfg.Normalize(ds)
	if err != nil {
		return nil, err
	}
	if err := cfg.RequireFloat64(name); err != nil {
		return nil, err
	}
	if err := cfg.Resume.Validate(name, ds.Rows(), ds.Cols(), cfg.K); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := cfg.TotalWorkers()
	bp := d.itemBlocks(p)
	m, n := ds.Rows(), ds.Cols()
	userPart := partition.EqualRanges(m, p)
	itemPart := partition.EqualRanges(n, bp)
	strata := buildStrata(ds, userPart, itemPart, p, bp)

	net := netsim.New(cfg.Machines, cfg.Profile)
	defer net.Shutdown()
	machineOf := func(g int) int { return g / cfg.Workers }

	driver := sched.NewBoldDriver(cfg.Alpha)
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
	rec := train.NewRecorderFor(cfg, ds, md, hooks)
	start := time.Now()

	epoch := cfg.EpochsDone(updates.Load())
	for !train.StopCheck(ctx, cfg, start, updates.Load()) {
		var epochLoss float64
		for sub := 0; sub < bp; sub++ {
			var expected []int
			if d.pp {
				// Initiate next-block transfers *before* computing, so
				// they ride the network while the CPU is busy.
				expected = d.shipBlocks(net, itemPart, machineOf, p, s, cfg.K)
			}
			losses := make([]float64, p)
			parallel.For(p, p, func(_, lo, hi int) {
				for g := lo; g < hi; g++ {
					blk := strata[g*bp+d.block(g, s, p)]
					losses[g] = sgdPass(blk, md, kern, step, cfg.Lambda, workerRNG[g])
					counter.Add(g, int64(len(blk.perm)))
					updates.Add(int64(len(blk.perm)))
				}
			})
			for _, l := range losses {
				epochLoss += l
			}
			if !d.pp {
				expected = d.shipBlocks(net, itemPart, machineOf, p, s, cfg.K)
			}
			// Synchronization point: every transfer of this sub-epoch
			// must arrive. DSGD++'s have usually arrived already — that
			// is the overlap.
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
		hooks.Emit(train.EpochEvent{Epoch: epoch, Updates: updates.Load()})
		if cfg.Machines > 1 {
			hooks.Emit(train.NetworkEvent{BytesSent: net.BytesSent(), MessagesSent: net.MessagesSent()})
		}
		if rec.Due(updates.Load()) {
			rec.Sample(md, updates.Load())
		}
	}
	rmse := rec.Sample(md, updates.Load())

	boldStep, boldPrev, boldPrimed := driver.Snapshot()
	return &train.Result{
		Algorithm:    name,
		Model:        md,
		TestRMSE:     rmse,
		Trace:        rec.Trace(),
		Updates:      updates.Load(),
		Elapsed:      rec.Elapsed(),
		BytesSent:    net.BytesSent(),
		MessagesSent: net.MessagesSent(),
		Final: &train.State{
			Algorithm: name,
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
// Both solvers implement the paper's square loss, so every update goes
// through the fused kernel.
func sgdPass(blk *stratum, md *factor.Model, kern vecmath.Kernel[float64], step, lambda float64, r *rng.Source) float64 {
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

// shipBlocks starts the ring shift of item blocks at ring position s:
// worker g receives its next block, block(g, s+1), from worker
// (g+1) mod p, which computes on it at s. Only cross-machine edges
// touch the network, with the block's modelled wire size (factor data
// is shared in-process, so the cost is what matters). It returns the
// expected arrival count per machine, which the caller waits for — the
// bulk-synchronization point.
func (d *DSGD) shipBlocks(net *netsim.Network, itemPart *partition.Partition,
	machineOf func(int) int, p, s, k int) []int {

	expected := make([]int, net.Machines())
	for g := 0; g < p; g++ {
		holder := (g + 1) % p
		src, dst := machineOf(holder), machineOf(g)
		if src == dst {
			continue
		}
		part := itemPart.Part(d.block(g, s+1, p))
		if len(part) == 0 {
			continue
		}
		net.Send(src, dst, netsim.BlockWireSize(len(part), k), s)
		expected[dst]++
	}
	return expected
}

// buildStrata sorts the training ratings into the p×bp grid of user
// blocks by item blocks.
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

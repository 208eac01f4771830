package glals

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/netsim"
	"nomad/internal/parallel"
	"nomad/internal/partition"
	"nomad/internal/rng"
	"nomad/internal/train"
	"nomad/internal/vecmath"
)

// BiasSGD emulates GraphLab's "biassgd" toolkit algorithm (paper
// Appendix F, Fig 23): SGD on the biased model
//
//	Aᵢⱼ ≈ μ + bᵢ + cⱼ + ⟨wᵢ, hⱼ⟩
//
// executed GraphLab-style: item parameters are partitioned over
// machines, and a worker must fetch a remote item's row before updating
// against it and write it back afterwards — two network messages per
// item visit, with last-writer-wins races between machines (the
// asynchronous engine's semantics). As the paper notes, this optimizes
// a different model from objective (1); it is compared on wall-clock
// RMSE behaviour only.
//
// Representation: the biases are stored as two extra latent
// dimensions with one side pinned to 1 —
//
//	wᵢ' = [wᵢ, bᵢ, 1],  hⱼ' = [hⱼ, 1, cⱼ]
//
// so ⟨wᵢ', hⱼ'⟩ = ⟨wᵢ, hⱼ⟩ + bᵢ + cⱼ and the standard RMSE evaluator
// scores the full biased model. μ is folded into the bias init.
type BiasSGD struct{}

// NewBiasSGD returns the biassgd emulation.
func NewBiasSGD() *BiasSGD { return &BiasSGD{} }

// Name implements train.Algorithm.
func (*BiasSGD) Name() string { return "biassgd" }

// StorageRank implements train.StorageRanker: the stored model
// carries two extra dimensions — the bias and its pinned-one partner.
func (*BiasSGD) StorageRank(k int) int { return k + 2 }

// itemReq asks item j's owner for its current row; itemRep answers;
// writeBack returns an updated row to the owner (one-way).
type itemReq struct {
	replyTo, worker int
	item            int32
}

type itemRep struct {
	worker int
	row    []float64
}

type writeBack struct {
	item int32
	row  []float64
}

// Train implements train.Algorithm.
func (*BiasSGD) Train(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	cfg, err := cfg.Normalize(ds)
	if err != nil {
		return nil, err
	}
	if err := cfg.RequireFloat64("biassgd"); err != nil {
		return nil, err
	}
	if err := cfg.Resume.Validate("biassgd", ds.Rows(), ds.Cols(), (*BiasSGD)(nil).StorageRank(cfg.K)); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	M, W := cfg.Machines, cfg.Workers
	p := M * W
	m, n := ds.Rows(), ds.Cols()
	k := cfg.K
	kk := k + 2 // factor dims + (bias, pinned-one)
	tr := ds.Train

	// Global mean, folded into the initial biases.
	var mu float64
	for _, v := range tr.Vals() {
		mu += v
	}
	mu /= float64(tr.NNZ())

	var md *factor.Model
	var resumed int64
	if st := cfg.Resume; st != nil {
		md = st.Model
		resumed = st.Updates
	} else {
		md = factor.New(m, n, kk)
		initRNG := rng.New(cfg.Seed)
		hi := 1 / math.Sqrt(float64(k))
		for i := 0; i < m; i++ {
			row := md.UserRow(i)
			for l := 0; l < k; l++ {
				row[l] = initRNG.Uniform(0, hi)
			}
			row[k] = mu / 2 // bᵢ
			row[k+1] = 1    // pinned
		}
		for j := 0; j < n; j++ {
			row := md.ItemRow(j)
			for l := 0; l < k; l++ {
				row[l] = initRNG.Uniform(0, hi)
			}
			row[k] = 1        // pinned
			row[k+1] = mu / 2 // cⱼ
		}
	}

	userPart := partition.EqualRanges(m, p) // one user block per worker
	itemPart := partition.EqualRanges(n, M) // items owned per machine

	net := netsim.New(M, cfg.Profile)
	defer net.Shutdown()

	replies := make([]chan []float64, p)
	for w := range replies {
		replies[w] = make(chan []float64, 2)
	}
	for mc := 0; mc < M; mc++ {
		go func(mc int) {
			for msg := range net.Recv(mc) {
				switch r := msg.Payload.(type) {
				case itemReq:
					//nomad:racy-read remote row fetch may observe a torn in-progress update; the async SGD protocol tolerates stale rows (keeps glals out of the CI -race list for this test only)
					row := append([]float64(nil), md.ItemRow(int(r.item))...)
					net.Send(mc, r.replyTo, 16+8*kk, itemRep{worker: r.worker, row: row})
				case itemRep:
					replies[r.worker] <- r.row
				case writeBack:
					copy(md.ItemRow(int(r.item)), r.row)
				}
			}
		}(mc)
	}

	schedule := cfg.Schedule()
	// Kernels, selected once per run: predictions run over the full
	// kk = k+2 augmented rows; the factor-coordinate update covers only
	// the first k dims (the bias coordinates follow their own rule).
	dotKK := vecmath.DotKernel(kk)
	gradK := vecmath.KernelFor(k).Grad
	counter := train.NewCounterFor(cfg, p)
	rec := train.NewRecorderFor(cfg, ds, md, hooks)
	start := time.Now()
	var updates atomic.Int64
	updates.Store(resumed)
	root := rng.New(cfg.Seed + 1)
	if st := cfg.Resume; st != nil && len(st.RNG) > 0 {
		root = rng.FromState(st.RNG[0])
	}

	// Per-worker item-grouped rating lists, so each item visit costs
	// one fetch regardless of how many local ratings it covers.
	type localCol struct {
		users []int32
		vals  []float64
	}
	locals := make([][]localCol, p)
	for q := 0; q < p; q++ {
		locals[q] = make([]localCol, n)
	}
	for j := 0; j < n; j++ {
		rows, pos := tr.Col(j)
		for x, i := range rows {
			q := userPart.Owner(int(i))
			lc := &locals[q][j]
			lc.users = append(lc.users, i)
			lc.vals = append(lc.vals, tr.ValAt(pos[x]))
		}
	}

	pass := 0
	if st := cfg.Resume; st != nil {
		pass = int(st.Ring) // continue the per-pass step schedule
	}
	for !train.StopCheck(ctx, cfg, start, updates.Load()) {
		pass++
		// Derive this pass's per-worker streams before the parallel
		// region: Split mutates the shared root, so concurrent workers
		// must not call it (it raced in earlier versions).
		passRNG := make([]*rng.Source, p)
		for q := 0; q < p; q++ {
			passRNG[q] = root.Split(uint64(q)*1_000_003 + uint64(pass))
		}
		parallel.For(p, p, func(_, qLo, qHi int) {
			for q := qLo; q < qHi; q++ {
				mc := q / W
				r := passRNG[q]
				order := make([]int, n)
				r.Perm(order)
				var touched int64
				step := schedule.Step(pass - 1)
				for _, j := range order {
					lc := &locals[q][j]
					if len(lc.users) == 0 {
						continue
					}
					owner := itemPart.Owner(j)
					var hRow []float64
					if owner == mc {
						hRow = md.ItemRow(j)
					} else {
						net.Send(mc, owner, 16, itemReq{replyTo: mc, worker: q, item: int32(j)})
						hRow = <-replies[q]
					}
					for x, u := range lc.users {
						wRow := md.UserRow(int(u))
						e := lc.vals[x] - dotKK(wRow, hRow)
						se, sl := step*e, step*cfg.Lambda
						gradK(wRow[:k], hRow[:k], e, step, cfg.Lambda)
						// Bias coordinates: the partner side is pinned
						// to 1 and must not move.
						wRow[k] += se - sl*wRow[k]     // bᵢ
						hRow[k+1] += se - sl*hRow[k+1] // cⱼ
					}
					touched += int64(len(lc.users))
					if owner != mc {
						net.Send(mc, owner, 16+8*kk, writeBack{item: int32(j), row: hRow})
					}
				}
				counter.Add(q, touched)
				updates.Add(touched)
			}
		})
		hooks.Emit(train.EpochEvent{Epoch: pass, Updates: updates.Load()})
		if M > 1 {
			hooks.Emit(train.NetworkEvent{BytesSent: net.BytesSent(), MessagesSent: net.MessagesSent()})
		}
		if rec.Due(updates.Load()) {
			rec.Sample(md, updates.Load())
		}
	}
	rmse := rec.Sample(md, updates.Load())

	return &train.Result{
		Algorithm:    "biassgd",
		Model:        md,
		TestRMSE:     rmse,
		Trace:        rec.Trace(),
		Updates:      updates.Load(),
		Elapsed:      rec.Elapsed(),
		BytesSent:    net.BytesSent(),
		MessagesSent: net.MessagesSent(),
		Final: &train.State{
			Algorithm: "biassgd",
			Seed:      cfg.Seed,
			Updates:   updates.Load(),
			Ring:      int64(pass),
			Model:     md,
			RNG:       [][4]uint64{root.State()},
		},
	}, ctx.Err()
}

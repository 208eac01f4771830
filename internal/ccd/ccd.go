// Package ccd implements CCD++ (Yu, Hsieh, Si & Dhillon, ICDM 2012),
// the coordinate-descent baseline of the paper's §2.2/§5 experiments.
//
// CCD++ updates the factorization one rank at a time. With the residual
// R = A − WHᵀ maintained incrementally over the observed entries, the
// rank-ℓ update adds the old rank-ℓ contribution back
// (R̂ = R + w.ℓ h.ℓᵀ), solves the one-dimensional least-squares
// problems
//
//	u_i = Σ_j R̂_ij v_j / (λ|Ωᵢ| + Σ_j v_j²)
//	v_j = Σ_i R̂_ij u_i / (λ|Ω̄ⱼ| + Σ_i u_i²)
//
// in closed form, then subtracts the new contribution. Each rank update
// is embarrassingly parallel over rows (then columns) but requires a
// full synchronization between the u-phase and the v-phase — in
// distributed mode every rank costs a broadcast of the new factor
// column plus two barriers, which is why CCD++ trails the asynchronous
// methods as communication gets slower (Figs 8, 11, 12, 20).
package ccd

import (
	"context"
	"sync/atomic"
	"time"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/netsim"
	"nomad/internal/parallel"
	"nomad/internal/partition"
	"nomad/internal/train"
	"nomad/internal/vecmath"
)

// CCD is the solver. The zero value is ready to use.
type CCD struct{}

// New returns a CCD++ solver.
func New() *CCD { return &CCD{} }

// Name implements train.Algorithm.
func (*CCD) Name() string { return "ccd" }

// Train implements train.Algorithm. One "epoch" of the shared stop
// accounting corresponds to touching every rating once; a full outer
// iteration (all k ranks) touches each rating 4k times (add-back,
// u-phase, v-phase, subtract), of which the 2k solve touches are
// counted as updates.
func (*CCD) Train(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	cfg, err := cfg.Normalize(ds)
	if err != nil {
		return nil, err
	}
	if err := cfg.RequireFloat64("ccd"); err != nil {
		return nil, err
	}
	if err := cfg.Resume.Validate("ccd", ds.Rows(), ds.Cols(), cfg.K); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := cfg.TotalWorkers()
	m, n := ds.Rows(), ds.Cols()
	tr := ds.Train
	// CCD++'s only cross-iteration state is the model itself: the
	// residual is a function of (A, W, H) and is rebuilt below, so a
	// resumed run needs just the restored factors and update total.
	var md *factor.Model
	var resumed int64
	outer := 0
	if st := cfg.Resume; st != nil {
		md = st.Model
		resumed = st.Updates
		outer = int(st.Ring) // EpochEvent numbering continues
	} else {
		md = factor.NewInit(m, n, cfg.K, cfg.Seed)
	}
	k := cfg.K

	net := netsim.New(cfg.Machines, cfg.Profile)
	defer net.Shutdown()
	userPart := partition.EqualRanges(m, cfg.Machines)
	itemPart := partition.EqualRanges(n, cfg.Machines)

	// Residual in CSR order: R = A − W Hᵀ.
	residual := make([]float64, tr.NNZ())
	copy(residual, tr.Vals())
	dot := vecmath.DotKernel(md.K)
	parallel.For(p, m, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, _ := tr.Row(i)
			rowBase, _ := tr.RowRange(i)
			wRow := md.UserRow(i)
			for x, j := range cols {
				residual[rowBase+int64(x)] -= dot(wRow, md.ItemRow(int(j)))
			}
		}
	})

	w := md.WData()
	h := md.HData()
	counter := train.NewCounterFor(cfg, p)
	rec := train.NewRecorderFor(cfg, ds, md, hooks)
	start := time.Now()
	var updates atomic.Int64
	updates.Store(resumed)

	for !train.StopCheck(ctx, cfg, start, updates.Load()) {
		for l := 0; l < k; l++ {
			// R̂ = R + u vᵀ over observed entries (CSR walk).
			parallel.For(p, m, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					ui := w[i*k+l]
					cols, _ := tr.Row(i)
					rowBase, _ := tr.RowRange(i)
					for x, j := range cols {
						residual[rowBase+int64(x)] += ui * h[int(j)*k+l]
					}
				}
			})
			// u-phase: closed-form update of column l of W.
			parallel.For(p, m, func(worker, lo, hi int) {
				var touched int64
				for i := lo; i < hi; i++ {
					cols, _ := tr.Row(i)
					if len(cols) == 0 {
						continue
					}
					rowBase, _ := tr.RowRange(i)
					var num, den float64
					for x, j := range cols {
						vj := h[int(j)*k+l]
						num += residual[rowBase+int64(x)] * vj
						den += vj * vj
					}
					den += cfg.Lambda * float64(len(cols))
					w[i*k+l] = num / den
					touched += int64(len(cols))
				}
				counter.Add(worker, touched)
				updates.Add(touched)
			})
			// Distributed: broadcast the new u column blocks.
			broadcastColumn(net, userPart, cfg.Machines)
			// v-phase: closed-form update of column l of H (CSC walk).
			parallel.For(p, n, func(worker, lo, hi int) {
				var touched int64
				for j := lo; j < hi; j++ {
					rows, pos := tr.Col(j)
					if len(rows) == 0 {
						continue
					}
					var num, den float64
					for x, i := range rows {
						ui := w[int(i)*k+l]
						num += residual[pos[x]] * ui
						den += ui * ui
					}
					den += cfg.Lambda * float64(len(rows))
					h[j*k+l] = num / den
					touched += int64(len(rows))
				}
				counter.Add(worker, touched)
				updates.Add(touched)
			})
			broadcastColumn(net, itemPart, cfg.Machines)
			// R = R̂ − u vᵀ with the fresh columns.
			parallel.For(p, m, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					ui := w[i*k+l]
					cols, _ := tr.Row(i)
					rowBase, _ := tr.RowRange(i)
					for x, j := range cols {
						residual[rowBase+int64(x)] -= ui * h[int(j)*k+l]
					}
				}
			})
			if train.StopCheck(ctx, cfg, start, updates.Load()) {
				break
			}
		}
		outer++
		hooks.Emit(train.EpochEvent{Epoch: outer, Updates: updates.Load()})
		if cfg.Machines > 1 {
			hooks.Emit(train.NetworkEvent{BytesSent: net.BytesSent(), MessagesSent: net.MessagesSent()})
		}
		if rec.Due(updates.Load()) {
			rec.Sample(md, updates.Load())
		}
	}
	rmse := rec.Sample(md, updates.Load())

	return &train.Result{
		Algorithm:    "ccd",
		Model:        md,
		TestRMSE:     rmse,
		Trace:        rec.Trace(),
		Updates:      updates.Load(),
		Elapsed:      rec.Elapsed(),
		BytesSent:    net.BytesSent(),
		MessagesSent: net.MessagesSent(),
		Final: &train.State{
			Algorithm: "ccd",
			Seed:      cfg.Seed,
			Updates:   updates.Load(),
			Ring:      int64(outer),
			Model:     md,
		},
	}, ctx.Err()
}

// broadcastColumn models the all-to-all exchange of one freshly
// computed factor column: every machine ships its partition's slice of
// the column to every other machine, then all wait for arrival — the
// per-rank synchronization that bulk-synchronous CCD++ pays.
func broadcastColumn(net *netsim.Network, part *partition.Partition, machines int) {
	if machines <= 1 {
		return
	}
	expected := make([]int, machines)
	for src := 0; src < machines; src++ {
		rows := part.Size(src)
		if rows == 0 {
			continue
		}
		size := 16 + 8*rows // one float64 per row plus header
		for dst := 0; dst < machines; dst++ {
			if dst == src {
				continue
			}
			net.Send(src, dst, size, nil)
			expected[dst]++
		}
	}
	for mc, count := range expected {
		for i := 0; i < count; i++ {
			<-net.Recv(mc)
		}
	}
}

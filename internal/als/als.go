// Package als implements Alternating Least Squares (Zhou et al. 2008;
// paper §2.1): alternately solving the per-row normal equations
//
//	wᵢ ← (HᵀΩᵢ HΩᵢ + λ|Ωᵢ| I)⁻¹ Hᵀ aᵢ
//	hⱼ ← (WᵀΩ̄ⱼ WΩ̄ⱼ + λ|Ω̄ⱼ| I)⁻¹ Wᵀ aⱼ
//
// by Cholesky factorization. Each sweep is embarrassingly parallel over
// rows, then over columns, but every wᵢ update must read *all* hⱼ rated
// by user i (Fig 1a) — the coarse data dependence that makes ALS
// expensive to distribute (see package glals for the GraphLab-style
// distributed variant the paper compares against in Appendix F).
package als

import (
	"context"
	"sync/atomic"
	"time"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/parallel"
	"nomad/internal/train"
	"nomad/internal/vecmath"
)

// ALS is the solver. The zero value is ready to use.
type ALS struct{}

// New returns an ALS solver.
func New() *ALS { return &ALS{} }

// Name implements train.Algorithm.
func (*ALS) Name() string { return "als" }

// Train implements train.Algorithm. Machines is folded into the worker
// count; for network-cost modelling of distributed ALS use glals.
func (*ALS) Train(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	cfg, err := cfg.Normalize(ds)
	if err != nil {
		return nil, err
	}
	if err := cfg.RequireFloat64("als"); err != nil {
		return nil, err
	}
	if err := cfg.Resume.Validate("als", ds.Rows(), ds.Cols(), cfg.K); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := cfg.TotalWorkers()
	m, n := ds.Rows(), ds.Cols()
	// ALS carries no cross-sweep state beyond the factors: a resume is
	// a warm start from the restored model and update total.
	var md *factor.Model
	var resumed int64
	sweeps := 0
	if st := cfg.Resume; st != nil {
		md = st.Model
		resumed = st.Updates
		sweeps = int(st.Ring) // EpochEvent numbering continues
	} else {
		md = factor.NewInit(m, n, cfg.K, cfg.Seed)
	}
	k := cfg.K
	tr := ds.Train

	counter := train.NewCounterFor(cfg, p)
	rec := train.NewRecorderFor(cfg, ds, md, hooks)
	start := time.Now()
	var updates atomic.Int64
	updates.Store(resumed)

	// Per-worker scratch: Gram matrix and right-hand side.
	grams := make([][]float64, p)
	rhss := make([][]float64, p)
	for q := 0; q < p; q++ {
		grams[q] = make([]float64, k*k)
		rhss[q] = make([]float64, k)
	}

	for !train.StopCheck(ctx, cfg, start, updates.Load()) {
		// User sweep.
		parallel.For(p, m, func(worker, lo, hi int) {
			var touched int64
			for i := lo; i < hi; i++ {
				touched += int64(solveRow(md.UserRow(i), tr.Row, i, md.ItemRow, cfg.Lambda, grams[worker], rhss[worker], k))
			}
			counter.Add(worker, touched)
			updates.Add(touched)
		})
		// Item sweep (via the CSC view).
		parallel.For(p, n, func(worker, lo, hi int) {
			var touched int64
			for j := lo; j < hi; j++ {
				rows, pos := tr.Col(j)
				if len(rows) == 0 {
					continue
				}
				gram := grams[worker]
				rhs := rhss[worker]
				for x := range gram {
					gram[x] = 0
				}
				for x := range rhs {
					rhs[x] = 0
				}
				for x, i := range rows {
					wi := md.UserRow(int(i))
					vecmath.AddOuterScaled(gram, wi, 1, k)
					vecmath.Axpy(tr.ValAt(pos[x]), wi, rhs)
				}
				for l := 0; l < k; l++ {
					gram[l*k+l] += cfg.Lambda * float64(len(rows))
				}
				if err := vecmath.CholeskySolve(gram, rhs, k); err == nil {
					copy(md.ItemRow(j), rhs)
				}
				touched += int64(len(rows))
			}
			counter.Add(worker, touched)
			updates.Add(touched)
		})
		sweeps++
		hooks.Emit(train.EpochEvent{Epoch: sweeps, Updates: updates.Load()})
		if rec.Due(updates.Load()) {
			rec.Sample(md, updates.Load())
		}
	}
	rmse := rec.Sample(md, updates.Load())

	return &train.Result{
		Algorithm: "als",
		Model:     md,
		TestRMSE:  rmse,
		Trace:     rec.Trace(),
		Updates:   updates.Load(),
		Elapsed:   rec.Elapsed(),
		Final: &train.State{
			Algorithm: "als",
			Seed:      cfg.Seed,
			Updates:   updates.Load(),
			Ring:      int64(sweeps),
			Model:     md,
		},
	}, ctx.Err()
}

// solveRow solves one user row's normal equations in place and returns
// the number of ratings touched.
func solveRow(wRow []float64, rowFn func(int) ([]int32, []float64), i int,
	itemRow func(int) []float64, lambda float64, gram, rhs []float64, k int) int {

	cols, vals := rowFn(i)
	if len(cols) == 0 {
		return 0
	}
	for x := range gram {
		gram[x] = 0
	}
	for x := range rhs {
		rhs[x] = 0
	}
	for x, j := range cols {
		hj := itemRow(int(j))
		vecmath.AddOuterScaled(gram, hj, 1, k)
		vecmath.Axpy(vals[x], hj, rhs)
	}
	for l := 0; l < k; l++ {
		gram[l*k+l] += lambda * float64(len(cols))
	}
	if err := vecmath.CholeskySolve(gram, rhs, k); err == nil {
		copy(wRow, rhs)
	}
	return len(cols)
}

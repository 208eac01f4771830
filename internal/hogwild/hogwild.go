// Package hogwild implements Hogwild!-style asynchronous SGD (Recht et
// al. 2011), the paper's §4.2/§4.3 point of contrast: fully
// asynchronous like NOMAD, but *not serializable* — workers sample
// ratings uniformly at random and update shared factor rows without any
// coordination, so two workers can race on the same wᵢ or hⱼ.
//
// The paper argues (and the serializability ablation benchmark
// measures) that NOMAD's race-free update ordering converges faster;
// this package exists to make that comparison runnable.
package hogwild

import (
	"context"
	"sync"
	"sync/atomic"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/loss"
	"nomad/internal/rng"
	"nomad/internal/sched"
	"nomad/internal/sparse"
	"nomad/internal/train"
	"nomad/internal/vecmath"
)

// Hogwild is the solver. The zero value is ready to use.
type Hogwild struct{}

// New returns a Hogwild solver.
func New() *Hogwild { return &Hogwild{} }

// Name implements train.Algorithm.
func (*Hogwild) Name() string { return "hogwild" }

// Train implements train.Algorithm. Machines is treated as additional
// worker multiplicity: Hogwild has no distributed story (that is the
// point), so all workers share one memory image.
func (*Hogwild) Train(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	cfg, err := cfg.Normalize(ds)
	if err != nil {
		return nil, err
	}
	if err := cfg.Resume.Validate("hogwild", ds.Rows(), ds.Cols(), cfg.K); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := cfg.TotalWorkers()
	schedule := cfg.Schedule()

	// Flatten the training entries for O(1) uniform sampling.
	entries := ds.Train.Entries(nil)
	nnz := len(entries)

	// Per-rating update counts for eq. (11), in the entries' canonical
	// order — which is also their checkpoint order. Increments race
	// between workers — deliberately: Hogwild takes no locks anywhere.
	var md *factor.Model
	var counts []int32
	root := rng.New(cfg.Seed)
	workerRNG := make([]*rng.Source, p)
	if st := cfg.Resume; st != nil {
		md = st.Model
		counts = st.CountsFor(nnz)
		st.RestoreStreams(root, workerRNG)
	} else {
		md = factor.NewInitP(ds.Rows(), ds.Cols(), cfg.K, cfg.Seed, cfg.Precision)
		counts = make([]int32, nnz)
		for q := 0; q < p; q++ {
			workerRNG[q] = root.Split(uint64(q))
		}
	}

	worker := work[float64]
	if md.Precision() == factor.Float32 {
		worker = work[float32]
	}
	counter := train.NewCounterFor(cfg, p)
	rec := train.NewRecorderFor(cfg, ds, md, hooks)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for q := 0; q < p; q++ {
		wg.Add(1)
		go func(q int, r *rng.Source) {
			defer wg.Done()
			worker(md, cfg, schedule, entries, counts, counter, &stop, q, r)
		}(q, workerRNG[q])
	}

	runErr := train.Monitor(ctx, &stop, counter, cfg, rec, md, hooks)
	wg.Wait()
	rmse := rec.Sample(md, counter.Total())

	return &train.Result{
		Algorithm: "hogwild",
		Model:     md,
		TestRMSE:  rmse,
		Trace:     rec.Trace(),
		Updates:   counter.Total(),
		Elapsed:   rec.Elapsed(),
		Final: &train.State{
			Algorithm: "hogwild",
			Seed:      cfg.Seed,
			Updates:   counter.Total(),
			Model:     md,
			Counts:    counts,
			RNG:       train.CaptureStreams(root, workerRNG),
		},
	}, runErr
}

// work is Hogwild worker q on a model of precision T: until stop, draw
// a training rating uniformly with r and step its two rows, counting
// updates into counter and stopping the run at the update budget.
func work[T vecmath.Float](md *factor.Model, cfg train.Config, schedule *sched.Table, entries []sparse.Entry,
	counts []int32, counter *train.Counter, stop *atomic.Bool, q int, r *rng.Source) {
	wData, hData := factor.Flat[T](md)
	k, lambda := cfg.K, T(cfg.Lambda)
	kern := vecmath.KernelOf[T](k)
	lossFn := cfg.Loss
	fused := loss.IsSquare(lossFn) // devirtualize the default loss
	var batch int64
	for !stop.Load() {
		x := r.Intn(len(entries))
		e := entries[x]
		t := counts[x]
		counts[x] = t + 1 // racy by design
		step := T(schedule.Step(int(t)))
		wRow := wData[int(e.Row)*k:][:k]
		hRow := hData[int(e.Col)*k:][:k]
		if fused {
			kern.Step(wRow, hRow, T(e.Val), step, lambda)
		} else {
			g := lossFn.Grad(float64(kern.Dot(wRow, hRow)), e.Val)
			kern.Grad(wRow, hRow, T(g), step, lambda)
		}
		batch++
		if batch >= 256 {
			counter.Add(q, batch)
			batch = 0
			// Worker-side budget check: stop promptly once the
			// flushed total crosses the update budget.
			if counter.Total() >= cfg.MaxUpdates {
				stop.Store(true)
			}
		}
	}
	counter.Add(q, batch)
}

package core

// The shared-memory runner: workers exchange tokens through a p×p mesh
// of bounded SPSC rings. Tokens are popped in blocks, processed, and
// routed through per-destination out-buffers that are flushed in
// blocks, so the per-token cost of the transport is a slice append — the
// synchronization (one atomic release per block) and the routing RNG
// (one draw per four route choices) are amortized the way the paper
// amortizes network overhead by batching ~100 tokens per message
// (§3.5). Queue-length gossip for §3.3 load balancing reads padded
// atomics, never a lock.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nomad/internal/affinity"
	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/queue"
	"nomad/internal/rng"
	"nomad/internal/sched"
	"nomad/internal/train"
)

// sharedToken is the nomadic token of the shared-memory runner: just
// the item index, since hⱼ stays in the model under the ownership
// discipline.
type sharedToken struct {
	item int32
}

// meshBlock is the transport's block size: tokens popped per RecvBatch
// and buffered per destination before a flush. Large enough to
// amortize the per-block atomics to noise, small enough that tokens
// never go stale in a buffer (a token's SGD pass over its rating list
// dwarfs its time in a 64-slot buffer).
const meshBlock = 64

// meshResidual is what one worker leaves behind at stop: the popped
// but unprocessed remainder of its last block (the front of its
// logical queue) and the per-destination out-buffer tokens its lanes
// could not take (the back). The coordinator folds both into the
// token-conservation drain.
type meshResidual struct {
	in  []sharedToken
	out [][]sharedToken
}

// idleBackoff is the empty-queue wait policy shared by all worker
// loops: spin-yield first, then sleep with capped exponential backoff
// (1µs doubling to 128µs). The cap keeps cancellation prompt while the
// doubling keeps a long-idle worker from burning a core at 50kHz the
// way the old fixed 20µs sleep did.
type idleBackoff struct{ spins int }

func (b *idleBackoff) wait() {
	b.spins++
	if b.spins <= 64 {
		runtime.Gosched()
		return
	}
	shift := b.spins - 65
	if shift > 7 {
		shift = 7
	}
	time.Sleep(time.Microsecond << shift)
}

func (b *idleBackoff) reset() { b.spins = 0 }

// tokenRouter amortizes the routing RNG: one xoshiro step yields four
// 16-bit route choices (rng.Quad), so uniform routing pays ¼ draw per
// token and two-choice load balancing ½.
type tokenRouter struct {
	r    *rng.Source
	p    int
	vals [4]int
	left int
}

func (t *tokenRouter) next() int {
	if t.left == 0 {
		t.vals[0], t.vals[1], t.vals[2], t.vals[3] = t.r.Quad(t.p)
		t.left = 4
	}
	t.left--
	return t.vals[t.left]
}

// meshRingCap sizes a mesh lane at twice its expected uniform-routing
// occupancy (n/p tokens per worker spread over p inbound lanes) plus
// block slack, so the p² lanes preallocate ~2n slots total — an O(n)
// footprint instead of O(n·p).
// Skewed routing that overfills a lane is handled, not lost: the
// producer keeps the overflow in its out-buffer and retries, and the
// restore path preloads what a lane cannot take. For p=1 the single
// lane exceeds n, so the lone worker's flushes always succeed and the
// loop is exactly FIFO.
func meshRingCap(n, p int) int { return 2*n/(p*p) + 4*meshBlock }

// meshFlushThreshold adapts the out-buffer flush block to the token
// pool. With plentiful tokens (n ≫ p·meshBlock) full blocks amortize
// the per-flush atomics best; with few tokens — small matrices, or the
// paper's netflix shape scaled down — holding a scarce token in a
// buffer starves the destination worker, so the threshold shrinks to
// keep every token in circulation. The same reasoning bounds the
// paper's choice of ~100 tokens per network message (§3.5): batching
// pays only when tokens queue up behind each other anyway.
func meshFlushThreshold(n, p int) int {
	t := n / (4 * p)
	if t < 1 {
		return 1
	}
	if t > meshBlock {
		return meshBlock
	}
	return t
}

// trainShared runs Algorithm 1 with p worker goroutines in one
// process. With cfg.Resume set it restores the checkpointed model,
// per-rating schedule counts, RNG streams and token ownership instead
// of initializing fresh. For a single worker the continuation is
// bit-compatible with an uninterrupted run: token order is FIFO, the
// stop decision happens at a deterministic counter-flush boundary, and
// the drained ownership map reconstructs the logical queue exactly.
func trainShared(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	p := cfg.Workers
	m, n := ds.Rows(), ds.Cols()
	users := partitionUsers(ds, cfg, p)
	local := buildLocalRatings(ds.Train, users)
	schedule := cfg.Schedule()
	root := rng.New(cfg.Seed)

	mesh := queue.NewMesh[sharedToken](p, meshRingCap(n, p))
	// preload[q] seeds worker q's self-destination out-buffer with
	// tokens that did not fit in its lanes at placement time; the
	// worker's own flushes feed them into circulation.
	preload := make([][]sharedToken, p)

	var md *factor.Model
	workerRNG := make([]*rng.Source, p)
	if st := cfg.Resume; st != nil {
		md = st.Model
		importCounts(ds.Train, users, local, st.CountsFor(ds.Train.NNZ()))
		st.RestoreStreams(root, workerRNG)
		if err := restoreMesh(mesh, preload, st.Queues, n, root); err != nil {
			return nil, err
		}
	} else {
		md = factor.NewInitP(m, n, cfg.K, cfg.Seed, cfg.Precision)
		// Initial token placement (Algorithm 1 lines 6–10), spread over
		// source lanes so no lane carries the whole scatter.
		for j := 0; j < n; j++ {
			dst := root.Intn(p)
			if !mesh.Send(j%p, dst, sharedToken{item: int32(j)}) {
				preload[dst] = append(preload[dst], sharedToken{item: int32(j)})
			}
		}
		for q := 0; q < p; q++ {
			workerRNG[q] = root.Split(uint64(q))
		}
	}

	counter := train.NewCounterFor(cfg, p)
	rec := train.NewRecorderFor(cfg, ds.Test, md, hooks)
	var stop atomic.Bool
	residual := make([]meshResidual, p)
	var wg sync.WaitGroup
	for q := 0; q < p; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			runSharedWorkerMesh(q, md, local[q], mesh, schedule, cfg, counter, &stop,
				workerRNG[q], preload[q], &residual[q])
		}(q)
	}

	runErr := train.Monitor(ctx, &stop, counter, cfg, rec, md, hooks)
	wg.Wait()

	// Ownership invariant: every item token must now be in exactly one
	// place. A mismatch would mean a token was lost or duplicated — i.e.
	// the serializability discipline was broken. Per worker, the logical
	// queue order is its unprocessed block remainder (front), then its
	// mesh row, then whatever peers could not flush toward it (back);
	// that order is the checkpoint's token-ownership map.
	parked := 0
	parkedQueues := make([][]int32, p)
	for q := 0; q < p; q++ {
		for _, tok := range residual[q].in {
			parkedQueues[q] = append(parkedQueues[q], tok.item)
		}
		mesh.Drain(q, func(tok sharedToken) {
			parkedQueues[q] = append(parkedQueues[q], tok.item)
		})
	}
	for src := 0; src < p; src++ {
		for dst, toks := range residual[src].out {
			for _, tok := range toks {
				parkedQueues[dst] = append(parkedQueues[dst], tok.item)
			}
		}
	}
	for q := range parkedQueues {
		parked += len(parkedQueues[q])
	}
	if parked != n {
		return nil, fmt.Errorf("core: token conservation violated: %d tokens for %d items", parked, n)
	}

	rec.Sample(md, counter.Total())
	return &train.Result{
		Algorithm: "nomad",
		Model:     md,
		Trace:     rec.Trace(),
		Updates:   counter.Total(),
		Elapsed:   rec.Elapsed(),
		Final: &train.State{
			Algorithm: "nomad",
			Seed:      cfg.Seed,
			Updates:   counter.Total(),
			Model:     md,
			Counts:    exportCounts(ds.Train, users, local),
			RNG:       train.CaptureStreams(root, workerRNG),
			Queues:    parkedQueues,
		},
	}, runErr
}

// runSharedWorkerMesh is Algorithm 1's per-worker loop on the batched
// transport: pop a block, run SGD per token, route each token into a
// per-destination out-buffer, flush buffers in blocks.
func runSharedWorkerMesh(q int, md *factor.Model, lr *localRatings,
	mesh *queue.Mesh[sharedToken], schedule sched.Schedule, cfg train.Config,
	counter *train.Counter, stop *atomic.Bool, r *rng.Source,
	preload []sharedToken, res *meshResidual) {

	p := mesh.P()
	if cfg.PinWorkers {
		affinity.Pin(q)
		defer affinity.Unpin()
	}
	hp := newHotPath(md, schedule, cfg)
	loadBalance := cfg.LoadBalance && p > 1
	straggler := q == 0 && cfg.Straggle > 1
	route := tokenRouter{r: r, p: p}
	threshold := meshFlushThreshold(md.N, p)

	var in [meshBlock]sharedToken
	out := make([][]sharedToken, p)
	for d := range out {
		out[d] = make([]sharedToken, 0, 2*meshBlock)
	}
	out[q] = append(out[q], preload...)

	// flush pushes out[d]'s tokens into the lane in order, keeping
	// whatever the lane cannot take. Reports whether any token moved.
	flush := func(d int) bool {
		if len(out[d]) == 0 {
			return false
		}
		acc := mesh.SendBatch(q, d, out[d])
		if acc == 0 {
			return false
		}
		rest := copy(out[d], out[d][acc:])
		out[d] = out[d][:rest]
		return true
	}

	var batch int64 // updates since last counter flush
	var began time.Time

	// The lanes begin tokens before earlier ones finish, so the budget
	// check cannot wait for finish: begin runs finish's flush arithmetic
	// ahead of it (same tokens, same order, same threshold, hence the
	// same flushes) and starts no token past the one whose flush will
	// cross the budget. ahead is what begin has flushed and finish has
	// not. With one worker nothing else moves the counter, so this is
	// the token the loop always stopped on; with several, a crossing
	// seen here is a lower bound on the one finish will see.
	var aheadBatch, ahead int64
	crossed := false
	begin := func(n int) bool {
		if crossed {
			return false
		}
		if aheadBatch += int64(n); aheadBatch >= 256 {
			ahead, aheadBatch = ahead+aheadBatch, 0
			crossed = counter.Total()+ahead >= cfg.MaxUpdates
		}
		if straggler {
			began = time.Now()
		}
		return true
	}
	// finish is the per-token bookkeeping, in token order: count, check
	// the budget, route the token on. Reports whether the run is stopping.
	finish := func(i, n int) bool {
		if straggler && n > 0 && !stop.Load() {
			// Simulate a slow machine (§3.3 ablation); skipped once
			// stop is set so cancellation stays prompt.
			time.Sleep(time.Duration(float64(time.Since(began)) * (cfg.Straggle - 1)))
		}
		batch += int64(n)
		if batch >= 256 {
			counter.Add(q, batch)
			ahead, batch = ahead-batch, 0
			// Worker-side budget check: stops the run at a token boundary
			// as soon as the flushed total crosses the update budget,
			// instead of waiting for the monitor's next poll. For a single
			// worker this makes the stop point — and hence
			// checkpoint/resume — fully deterministic.
			if counter.Total() >= cfg.MaxUpdates {
				stop.Store(true)
			}
		}

		// Forward the token (lines 22–23): uniform, or the §3.3
		// least-loaded choice between two candidates — the length
		// probes are single atomic loads.
		dst := 0
		if loadBalance {
			a, b := route.next(), route.next()
			dst = a
			if mesh.ApproxLen(b) < mesh.ApproxLen(a) {
				dst = b
			}
		} else if p > 1 {
			dst = route.next()
		}
		out[dst] = append(out[dst], in[i])
		if len(out[dst]) >= threshold {
			flush(dst)
		}
		return stop.Load()
	}

	// The simulated straggler times each token, so it keeps to token
	// order; so does a hot path without a two-list kernel.
	lanes := !straggler && (hp.pair != nil || hp.pair32 != nil)
	var items [meshBlock]int32
	var idle idleBackoff
	for !stop.Load() {
		k := mesh.RecvBatch(q, in[:])
		if k == 0 {
			// Nothing inbound: push pending tokens along so they keep
			// circulating, then back off.
			moved := false
			for d := 0; d < p; d++ {
				if flush(d) {
					moved = true
				}
			}
			if moved {
				idle.reset()
			} else {
				idle.wait()
			}
			continue
		}
		idle.reset()
		for i, tok := range in[:k] {
			items[i] = tok.item
		}
		// SGD over this worker's ratings for each token's item (lines
		// 16–21), then finish. A stop leaves whole tokens only: park the
		// block's untouched remainder as the front of this worker's
		// logical queue.
		if done := hp.runBlock(lr, items[:k], lanes, begin, finish); done < k {
			res.in = append(res.in, in[done:k]...)
			break
		}
	}
	counter.Add(q, batch)

	// Final flush; whatever the lanes cannot take is parked for the
	// coordinator's drain.
	res.out = make([][]sharedToken, p)
	for d := 0; d < p; d++ {
		flush(d)
		if len(out[d]) > 0 {
			res.out[d] = out[d]
		}
	}
}

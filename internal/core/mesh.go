package core

// The token mesh and the one worker loop. Workers exchange item tokens
// through a mesh of bounded SPSC rings — the p workers of a
// shared-memory run, or one machine's W workers plus its network port
// (dist_mesh.go). Tokens are popped in blocks, trained, and routed
// through per-destination out-buffers that are flushed in blocks, so
// the per-token cost of the transport is a slice append — the
// synchronization (one atomic release per block) and the routing RNG
// (one draw per four route choices) are amortized the way the paper
// amortizes network overhead by batching ~100 tokens per message
// (§3.5). Queue-length gossip for §3.3 load balancing reads padded
// atomics, never a lock.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/queue"
	"nomad/internal/rng"
	"nomad/internal/train"
	"nomad/internal/vecmath"
)

// itemToken is the nomadic token inside a machine: just the item
// index. hⱼ lives in the model row, which the token's holder owns; a
// distributed run copies it out only onto the wire (dist_mesh.go).
type itemToken struct {
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
// could not take (the back). The runner folds both into the
// token-conservation check.
type meshResidual struct {
	in  []itemToken
	out [][]itemToken
}

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
func meshFlushThreshold(n, p int) int { return min(max(n/(4*p), 1), meshBlock) }

// trainShared runs Algorithm 1 with p worker goroutines in one
// process. With cfg.Resume set it restores the checkpointed model,
// per-rating schedule counts, RNG streams and token ownership instead
// of initializing fresh. For a single worker the continuation is
// bit-compatible with an uninterrupted run: token order is FIFO, the
// stop decision happens at a deterministic counter-flush boundary, and
// the drained ownership map reconstructs the logical queue exactly.
func trainShared(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks, vl *visitLog) (*train.Result, error) {
	p := cfg.Workers
	m, n := ds.Rows(), ds.Cols()
	users := partitionUsers(ds, cfg, p)
	st := cfg.Resume
	local := buildShards(ds.Train, users, 0, p, resumeCounts(st, ds))
	root := rng.New(cfg.Seed)

	mesh := queue.NewMesh[itemToken](p, meshRingCap(n, p))
	// preload[q] seeds worker q's self-destination out-buffer with
	// tokens that did not fit in its lanes at placement time; the
	// worker's own flushes feed them into circulation.
	preload := make([][]itemToken, p)

	var md *factor.Model
	var saved [][]int32
	workerRNG := make([]*rng.Source, p)
	if st != nil {
		md, saved = st.Model, st.Queues
		st.RestoreStreams(root, workerRNG)
	} else {
		md = factor.NewInitP(m, n, cfg.K, cfg.Seed, cfg.Precision)
	}
	// Token placement: the checkpointed ownership map, or without one
	// Algorithm 1's initial scatter (lines 6–10).
	if err := restoreMesh(mesh, preload, saved, n, root); err != nil {
		return nil, err
	}
	if st == nil {
		for q := 0; q < p; q++ {
			workerRNG[q] = root.Split(uint64(q))
		}
	}

	var lg *machineLog // the replay check's: one machine, every token placed on it
	if vl != nil {
		lg = newMachineLog(n, p)
		for j := range int32(n) {
			lg.arrived(-1, j)
		}
		vl.machines = []*machineLog{lg}
	}

	counter := train.NewCounterFor(cfg, p)
	rec := train.NewRecorderFor(cfg, ds, md, hooks)
	var stop atomic.Bool
	workers := make([]worker, p)
	var wg sync.WaitGroup
	for q := range workers {
		workers[q] = worker{mesh: mesh, q: q, gw: q, port: -1, lr: local[q],
			threshold: meshFlushThreshold(n, p), r: workerRNG[q], preload: preload[q], log: lg}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			runWorker(w, md, cfg, counter, &stop)
		}(&workers[q])
	}

	runErr := train.Monitor(ctx, &stop, counter, cfg, rec, md, hooks)
	for q := range p {
		mesh.Wake(q) // stop is raised: a parked worker must see it
	}
	wg.Wait()

	// Every item token must now be in exactly one place, in each
	// worker's logical queue order — the checkpoint's token-ownership map.
	parked := make([][]int32, p)
	collectParked(parked, mesh, workers)
	if err := forEachParked(parked, n, nil); err != nil {
		return nil, fmt.Errorf("core: token conservation violated: %w", err)
	}

	return finalResult(cfg, md, rec, counter.Total(), exportCounts(ds.Train, users, local, 0), root, workerRNG, parked), runErr
}

// collectParked appends to queues[d] every token a stopped mesh holds
// for endpoint d, in logical queue order: each worker's unprocessed
// block remainder (front), the endpoint's mesh row, then whatever the
// workers' out-buffers could not flush toward it (back).
func collectParked(queues [][]int32, mesh *queue.Mesh[itemToken], workers []worker) {
	for i := range workers {
		for _, tok := range workers[i].res.in {
			queues[workers[i].q] = append(queues[workers[i].q], tok.item)
		}
	}
	for d := range queues {
		mesh.Drain(d, func(tok itemToken) { queues[d] = append(queues[d], tok.item) })
	}
	for i := range workers {
		for d, toks := range workers[i].res.out {
			for _, tok := range toks {
				queues[d] = append(queues[d], tok.item)
			}
		}
	}
}

// worker is one compute thread of Algorithm 1: a mesh endpoint, the
// ratings it trains and where its tokens go next. trainShared and
// runMachine fill one in per thread; runWorker drives it.
type worker struct {
	mesh      *queue.Mesh[itemToken]
	q         int              // this worker's endpoint in mesh
	gw        int              // global worker id: counter shard; 0 may straggle
	port      int              // the machine's network endpoint, or -1 in shared memory
	plans     *visitPlans      // §3.4 local visit plans; nil when there is never a next stop
	mc        int              // machine id, for the failover hooks
	home      *meshMachine     // the worker's machine; nil in shared memory
	fo        *failoverRuntime // nil without failover
	lr        *localRatings
	threshold int         // out-buffer flush size
	r         *rng.Source // route draws, made only where there is no port
	preload   []itemToken // placed here but refused by the lanes; flushed behind them
	log       *machineLog // the replay check's; nil when it is off
	res       meshResidual
}

// runWorker is Algorithm 1's per-worker loop for every runner: pop a
// block from the worker's mesh row, train it with runBlock, and route
// each token as it finishes — to the next stop of its local visit
// plan; when the plan is done, out through the machine's port; with no
// port (shared memory), to a worker drawn uniformly or by §3.3
// two-choice — through per-destination out-buffers flushed in blocks.
// At stop it leaves what it still holds in w.res. The model's precision
// is chosen here, once: below it the loop is one generic body, whose
// calls into the hot path stay static (through an interface, begin and
// finish would escape, and with them the loop's per-token counters,
// which then cost shm-longtail a fifth of its throughput).
func runWorker(w *worker, md *factor.Model, cfg train.Config,
	counter *train.Counter, stop *atomic.Bool) {
	if md.Precision() == factor.Float32 {
		runWorkerOf(newHotPath[float32](md, cfg), w, cfg, counter, stop)
		return
	}
	runWorkerOf(newHotPath[float64](md, cfg), w, cfg, counter, stop)
}

func runWorkerOf[T vecmath.Float](hp *hotPath[T], w *worker, cfg train.Config,
	counter *train.Counter, stop *atomic.Bool) {

	p, fo := w.mesh.P(), w.fo
	loadBalance := cfg.LoadBalance && p > 1
	straggler := w.gw == 0 && cfg.Straggle > 1
	route := tokenRouter{r: w.r, p: p}

	var in [meshBlock]itemToken
	out := make([][]itemToken, p)
	for d := range out {
		out[d] = make([]itemToken, 0, 2*meshBlock)
	}
	out[w.q] = append(out[w.q], w.preload...)

	// flush pushes out[d]'s tokens into the lane in order, keeping
	// whatever the lane cannot take. Reports whether any token moved.
	flush := func(d int) bool {
		if len(out[d]) == 0 {
			return false
		}
		acc := w.mesh.SendBatch(w.q, d, out[d])
		if acc == 0 {
			return false
		}
		out[d] = out[d][:copy(out[d], out[d][acc:])]
		return true
	}

	var batch int64 // updates since last counter flush
	var began time.Time
	// Shards this worker trains beyond its own: a latent spare's
	// fostered users, or a dead or drained machine's users remapped here.
	var extras []*localRatings
	var respSeen uint64

	// The lanes begin tokens before earlier ones finish, so the budget
	// check cannot wait for finish: begin runs finish's flush arithmetic
	// ahead of it (same tokens, same order, same threshold, hence the
	// same flushes) and raises stop at the token whose flush will cross
	// the budget; that token still runs, no later one starts. ahead is
	// what begin has flushed and finish has not. With one worker this is
	// the token the loop always stopped on. begin does not count extras,
	// so with them its flushes are not finish's, but the crossing it sees
	// is still reached: a worker's whole batch is counted at exit.
	var aheadBatch, ahead int64
	begin := func(n int) bool {
		if stop.Load() || fo.machineGone(w.mc) {
			return false
		}
		if aheadBatch += int64(n); aheadBatch >= 256 {
			ahead, aheadBatch = ahead+aheadBatch, 0
			if counter.Total()+ahead >= cfg.MaxUpdates {
				stop.Store(true)
			}
		}
		if straggler {
			began = time.Now()
		}
		return true
	}
	// finish is the per-token bookkeeping, in token order: train the
	// extras, count, check the budget, route the token on. Reports
	// whether the run is stopping.
	finish := func(i, n int) bool {
		if straggler && n > 0 && !stop.Load() {
			// Simulate a slow machine (§3.3 ablation); skipped once
			// stop is set so cancellation stays prompt.
			time.Sleep(time.Duration(float64(time.Since(began)) * (cfg.Straggle - 1)))
		}
		j := int(in[i].item)
		batch += int64(n)
		// Before the token is routed: once it is, another worker may
		// own hⱼ.
		for _, ex := range extras {
			usersJ, vals, counts := ex.itemRatings(j)
			hp.itemSGDItem(j, usersJ, vals, counts)
			batch += int64(len(usersJ))
		}
		if w.log != nil {
			w.log.visited(w.q, in[i].item)
		}
		if batch >= 256 {
			counter.Add(w.gw, batch)
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

		// Forward the token (lines 22–23). The §3.3 two-choice probes
		// are single atomic loads.
		dst, ok := w.plans.nextStop(j)
		switch {
		case ok:
		case w.port >= 0:
			dst = w.port
		case loadBalance:
			a, b := route.next(), route.next()
			dst = a
			if w.mesh.ApproxLen(b) < w.mesh.ApproxLen(a) {
				dst = b
			}
		case p > 1:
			dst = route.next()
		}
		out[dst] = append(out[dst], in[i])
		if len(out[dst]) >= w.threshold {
			flush(dst)
		}
		return stop.Load()
	}

	// The simulated straggler times each token, so it keeps to token
	// order; so does a hot path without a two-list kernel.
	lanes := !straggler && hp.pair != nil
	var items [meshBlock]int32
	// recheck runs once the worker is published as parked (Mesh.Park):
	// it marks the rows whose full lanes refused its tokens and retries
	// them, lets the receiver retry its overflow into lanes this worker
	// has emptied, and has a draining machine's leaver re-check its
	// quiesce.
	recheck := func() bool {
		moved := false
		for d := range out {
			if len(out[d]) > 0 {
				w.mesh.Blocked(d)
				moved = flush(d) || moved
			}
		}
		if !moved && w.home != nil {
			w.home.parking(fo.drainingMachine(w.mc))
		}
		return moved
	}
	for !stop.Load() && !fo.machineGone(w.mc) {
		k := w.mesh.RecvBatch(w.q, in[:])
		if fo.drainingMachine(w.mc) {
			// Graceful leave: stop training and forward everything this
			// worker holds — inbound lane tokens and unflushed hand-off
			// buffers alike — to the port; the next machine plans afresh.
			out[w.port] = append(out[w.port], in[:k]...)
			for d := 0; d < w.port; d++ {
				out[w.port] = append(out[w.port], out[d]...)
				out[d] = out[d][:0]
			}
			k = 0
		}
		if k == 0 {
			// Nothing to train: push pending tokens along so they keep
			// circulating, else park. A worker parked holding nothing is
			// what a drain's quiesce check reads as idle.
			moved, holding := false, false
			for d := range out {
				moved = flush(d) || moved
				holding = holding || len(out[d]) > 0
			}
			if !moved {
				w.mesh.Park(w.q, holding, recheck)
			}
			continue
		}
		if g := fo.respGeneration(); g != respSeen {
			respSeen = g
			extras = fo.extraShards(w.gw, extras)
		}
		for i, tok := range in[:k] {
			items[i] = tok.item
		}
		// SGD over this worker's ratings for each token's item (lines
		// 16–21), then finish. A stop leaves whole tokens only: park the
		// block's untouched remainder as the front of this worker's
		// logical queue.
		if done := hp.runBlock(w.lr, items[:k], lanes, begin, finish); done < k {
			w.res.in = append(w.res.in, in[done:k]...)
			break
		}
	}
	counter.Add(w.gw, batch)

	// Final flush; whatever the lanes cannot take is parked for the
	// runner's conservation check.
	for d := range out {
		flush(d)
	}
	w.res.out = out
}

package core

// The distributed runner: each machine's W workers plus its sender and
// receiver threads share a (W+1)-endpoint mesh whose last endpoint —
// the "network port" — is produced into by
// the receiver (inbound tokens starting their §3.4 local circulation)
// and consumed from by the sender (tokens whose visit plan is
// exhausted). Every lane keeps the single-producer single-consumer
// discipline, so the intra-machine transport is identical to the
// shared-memory one and the network batching of §3.5 starts from
// already-batched port reads. Tokens cross the network as pooled
// arena batches (cluster.Sender, cluster.BatchBuf) and are recycled
// from the sender back to the receiver (tokenPool), so the steady-state
// token path allocates nothing.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/queue"
	"nomad/internal/rng"
	"nomad/internal/sched"
	"nomad/internal/train"
)

// distToken is a nomadic token inside one machine: the traveling
// (j, hⱼ) pair plus the list of local workers it still has to visit
// before leaving over the network (§3.4's intra-machine circulation).
type distToken struct {
	tok  cluster.Token
	plan []int8 // local workers to visit, in order; a recycled token reuses the backing
	next int    // plan[next:] are the stops still ahead
}

// tokenPool recycles distTokens from a machine's sender (producer of
// spent tokens) to its receiver (consumer): the sender returns a token
// once Sender.Add has copied its vector into the outbound batch arena,
// and the receiver refills it — vector storage and visit-plan backing
// included — from the next inbound arena, so the steady-state receive
// path allocates nothing.
//
// An SPSC ring carries the spent tokens across, a stash of meshBlock
// at a time. The receiver empties the ring onto a stack of its own
// once per inbound batch (collect) and takes from the top, so the
// token it reuses is the one the sender let go of last: the one most
// likely still in cache.
//
// Ring and stack each hold all n tokens of the run. In the closed
// circuit the tokens travel, a machine's share wanders over the whole
// range from none to all of them, so any smaller pool overflows while
// the machine empties and allocates again while it fills. The token
// count itself grows only on demand, to the machine's peak holding.
type tokenPool struct {
	ring  *queue.Ring[*distToken]
	spent []*distToken // sender-side stash, pushed when full
	free  []*distToken // receiver-side stack, newest on top
}

// newTokenPool returns a pool for a run of n tokens.
func newTokenPool(n int) *tokenPool {
	return &tokenPool{
		ring:  queue.NewRing[*distToken](n),
		spent: make([]*distToken, 0, meshBlock),
		free:  make([]*distToken, 0, n),
	}
}

// collect moves every token the sender has returned so far onto the
// receiver's stack. Receiver goroutine only, once per inbound batch.
//
//nomad:noalloc
func (tp *tokenPool) collect() {
	have := len(tp.free)
	tp.free = tp.free[:have+tp.ring.PopBatch(tp.free[have:cap(tp.free)])]
}

// fromInbound materializes an inbound wire token as a machine-local
// distToken, copying the k-coordinate vector out of the (recycled)
// batch arena into pooled storage. Receiver goroutine only. Kept out
// of line so its warm-up allocations stay in this frame, next to their
// waivers, rather than inlining into the delivery loop.
//
//go:noinline
//nomad:noalloc
func (tp *tokenPool) fromInbound(t cluster.Token, k int) *distToken {
	var tok *distToken
	if top := len(tp.free) - 1; top >= 0 {
		tok, tp.free[top] = tp.free[top], nil
		tp.free = tp.free[:top]
	} else {
		tok = new(distToken) //nomad:alloc-ok warm-up growth until the machine has seen its peak token count
	}
	tok.tok.Item = t.Item
	if cap(tok.tok.Vec) < k {
		tok.tok.Vec = make([]float64, k) //nomad:alloc-ok warm-up growth, as above
	}
	tok.tok.Vec = tok.tok.Vec[:k]
	copy(tok.tok.Vec, t.Vec)
	return tok
}

// put returns a spent token (vector already copied into a batch
// arena) for reuse. Sender goroutine only.
//
//nomad:noalloc
func (tp *tokenPool) put(tok *distToken) {
	tp.spent = append(tp.spent, tok)
	if len(tp.spent) == cap(tp.spent) {
		tp.ring.PushBatch(tp.spent) // what a full ring refuses goes to the GC
		clear(tp.spent)
		tp.spent = tp.spent[:0]
	}
}

// newTokens builds the n item tokens of a run's initial placement from
// one vector slab and one token array, each vector filled from the
// model's item row.
func newTokens(md *factor.Model) []distToken {
	k := md.K
	slab := make([]float64, md.N*k)
	toks := make([]distToken, md.N)
	for j := range toks {
		vec := slab[j*k : (j+1)*k : (j+1)*k]
		md.CopyItemRowTo64(j, vec)
		toks[j].tok = cluster.Token{Item: int32(j), Vec: vec}
	}
	return toks
}

// meshMachine is one machine of the hybrid architecture: W compute
// workers plus the dedicated sender and receiver goroutines the paper
// reserves for communication (§3.4), sharing one mesh.
type meshMachine struct {
	id      int
	workers int
	mesh    *queue.Mesh[*distToken]
	pool    *tokenPool // sender→receiver distToken recycling

	// stage collects, per first-stop lane, the tokens of the inbound
	// batch the receiver is unpacking; publishStaged empties it with one
	// SendBatch per lane before the batch is accounted as delivered.
	stage [][]*distToken

	// pending holds receiver-delivered tokens whose worker lane was
	// momentarily full; retried on the next inbound message and folded
	// into the final collection at teardown. pendingN mirrors the total
	// held (visible-in-lane before decrement), so a drain's quiesce
	// check can account for tokens parked here.
	pending  [][]*distToken
	pendingN atomic.Int64

	// lastKnown[r] is the most recent queue-length gossip received
	// from machine r (§3.3).
	lastKnown []atomic.Int64
}

// newMeshMachine returns the machine of rank id in a cluster with
// machines ranks: a mesh of workers compute endpoints plus the port,
// on lanes of ringCap slots, and a recycler for the run's n tokens.
func newMeshMachine(id, workers, ringCap, n, machines int) *meshMachine {
	return &meshMachine{
		id:        id,
		workers:   workers,
		mesh:      queue.NewMesh[*distToken](workers+1, ringCap),
		pool:      newTokenPool(n),
		stage:     make([][]*distToken, workers+1),
		pending:   make([][]*distToken, workers+1),
		lastKnown: make([]atomic.Int64, machines),
	}
}

// port is the mesh endpoint owned by the communication threads.
func (mc *meshMachine) port() int { return mc.workers }

// queueLen is the machine's total backlog, gossiped to peers. All
// reads are single atomic loads — §3.3 gossip never takes a lock.
func (mc *meshMachine) queueLen() int {
	n := 0
	for d := 0; d <= mc.workers; d++ {
		n += mc.mesh.ApproxLen(d)
	}
	return n
}

// retryPending re-offers tokens whose lane was full when the receiver
// first delivered them.
func (mc *meshMachine) retryPending() {
	for d, toks := range mc.pending {
		if len(toks) == 0 {
			continue
		}
		acc := mc.mesh.SendBatch(mc.port(), d, toks)
		if acc > 0 {
			rest := copy(toks, toks[acc:])
			for i := rest; i < len(toks); i++ {
				toks[i] = nil // release for GC
			}
			mc.pending[d] = toks[:rest]
			// After SendBatch: the tokens are visible in the lane before
			// the pending count drops, so the two never read zero while a
			// token is between stations.
			mc.pendingN.Add(-int64(acc))
		}
	}
}

// machinePicker returns the sender's outbound-destination chooser:
// uniform over peers, or the §3.3 least-loaded known peer with random
// tie-break, reported as a BalanceEvent.
func machinePicker(id, M int, loadBalance bool, lastKnown []atomic.Int64, r *rng.Source, hooks *train.Hooks) func() int {
	return func() int {
		if M == 1 {
			return 0
		}
		if loadBalance {
			best, bestLen := -1, int64(1<<62)
			ties := 0
			for dst := 0; dst < M; dst++ {
				if dst == id {
					continue
				}
				l := lastKnown[dst].Load()
				switch {
				case l < bestLen:
					best, bestLen, ties = dst, l, 1
				case l == bestLen:
					ties++
					if r.Intn(ties) == 0 {
						best = dst
					}
				}
			}
			hooks.EmitBalance(train.BalanceEvent{From: id, To: best, QueueLen: bestLen})
			return best
		}
		dst := r.Intn(M - 1)
		if dst >= id {
			dst++
		}
		return dst
	}
}

// trainDistributed runs NOMAD across cfg.Machines machines connected
// by the configured link backend (simulated network or TCP). Resume
// restores the model, per-rating schedule counts and RNG streams;
// tokens (folded into the model when the previous run tore down) are
// re-scattered.
func trainDistributed(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	// M counts the initial members; Mtot adds the provisioned elastic
	// spares, which run their communication threads from the start but
	// stay latent (no tokens, gossip-poisoned) until a join round.
	M, W := cfg.Machines, cfg.Workers
	Mtot := cfg.TotalMachines()
	p := Mtot * W
	m, n := ds.Rows(), ds.Cols()
	users := partitionUsers(ds, cfg, p) // global worker id = machine*W + worker
	local := buildLocalRatings(ds.Train, users)
	schedule := cfg.Schedule()
	fo := newFailoverRuntime(cfg, hooks, n)
	links, err := buildLinks(ctx, ds, cfg, hooks, fo.detectFunc())
	if err != nil {
		return nil, err
	}
	var chaos *cluster.ChaosController
	if cfg.Chaos != nil {
		chaos = cluster.NewChaosController(cfg.Chaos)
		chaos.SetSnapshotKind(ctlFoReplToks)
		chaos.OnKill(func(victim int) { fo.killMachine(victim) })
		chaos.OnJoin(func(rank int) {
			if err := fo.requestJoin(rank); err != nil {
				fo.fail(err)
			}
		})
		chaos.OnDrain(func(rank int) {
			if err := fo.requestDrain(rank); err != nil {
				fo.fail(err)
			}
		})
		links = chaos.WrapAll(links)
	}
	root := rng.New(cfg.Seed)

	var md *factor.Model
	workerRNG := make([]*rng.Source, p)
	if st := cfg.Resume; st != nil {
		md = st.Model
		importCounts(ds.Train, users, local, st.CountsFor(ds.Train.NNZ()))
		st.RestoreStreams(root, workerRNG)
	} else {
		md = factor.NewInitP(m, n, cfg.K, cfg.Seed, cfg.Precision)
		for q := 0; q < p; q++ {
			workerRNG[q] = root.Split(uint64(q))
		}
	}

	machines := make([]*meshMachine, Mtot)
	for mcID := 0; mcID < Mtot; mcID++ {
		mc := newMeshMachine(mcID, W, meshRingCap(n, M*W), n, Mtot)
		// Latent spares lose every least-loaded comparison until a join
		// activates them (and clears the poison).
		for r := M; r < Mtot; r++ {
			mc.lastKnown[r].Store(poisonedQueueLen)
		}
		fo.setRetryFn(mcID, mc.retryPending)
		machines[mcID] = mc
	}

	// Initial placement: every item token starts at a uniformly random
	// machine with a fresh local visit plan (Algorithm 1 lines 6–10).
	permScratch := make([]int, W)
	toks := newTokens(md)
	for j := range toks {
		mc := machines[root.Intn(M)]
		if fo != nil {
			fo.noteOwned(mc.id, int32(j))
		}
		mc.stageLocal(&toks[j], cfg.Circulate, root, permScratch)
		mc.publishStaged()
	}

	var stop atomic.Bool

	// A transport failure (TCP peer down) must end the run even though
	// the update budget can no longer be reached.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	fo.bind(links, md, local, users, func(victim int) {
		// Poison the gossip tables so every §3.3 least-loaded picker
		// shuns the dead machine from its next decision on.
		for _, mc := range machines {
			mc.lastKnown[victim].Store(poisonedQueueLen)
		}
	}, func(rank int) {
		// A spare just activated: clear the poison so pickers can route
		// to it.
		for _, mc := range machines {
			mc.lastKnown[rank].Store(0)
		}
	}, &stop, cancelRun)
	fo.startAgents()
	if cfg.Elastic != nil && fo != nil {
		cfg.Elastic.Bind(fo.requestJoin, fo.requestDrain)
	}
	if chaos != nil {
		chaos.Arm(links)
	}

	// The recorder publishes the first TraceEvent, so it starts only
	// now that the membership controls are bound: a subscriber reacting
	// to that event may already resize the run.
	counter := train.NewCounterFor(cfg, p)
	rec := train.NewRecorderFor(cfg, ds.Test, md, hooks)

	// Compute workers. residual[mc][w] keeps each worker's unflushed
	// out-buffers for the final collection.
	residual := make([][][][]*distToken, Mtot)
	var workerWG sync.WaitGroup
	for mcID := 0; mcID < Mtot; mcID++ {
		residual[mcID] = make([][][]*distToken, W)
		for w := 0; w < W; w++ {
			workerWG.Add(1)
			go func(mc *meshMachine, w int) {
				defer workerWG.Done()
				residual[mc.id][w] = runDistWorkerMesh(mc, w, md, local[mc.id*W+w], schedule, cfg,
					counter, &stop, workerRNG[mc.id*W+w], fo)
			}(machines[mcID], w)
		}
	}

	// Sender and receiver threads, one of each per machine. Senders
	// exit once workersDone is raised and their port row is dry.
	var workersDone atomic.Bool
	var senderWG, receiverWG sync.WaitGroup
	for mcID := 0; mcID < Mtot; mcID++ {
		// Split before the goroutines start: Split advances the parent
		// stream and is not safe concurrently.
		senderRNG := root.Split(uint64(1000 + mcID))
		receiverRNG := root.Split(uint64(2000 + mcID))
		senderWG.Add(1)
		go func(mc *meshMachine) {
			defer senderWG.Done()
			runMeshSender(mc, links[mc.id], cfg, senderRNG, hooks, &workersDone, fo)
		}(machines[mcID])
		receiverWG.Add(1)
		go func(mc *meshMachine) {
			defer receiverWG.Done()
			runMeshReceiver(mc, links[mc.id], cfg, receiverRNG, fo)
			if links[mc.id].Err() != nil && !fo.machineGone(mc.id) {
				cancelRun()
			}
		}(machines[mcID])
	}

	runErr := train.Monitor(runCtx, &stop, counter, cfg, rec, md, hooks)

	// Orderly teardown: workers → senders (flush + end-of-stream) →
	// receivers (drain until every peer's stream has ended). The
	// workers' exit flushes are published by workerWG.Wait, so a sender
	// observing workersDone drains a complete port row.
	if chaos != nil {
		chaos.Stop()
	}
	fo.shutdown()
	workerWG.Wait()
	workersDone.Store(true)
	senderWG.Wait()
	receiverWG.Wait()
	for _, l := range links {
		l.Close() //nolint:errcheck // idempotent release
	}
	fo.wait()
	if lerr := fo.liveLinkErr(links); lerr != nil {
		return nil, fmt.Errorf("core: distributed transport failed: %w", lerr)
	}
	if ferr := fo.failErr(); ferr != nil {
		return nil, fmt.Errorf("core: failover failed: %w", ferr)
	}
	if runErr != nil && ctx.Err() == nil {
		runErr = nil // monitor cancelled by teardown plumbing, not the caller
	}

	// Collect every token still held anywhere — mesh lanes, receiver
	// overflow, worker residual buffers — and write its vector back
	// into the model. Token conservation is the ownership invariant;
	// a dead machine's holdings are skipped (regenerated on the buddy).
	collected := 0
	collect := func(tok *distToken) {
		md.SetItemRowFrom64(int(tok.tok.Item), tok.tok.Vec)
		collected++
	}
	for _, mc := range machines {
		if fo.machineGone(mc.id) {
			continue
		}
		for d := 0; d <= mc.workers; d++ {
			mc.mesh.Drain(d, collect)
			for _, tok := range mc.pending[d] {
				collect(tok)
			}
		}
	}
	for mcID, perWorker := range residual {
		if fo.machineGone(mcID) {
			continue
		}
		for _, outs := range perWorker {
			for _, toks := range outs {
				for _, tok := range toks {
					collect(tok)
				}
			}
		}
	}
	if collected != n {
		return nil, fmt.Errorf("core: token conservation violated: collected %d tokens for %d items", collected, n)
	}

	rec.Sample(md, counter.Total())
	bytesSent, msgsSent := linkTotals(links)
	hooks.EmitNetwork(train.NetworkEvent{BytesSent: bytesSent, MessagesSent: msgsSent})
	return &train.Result{
		Algorithm:    "nomad",
		Model:        md,
		Trace:        rec.Trace(),
		Updates:      counter.Total(),
		Elapsed:      rec.Elapsed(),
		BytesSent:    bytesSent,
		MessagesSent: msgsSent,
		Final: &train.State{
			Algorithm: "nomad",
			Seed:      cfg.Seed,
			Updates:   counter.Total(),
			Model:     md,
			Counts:    exportCounts(ds.Train, users, local),
			RNG:       train.CaptureStreams(root, workerRNG),
			// Queues deliberately nil: tokens were folded back into the
			// model above; a resume re-scatters them.
		},
	}, runErr
}

// planVisits fills tok's visit plan — Circulate full permutations of
// the W local workers, with the first stop consumed into the return
// value — and returns that first worker. scratch is a caller-owned
// permutation buffer of length ≥ W, reused across tokens so the
// receive path allocates nothing per token (beyond growing the token's
// own visit plan once).
func planVisits(tok *distToken, W, circulate int, r *rng.Source, scratch []int) (first int) {
	if W == 1 && circulate == 1 {
		// Single local worker: the only plan is "visit worker 0 once" —
		// no permutation, no RNG draw.
		tok.plan, tok.next = tok.plan[:0], 0
		return 0
	}
	perm := scratch[:W]
	r.Perm(perm)
	plan := tok.plan[:0]
	for c := 0; c < circulate; c++ {
		for _, w := range perm {
			plan = append(plan, int8(w))
		}
	}
	tok.plan, tok.next = plan, 1
	return perm[0]
}

// stageLocal plans a token's visits through mc's workers and stages it
// for the first stop's lane; publishStaged makes it visible there. The
// producer is always the port endpoint (init runs before any thread
// starts, the receiver owns it afterwards).
//
//nomad:noalloc
func (mc *meshMachine) stageLocal(tok *distToken, circulate int, r *rng.Source, scratch []int) {
	first := planVisits(tok, mc.workers, circulate, r, scratch)
	mc.stage[first] = append(mc.stage[first], tok)
}

// deliverBatch is the receiver's delivery of one inbound batch: every
// token is copied into a recycled distToken and staged, then the batch
// is published lane by lane.
//
//nomad:noalloc
func (mc *meshMachine) deliverBatch(toks []cluster.Token, k, circulate int, r *rng.Source, scratch []int) {
	mc.pool.collect()
	for _, t := range toks {
		mc.stageLocal(mc.pool.fromInbound(t, k), circulate, r, scratch)
	}
	mc.publishStaged()
}

// publishStaged offers every staged token to its lane, one SendBatch
// per lane. What a full lane refuses parks in pending behind anything
// already parked there, so each lane stays FIFO; pendingN rises before
// the tokens leave the stage, so they are always counted somewhere.
//
//nomad:noalloc
func (mc *meshMachine) publishStaged() {
	for d, toks := range mc.stage {
		if len(toks) == 0 {
			continue
		}
		acc := 0
		if len(mc.pending[d]) == 0 {
			acc = mc.mesh.SendBatch(mc.port(), d, toks)
		}
		if rest := toks[acc:]; len(rest) > 0 {
			mc.pendingN.Add(int64(len(rest)))
			mc.pending[d] = append(mc.pending[d], rest...)
		}
		clear(toks)
		mc.stage[d] = toks[:0]
	}
}

// runDistWorkerMesh processes token blocks from its own mesh row: SGD
// on the local ratings of each token's item, then hand-off to the next
// local worker's lane or the port. It returns its unflushed
// out-buffers for the coordinator's final collection.
func runDistWorkerMesh(mc *meshMachine, w int, md *factor.Model, lr *localRatings,
	schedule sched.Schedule, cfg train.Config, counter *train.Counter,
	stop *atomic.Bool, r *rng.Source, fo *failoverRuntime) [][]*distToken {

	gw := mc.id*mc.workers + w // global worker id (counter shard)
	hp := newHotPath(md, schedule, cfg)
	straggler := gw == 0 && cfg.Straggle > 1
	port := mc.port()
	threshold := meshFlushThreshold(md.N, cfg.Machines*mc.workers)

	var in [meshBlock]*distToken
	out := make([][]*distToken, port+1)
	for d := range out {
		out[d] = make([]*distToken, 0, 2*meshBlock)
	}
	flush := func(d int) bool {
		if len(out[d]) == 0 {
			return false
		}
		acc := mc.mesh.SendBatch(w, d, out[d])
		if acc == 0 {
			return false
		}
		rest := copy(out[d], out[d][acc:])
		for i := rest; i < len(out[d]); i++ {
			out[d][i] = nil // release for GC
		}
		out[d] = out[d][:rest]
		return true
	}

	var idle idleBackoff
	var batch int64
	var respSeen uint64
	var extras []*localRatings // fostered shards this worker trains beyond its own
	for !stop.Load() && !fo.machineGone(mc.id) {
		if fo.drainingMachine(mc.id) {
			// Graceful leave: stop training and forward everything this
			// worker holds — inbound lane tokens and unflushed hand-off
			// buffers alike — to the port, visit plans cancelled. The idle
			// flag is published only after the buffers are demonstrably
			// empty, so the sender's quiesce check cannot miss a token
			// between stations.
			fo.setDrainIdle(mc.id, w, false)
			k := mc.mesh.RecvBatch(w, in[:])
			for i := 0; i < k; i++ {
				tok := in[i]
				in[i] = nil
				tok.next = len(tok.plan)
				out[port] = append(out[port], tok)
			}
			for d := 0; d < port; d++ {
				for i, tok := range out[d] {
					tok.next = len(tok.plan)
					out[port] = append(out[port], tok)
					out[d][i] = nil
				}
				out[d] = out[d][:0]
			}
			flush(port)
			if k == 0 && len(out[port]) == 0 {
				fo.setDrainIdle(mc.id, w, true)
				idle.wait()
			}
			continue
		}
		k := mc.mesh.RecvBatch(w, in[:])
		if k == 0 {
			moved := false
			for d := 0; d <= port; d++ {
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
		for i := 0; i < k; i++ {
			tok := in[i]
			in[i] = nil

			// Warm what the next three tokens of the block will read.
			j1, j2, j3, vec2 := -1, -1, -1, []float64(nil)
			if i+1 < k {
				j1 = int(in[i+1].tok.Item)
			}
			if i+2 < k {
				j2, vec2 = int(in[i+2].tok.Item), in[i+2].tok.Vec
			}
			if i+3 < k {
				j3 = int(in[i+3].tok.Item)
			}
			hp.prefetchAhead(lr, j1, j2, j3, vec2)

			j := int(tok.tok.Item)
			usersJ, vals, counts := lr.itemRatings(j)
			var began time.Time
			if straggler {
				began = time.Now()
			}
			// The vector travels with the token; itemSGDVec updates it
			// and mirrors the result into the model (owner write-back so
			// progress monitoring sees current hⱼ).
			hp.itemSGDVec(j, usersJ, vals, counts, tok.tok.Vec)
			if straggler && len(usersJ) > 0 && !stop.Load() {
				time.Sleep(time.Duration(float64(time.Since(began)) * (cfg.Straggle - 1)))
			}
			batch += int64(len(usersJ))
			if fo != nil {
				// The responsibility table may name this worker for shards
				// beyond its own: a latent spare's fostered users, or a
				// dead machine's users remapped here by failover. Train
				// those shards' ratings of item j too.
				if g := fo.respGeneration(); g != respSeen {
					respSeen = g
					extras = fo.extraShards(gw, extras)
				}
				for _, ex := range extras {
					au, av, ac := ex.itemRatings(j)
					if len(au) > 0 {
						hp.itemSGDVec(j, au, av, ac, tok.tok.Vec)
						batch += int64(len(au))
					}
				}
			}
			if batch >= 256 {
				counter.Add(gw, batch)
				batch = 0
				// Worker-side budget check; see runSharedWorkerMesh.
				if counter.Total() >= cfg.MaxUpdates {
					stop.Store(true)
				}
			}
			dst := port
			if tok.next < len(tok.plan) {
				dst = int(tok.plan[tok.next])
				tok.next++
			}
			out[dst] = append(out[dst], tok)
			if len(out[dst]) >= threshold {
				flush(dst)
			}
		}
	}
	counter.Add(gw, batch)

	// Final flush; leftovers go back to the coordinator.
	for d := 0; d <= port; d++ {
		flush(d)
	}
	return out
}

// runMeshSender drains the machine's port row in blocks, batching
// tokens per destination machine (§3.5) and flushing opportunistically
// whenever the row runs dry so tokens never linger under low traffic.
// On exit it ends the machine's outbound stream so peers' receivers
// know the drain is complete.
func runMeshSender(mc *meshMachine, link cluster.Link, cfg train.Config, r *rng.Source,
	hooks *train.Hooks, workersDone *atomic.Bool, fo *failoverRuntime) {

	s := cluster.NewSender(link, cfg.BatchSize, mc.queueLen)
	pick := fo.wrapPick(machinePicker(mc.id, link.Machines(), cfg.LoadBalance, mc.lastKnown, r, hooks))
	cmds := fo.sendCmds(mc.id) // nil (never ready) without failover
	port := mc.port()
	add := func(tok *distToken) {
		// A scale-out rebalance takes priority: while this machine owes
		// the latest joiner tokens, route them there instead of picking.
		d := fo.donationDest(mc.id)
		if d < 0 {
			d = pick()
		}
		if fo != nil {
			// The token is leaving this machine: clear its ownership bit
			// before it becomes observable anywhere else.
			fo.noteSent(mc.id, d, tok.tok.Item)
		}
		// Add copies the vector into the batch arena, so the token
		// itself goes straight back to the receive-side pool.
		s.Add(d, tok.tok)
		mc.pool.put(tok)
	}
	var buf [meshBlock]*distToken
	// drainAll is the scale-in hand-off: stream every token still on
	// this machine to dest (the ring buddy) until it is demonstrably
	// empty. The quiesce check reads the stations in token-flow order —
	// receiver pending, mesh lanes, worker idle flags, then one final
	// port sweep — so a token in flight downstream of one read is
	// always caught by a later one (tokens only move downstream; no new
	// ones arrive, the peers are parked).
	drainAll := func(dest int) {
		fwd := func(tok *distToken) {
			fo.noteSent(mc.id, dest, tok.tok.Item)
			s.Add(dest, tok.tok)
			mc.pool.put(tok)
		}
		for {
			if fo.isStopping() || fo.dead[mc.id].Load() {
				return // killed or torn down mid-drain: hand over to evict/teardown
			}
			k := mc.mesh.RecvBatch(port, buf[:])
			for i := 0; i < k; i++ {
				fwd(buf[i])
				buf[i] = nil
			}
			if k > 0 {
				continue
			}
			if mc.pendingN.Load() == 0 && mc.queueLen() == 0 && fo.drainIdleAll(mc.id) {
				if k := mc.mesh.RecvBatch(port, buf[:]); k > 0 {
					for i := 0; i < k; i++ {
						fwd(buf[i])
						buf[i] = nil
					}
					continue
				}
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	var idle idleBackoff
	for {
		if fo.machineGone(mc.id) {
			// A killed (or fully drained) machine's sender winds down like
			// a crashed process: nothing pending is flushed (a victim's
			// tokens are exactly what failover regenerates; a leaver's are
			// already streamed out) and the outbound stream just ends.
			link.CloseSend() //nolint:errcheck // aborted transport: best-effort
			return
		}
		select {
		case cmd := <-cmds:
			fo.runSenderCmd(mc.id, cmd, s, pick, drainAll)
			continue
		default:
		}
		k := mc.mesh.RecvBatch(port, buf[:])
		if k == 0 {
			// Row dry: push out partial batches, then back off.
			s.FlushAll() //nolint:errcheck // link failure surfaces via link.Err
			if workersDone.Load() {
				// All workers have exited and flushed; one final sweep
				// cannot race a producer, so the row is drained for good.
				for {
					k := mc.mesh.RecvBatch(port, buf[:])
					if k == 0 {
						break
					}
					for i := 0; i < k; i++ {
						add(buf[i])
						buf[i] = nil
					}
				}
				s.Close() //nolint:errcheck
				return
			}
			idle.wait()
			continue
		}
		idle.reset()
		for i := 0; i < k; i++ {
			add(buf[i])
			buf[i] = nil
		}
	}
}

// runMeshReceiver unpacks inbound token batches, records queue-length
// gossip and starts each token's local circulation through the mesh.
// Each token's vector is copied out of the arena-backed batch into a
// recycled distToken and staged for its first-stop lane; the whole
// batch is then published lane by lane and the arena released back to
// the link's pool. It runs until every peer has ended its stream (or
// the link fails).
func runMeshReceiver(mc *meshMachine, link cluster.Link, cfg train.Config, r *rng.Source, fo *failoverRuntime) {
	scratch := make([]int, mc.workers)
	deliver := func(toks []cluster.Token) {
		mc.deliverBatch(toks, cfg.K, cfg.Circulate, r, scratch)
	}
	cmds := fo.recvCmds(mc.id) // nil (never ready) without failover
	recv := link.Recv()
	for {
		select {
		case cmd := <-cmds:
			fo.handleRecvCmd(mc.id, cmd, deliver)
		case inb, ok := <-recv:
			if !ok {
				// A late injection racing teardown must still land.
				fo.drainRecvCmds(mc.id, deliver)
				return
			}
			if fo != nil && !fo.acceptBatch(mc.id, inb.From) {
				// Dead self or evicted source: discard, but keep draining —
				// a stalled receive channel wedges the transport.
				inb.Batch.Release()
				continue
			}
			mc.lastKnown[inb.From].Store(int64(inb.Batch.QueueLen))
			mc.retryPending()
			if fo != nil {
				// Ownership bits are set before any token can reach a
				// worker lane (and hence the sender, which clears them).
				fo.beforeDeliver(mc.id, inb.Batch.Tokens)
			}
			deliver(inb.Batch.Tokens)
			if fo != nil {
				// Strictly after the publish: a satisfied fence implies the
				// batch is in the lanes or counted in pendingN.
				fo.afterDeliver(mc.id, inb.From, inb.Batch.Tokens, link)
			}
			inb.Batch.Release() // the vectors were copied out above
		}
	}
}

package core

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
//
// Under the reference wire path (NOMAD_REFERENCE_WIRE) the pool is
// nil: the legacy Sender retains token vectors until flush, so spent
// tokens must not be reused, and inbound vectors are freshly
// allocated by the legacy decode and travel with the token as before.
type tokenPool struct {
	ring  *queue.Ring[*distToken]
	spent []*distToken // sender-side stash, pushed when full
	free  []*distToken // receiver-side stack, newest on top
}

// newTokenPool returns a pool for a run of n tokens, or nil under the
// reference wire path.
func newTokenPool(n int) *tokenPool {
	if cluster.ReferenceWire() {
		return nil
	}
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
	if tp == nil {
		return
	}
	have := len(tp.free)
	tp.free = tp.free[:have+tp.ring.PopBatch(tp.free[have:cap(tp.free)])]
}

// fromInbound materializes an inbound wire token as a machine-local
// distToken, copying the k-coordinate vector out of the (recycled)
// batch arena into pooled storage. Receiver goroutine only.
//
//nomad:noalloc
func (tp *tokenPool) fromInbound(t cluster.Token, k int) *distToken {
	if tp == nil {
		return &distToken{tok: t} //nomad:alloc-ok reference wire: the decoded vector travels
	}
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
// arena) for reuse. No-op under the reference wire path. Sender
// goroutine only.
//
//nomad:noalloc
func (tp *tokenPool) put(tok *distToken) {
	if tp == nil {
		return
	}
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

// machine is one simulated machine of the hybrid architecture: Workers
// compute goroutines plus the dedicated sender and receiver goroutines
// the paper reserves for communication (§3.4).
type machine struct {
	id      int
	workers int
	queues  []queue.Queue[*distToken]
	out     chan *distToken
	pool    *tokenPool // sender→receiver distToken recycling

	// lastKnown[r] is the most recent queue-length gossip received
	// from machine r (§3.3).
	lastKnown []atomic.Int64
}

// queueLen is the machine's total backlog: worker queues plus tokens
// waiting to be sent. This is the value gossiped to peers.
func (mc *machine) queueLen() int {
	n := len(mc.out)
	for _, q := range mc.queues {
		n += q.Len()
	}
	return n
}

// trainDistributed runs NOMAD across cfg.Machines simulated machines
// connected by the configured network profile. Resume restores the
// model, per-rating schedule counts and RNG streams; tokens (folded
// into the model when the previous run tore down) are re-scattered.
func trainDistributed(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	if cfg.QueueKind.Resolve() == queue.KindSPSC {
		return trainDistributedMesh(ctx, ds, cfg, hooks)
	}
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

	machines := make([]*machine, Mtot)
	for mcID := 0; mcID < Mtot; mcID++ {
		mc := &machine{
			id:        mcID,
			workers:   W,
			queues:    make([]queue.Queue[*distToken], W),
			out:       make(chan *distToken, 4*cfg.BatchSize),
			pool:      newTokenPool(n),
			lastKnown: make([]atomic.Int64, Mtot),
		}
		for w := 0; w < W; w++ {
			mc.queues[w] = queue.New[*distToken](cfg.QueueKind, 2*n/p+4)
		}
		// Latent spares lose every least-loaded comparison until a join
		// activates them (and clears the poison).
		for r := M; r < Mtot; r++ {
			mc.lastKnown[r].Store(poisonedQueueLen)
		}
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
		deliverLocal(mc, &toks[j], cfg.Circulate, root, permScratch)
	}

	counter := train.NewCounterFor(cfg, p)
	rec := train.NewRecorderFor(cfg, ds.Test, md, hooks)
	var stop atomic.Bool

	// A transport failure (TCP peer down) must end the run even though
	// the update budget can no longer be reached: the receiver that
	// observes it cancels the monitor.
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

	// Compute workers.
	var workerWG sync.WaitGroup
	for mcID := 0; mcID < Mtot; mcID++ {
		for w := 0; w < W; w++ {
			workerWG.Add(1)
			go func(mc *machine, w int) {
				defer workerWG.Done()
				runDistWorker(mc, w, md, local[mc.id*W+w], schedule, cfg, counter, &stop,
					workerRNG[mc.id*W+w], fo)
			}(machines[mcID], w)
		}
	}

	// Sender and receiver threads, one of each per machine. Their RNG
	// streams are split off the root before the goroutines start —
	// Split advances the parent stream and is not safe concurrently.
	var senderWG, receiverWG sync.WaitGroup
	for mcID := 0; mcID < Mtot; mcID++ {
		senderRNG := root.Split(uint64(1000 + mcID))
		receiverRNG := root.Split(uint64(2000 + mcID))
		senderWG.Add(1)
		go func(mc *machine) {
			defer senderWG.Done()
			runSender(mc, links[mc.id], cfg, senderRNG, hooks, fo)
		}(machines[mcID])
		receiverWG.Add(1)
		go func(mc *machine) {
			defer receiverWG.Done()
			runReceiver(mc, links[mc.id], cfg, receiverRNG, fo)
			if links[mc.id].Err() != nil && !fo.machineGone(mc.id) {
				cancelRun()
			}
		}(machines[mcID])
	}

	runErr := train.Monitor(runCtx, &stop, counter, cfg, rec, md, hooks)

	// Orderly teardown: workers → senders (flush + end-of-stream) →
	// receivers (drain until every peer's stream has ended). Each stage
	// drains the previous one so no token is lost. The failover runtime
	// is released first so parked senders and mid-protocol agents never
	// block the stages behind them.
	if chaos != nil {
		chaos.Stop()
	}
	fo.shutdown()
	workerWG.Wait()
	for _, mc := range machines {
		close(mc.out)
	}
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
		runErr = nil // monitor was cancelled by teardown plumbing, not the caller
	}

	// Collect every token still queued and write its vector back into
	// the model, completing the final H state. Token conservation is
	// the ownership invariant: each of the n items must be recovered
	// exactly once — a dead machine's queues are skipped (their tokens
	// were regenerated on the buddy during failover).
	collected := 0
	for _, mc := range machines {
		if fo.machineGone(mc.id) {
			continue
		}
		for _, q := range mc.queues {
			for {
				tok, ok := q.TryPop()
				if !ok {
					break
				}
				md.SetItemRowFrom64(int(tok.tok.Item), tok.tok.Vec)
				collected++
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
// own visit plan once). Both transports' delivery paths share it.
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

// deliverLocal plans a token's visits through mc's workers and
// enqueues it at the first stop.
func deliverLocal(mc *machine, tok *distToken, circulate int, r *rng.Source, scratch []int) {
	mc.queues[planVisits(tok, mc.workers, circulate, r, scratch)].Push(tok)
}

// runDistWorker processes tokens from its own queue: SGD on the local
// ratings of the token's item, then hand-off to the next local worker
// or to the sender thread.
func runDistWorker(mc *machine, w int, md *factor.Model, lr *localRatings,
	schedule sched.Schedule, cfg train.Config, counter *train.Counter,
	stop *atomic.Bool, r *rng.Source, fo *failoverRuntime) {

	gw := mc.id*mc.workers + w // global worker id (counter shard)
	hp := newHotPath(md, schedule, cfg)
	straggler := gw == 0 && cfg.Straggle > 1
	var idle idleBackoff
	var batch int64
	var respSeen uint64
	var extras []*localRatings // fostered shards this worker trains beyond its own
	for !stop.Load() && !fo.machineGone(mc.id) {
		if fo.drainingMachine(mc.id) {
			// Graceful leave: stop training and flush this queue forward to
			// the sender, visit plan cancelled — the drain streams every
			// token to the ring buddy. The idle flag is published only
			// after the hand-off, so the sender's quiesce check cannot see
			// "all idle" while a token is still between queue and channel.
			fo.setDrainIdle(mc.id, w, false)
			if tok, ok := mc.queues[w].TryPop(); ok {
				tok.next = len(tok.plan)
				mc.out <- tok
				continue
			}
			fo.setDrainIdle(mc.id, w, true)
			idle.wait()
			continue
		}
		tok, ok := mc.queues[w].TryPop()
		if !ok {
			idle.wait()
			continue
		}
		idle.reset()

		j := int(tok.tok.Item)
		usersJ, vals, counts := lr.itemRatings(j)
		var began time.Time
		if straggler {
			began = time.Now()
		}
		// The vector travels with the token; itemSGDVec updates it and
		// mirrors the result into the model (owner write-back so
		// progress monitoring sees current hⱼ).
		hp.itemSGDVec(j, usersJ, vals, counts, tok.tok.Vec)
		if straggler && len(usersJ) > 0 && !stop.Load() {
			// Straggler stretch, skipped once stop is set (prompt stop).
			time.Sleep(time.Duration(float64(time.Since(began)) * (cfg.Straggle - 1)))
		}
		batch += int64(len(usersJ))
		if fo != nil {
			// The responsibility table may name this worker for shards
			// beyond its own: a latent spare's fostered users, or a dead
			// machine's users remapped here by failover. Train those
			// shards' ratings of item j too.
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
			// Worker-side budget check; see runSharedWorker.
			if counter.Total() >= cfg.MaxUpdates {
				stop.Store(true)
			}
		}

		if tok.next < len(tok.plan) {
			next := tok.plan[tok.next]
			tok.next++
			mc.queues[next].Push(tok)
		} else {
			mc.out <- tok
		}
	}
	counter.Add(gw, batch)
	_ = r
}

// runSender drains the machine's outbound channel, batching tokens per
// destination (§3.5) and flushing opportunistically whenever the
// channel runs dry so tokens never linger under low traffic. Each §3.3
// least-loaded routing decision is reported as a BalanceEvent. On exit
// it flushes everything pending and ends the machine's outbound
// stream, so peers' receivers know the drain is complete.
func runSender(mc *machine, link cluster.Link, cfg train.Config, r *rng.Source, hooks *train.Hooks, fo *failoverRuntime) {
	s := cluster.NewSender(link, cfg.BatchSize, mc.queueLen)
	pick := fo.wrapPick(machinePicker(mc.id, link.Machines(), cfg.LoadBalance, mc.lastKnown, r, hooks))
	cmds := fo.sendCmds(mc.id) // nil (never ready) without failover
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
		s.Add(d, tok.tok) // copies the vector into the batch arena
		mc.pool.put(tok)
	}
	// drainAll is the scale-in hand-off: stream every token still on
	// this machine to dest (the ring buddy) — the workers are flushing
	// their queues into mc.out — until the machine is demonstrably
	// empty. The quiesce check reads the stations in token-flow order —
	// worker queues, worker idle flags, then the out channel — so a
	// token in flight downstream of one read is always caught by a
	// later one (tokens only move downstream; no new ones arrive, the
	// peers are parked).
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
			select {
			case tok, ok := <-mc.out:
				if !ok {
					return
				}
				fwd(tok)
			default:
				qn := 0
				for _, q := range mc.queues {
					qn += q.Len()
				}
				if qn == 0 && fo.drainIdleAll(mc.id) && len(mc.out) == 0 {
					return
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	// die winds down a killed machine's sender like a crashed process:
	// nothing pending is flushed (those tokens are exactly what failover
	// regenerates), the outbound stream ends so the simulated courier can
	// retire, and the worker channel keeps draining so workers blocked on
	// a final hand-off are released.
	die := func() {
		link.CloseSend()   //nolint:errcheck // aborted transport: best-effort
		for range mc.out { //nolint:revive // drain until closed
		}
	}
	for {
		if fo.machineGone(mc.id) {
			die()
			return
		}
		select {
		case cmd := <-cmds:
			fo.runSenderCmd(mc.id, cmd, s, pick, drainAll)
		case tok, ok := <-mc.out:
			if !ok {
				if fo.machineGone(mc.id) {
					link.CloseSend() //nolint:errcheck
				} else {
					s.Close() //nolint:errcheck // link failure surfaces via link.Err
				}
				return
			}
			add(tok)
		default:
			// Channel dry: push out partial batches, then block.
			s.FlushAll() //nolint:errcheck
			select {
			case cmd := <-cmds:
				fo.runSenderCmd(mc.id, cmd, s, pick, drainAll)
			case tok, ok := <-mc.out:
				if !ok {
					if fo.machineGone(mc.id) {
						link.CloseSend() //nolint:errcheck
					} else {
						s.Close() //nolint:errcheck
					}
					return
				}
				add(tok)
			}
		}
	}
}

// runReceiver unpacks inbound token batches, records queue-length
// gossip and starts each token's local circulation. Inbound batches
// are arena-backed: each token's vector is copied into a recycled
// distToken and the arena is released back to the link's pool. It
// runs until every peer has ended its stream (or the link fails).
func runReceiver(mc *machine, link cluster.Link, cfg train.Config, r *rng.Source, fo *failoverRuntime) {
	scratch := make([]int, mc.workers)
	deliver := func(toks []cluster.Token) {
		mc.pool.collect()
		for _, t := range toks {
			deliverLocal(mc, mc.pool.fromInbound(t, cfg.K), cfg.Circulate, r, scratch)
		}
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
				if mc.pool != nil {
					inb.Batch.Release()
				}
				continue
			}
			mc.lastKnown[inb.From].Store(int64(inb.Batch.QueueLen))
			if fo != nil {
				// Ownership bits are set before any token can reach a
				// worker queue (and hence the sender, which clears them).
				fo.beforeDeliver(mc.id, inb.Batch.Tokens)
			}
			deliver(inb.Batch.Tokens)
			if fo != nil {
				fo.afterDeliver(mc.id, inb.From, inb.Batch.Tokens, link)
			}
			if mc.pool != nil {
				// The vectors were copied out above; recycle the arena. The
				// reference wire path retains them, so there the batch must
				// keep its backing storage (Release would corrupt it).
				inb.Batch.Release()
			}
		}
	}
}

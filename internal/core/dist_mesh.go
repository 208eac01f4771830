package core

// The distributed runner: each machine's W workers plus its sender and
// receiver threads share a (W+1)-endpoint mesh whose last endpoint —
// the "network port" — is produced into by the receiver (inbound
// tokens starting their §3.4 local circulation) and consumed from by
// the sender (tokens whose visit plan is exhausted). Every lane keeps
// the single-producer single-consumer discipline, and the workers run
// the shared-memory loop itself (runWorker), so the network batching of
// §3.5 starts from already-batched port reads. Inside a machine a token
// is only an item ID: hⱼ's home is its model row, which the receiver
// writes on delivery and the sender reads into a pooled arena batch
// (cluster.Sender, cluster.BatchBuf) on departure, so the vector exists
// apart from the row only on the wire and the token path allocates
// nothing.

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
	"nomad/internal/train"
)

// visitPlans is one machine's §3.4 local circulation: for every item,
// the permutation of the machine's W workers, Circulate times over,
// that its token visits before leaving through the port. The receiver
// draws a token's plan when it stages the token; each worker that then
// holds the token reads and advances it. Ownership and the lanes'
// release/acquire hand-off make that race-free. Nil when W·Circulate =
// 1: the one stop is the first, and then the port.
type visitPlans struct {
	stops int     // W·Circulate
	perm  []int   // the port producer's permutation scratch, length W
	plan  []int8  // item j's stops are plan[j·stops : (j+1)·stops]
	next  []int32 // next[j] indexes item j's next stop; stops means none left
}

func newVisitPlans(n, workers, circulate int) *visitPlans {
	stops := workers * circulate
	if stops <= 1 {
		return nil
	}
	return &visitPlans{stops: stops, perm: make([]int, workers), plan: make([]int8, n*stops), next: make([]int32, n)}
}

// start draws item j's plan and returns its first stop, consumed. The
// port producer calls it: the initial placement before any thread
// starts, the receiver afterwards.
func (vp *visitPlans) start(j int32, r *rng.Source) int {
	if vp == nil {
		return 0
	}
	r.Perm(vp.perm)
	plan := vp.plan[int(j)*vp.stops:][:vp.stops]
	for x := range plan {
		plan[x] = int8(vp.perm[x%len(vp.perm)])
	}
	vp.next[j] = 1
	return vp.perm[0]
}

// nextStop consumes item j's next plan stop, if one is left.
func (vp *visitPlans) nextStop(j int) (int, bool) {
	if vp == nil || int(vp.next[j]) >= vp.stops {
		return 0, false
	}
	x := int(vp.next[j])
	vp.next[j]++
	return int(vp.plan[j*vp.stops+x]), true
}

// meshMachine is one machine of the hybrid architecture: W compute
// workers plus the dedicated sender and receiver goroutines the paper
// reserves for communication (§3.4), sharing one mesh.
type meshMachine struct {
	id      int
	workers int
	md      *factor.Model
	mesh    *queue.Mesh[itemToken]
	plans   *visitPlans

	// pending holds, per first-stop lane, the receiver's delivered
	// tokens until retryPending moves them in with one SendBatch per
	// lane; what a full lane refuses waits for the next retry, in order,
	// and is folded into the final collection at teardown. pendingN
	// counts them (raised before they are parked, lowered once they are
	// visible in a lane), so a drain's quiesce check can account for
	// tokens parked here.
	pending  [][]itemToken
	pendingN atomic.Int64

	// lastKnown[r] is the most recent queue-length gossip received
	// from machine r (§3.3).
	lastKnown []atomic.Int64
}

// newMeshMachine returns the machine of rank id in a cluster with
// machines ranks: a mesh of workers compute endpoints plus the port,
// on lanes of ringCap slots, over the model md, whose tokens visit
// their workers circulate times over.
func newMeshMachine(id, workers, ringCap, machines int, md *factor.Model, circulate int) *meshMachine {
	return &meshMachine{
		id:        id,
		workers:   workers,
		md:        md,
		mesh:      queue.NewMesh[itemToken](workers+1, ringCap),
		plans:     newVisitPlans(md.N, workers, circulate),
		pending:   make([][]itemToken, workers+1),
		lastKnown: make([]atomic.Int64, machines),
	}
}

// port is the mesh endpoint owned by the communication threads.
func (mc *meshMachine) port() int { return mc.workers }

// retryPending offers every pending token to its lane, oldest first.
//
//nomad:noalloc
func (mc *meshMachine) retryPending() {
	for d, toks := range mc.pending {
		if len(toks) == 0 {
			continue
		}
		if acc := mc.mesh.SendBatch(mc.port(), d, toks); acc > 0 {
			mc.pending[d] = toks[:copy(toks, toks[acc:])]
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
// tokens (whose vectors never left the model rows at teardown) are
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
	local := buildShards(ds.Train, users, 0, p, resumeCounts(cfg.Resume, ds))
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
		failOn := func(request func(rank int) error) func(int) {
			return func(rank int) {
				if err := request(rank); err != nil {
					fo.fail(err)
				}
			}
		}
		chaos.OnKill(fo.killMachine)
		chaos.OnJoin(failOn(fo.requestJoin))
		chaos.OnDrain(failOn(fo.requestDrain))
		links = chaos.WrapAll(links)
	}
	root := rng.New(cfg.Seed)

	var md *factor.Model
	workerRNG := make([]*rng.Source, p)
	if st := cfg.Resume; st != nil {
		md = st.Model
		st.RestoreStreams(root, workerRNG)
	} else {
		md = factor.NewInitP(m, n, cfg.K, cfg.Seed, cfg.Precision)
		for q := 0; q < p; q++ {
			workerRNG[q] = root.Split(uint64(q))
		}
	}

	machines := make([]*meshMachine, Mtot)
	for mcID := 0; mcID < Mtot; mcID++ {
		mc := newMeshMachine(mcID, W, meshRingCap(n, M*W), Mtot, md, cfg.Circulate)
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
	for j := 0; j < n; j++ {
		mc := machines[root.Intn(M)]
		if fo != nil {
			fo.noteOwned(mc.id, int32(j))
		}
		mc.pendingN.Add(1)
		mc.stageLocal(int32(j), root)
		mc.retryPending()
	}

	var stop atomic.Bool

	// A transport failure (TCP peer down) must end the run even though
	// the update budget can no longer be reached; so must a peer that
	// sends an item that does not exist.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var peerErr error
	var peerOnce sync.Once
	reject := func(err error) {
		peerOnce.Do(func() { peerErr = err })
		stop.Store(true)
		cancelRun()
	}

	// gossip(v) sets every machine's view of a rank's queue length to v:
	// poisoned, every §3.3 least-loaded picker shuns a dead or drained
	// machine from its next decision on; cleared, pickers can route to a
	// spare that just activated.
	gossip := func(v int64) func(rank int) {
		return func(rank int) {
			for _, mc := range machines {
				mc.lastKnown[rank].Store(v)
			}
		}
	}
	fo.bind(links, md, local, users, gossip(poisonedQueueLen), gossip(0), &stop, cancelRun)
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

	// Compute workers: global worker gw is worker gw mod W of machine
	// gw / W.
	workers := make([]worker, p)
	var workerWG sync.WaitGroup
	for gw := range workers {
		mc := machines[gw/W]
		workers[gw] = worker{mesh: mc.mesh, q: gw % W, gw: gw, port: mc.port(), plans: mc.plans,
			mc: mc.id, fo: fo, lr: local[gw], threshold: meshFlushThreshold(n, M*W), r: workerRNG[gw]}
		workerWG.Add(1)
		go func(w *worker) {
			defer workerWG.Done()
			runWorker(w, md, schedule, cfg, counter, &stop)
		}(&workers[gw])
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
			runMeshReceiver(mc, links[mc.id], receiverRNG, fo, reject)
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
	if peerErr != nil {
		return nil, peerErr
	}
	if lerr := fo.liveLinkErr(links); lerr != nil {
		return nil, fmt.Errorf("core: distributed transport failed: %w", lerr)
	}
	if ferr := fo.failErr(); ferr != nil {
		return nil, fmt.Errorf("core: failover failed: %w", ferr)
	}
	if runErr != nil && ctx.Err() == nil {
		runErr = nil // monitor cancelled by teardown plumbing, not the caller
	}

	// Every token still held anywhere — worker residuals, mesh lanes,
	// receiver overflow — must name each item exactly once; each hⱼ is
	// already in its model row. A dead machine's holdings are skipped
	// (regenerated on the buddy).
	var held [][]int32
	for _, mc := range machines {
		if fo.machineGone(mc.id) {
			continue
		}
		queues := make([][]int32, W+1)
		collectParked(queues, mc.mesh, workers[mc.id*W:(mc.id+1)*W])
		for d, toks := range mc.pending {
			for _, tok := range toks {
				queues[d] = append(queues[d], tok.item)
			}
		}
		held = append(held, queues...)
	}
	if err := forEachParked(held, n, nil); err != nil {
		return nil, fmt.Errorf("core: token conservation violated: %w", err)
	}

	rmse := rec.Sample(md, counter.Total())
	bytesSent, msgsSent := linkTotals(links)
	hooks.EmitNetwork(train.NetworkEvent{BytesSent: bytesSent, MessagesSent: msgsSent})
	return &train.Result{
		Algorithm:    "nomad",
		Model:        md,
		TestRMSE:     rmse,
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
			Counts:    exportCounts(ds.Train, users, local, 0),
			RNG:       train.CaptureStreams(root, workerRNG),
			// Queues deliberately nil: the model rows hold every hⱼ; a
			// resume re-scatters the tokens.
		},
	}, runErr
}

// stageLocal plans a token's visits through mc's workers and parks it
// behind its first stop's lane, already counted in pendingN;
// retryPending moves it in. The producer is always the port endpoint
// (init runs before any thread starts, the receiver owns it
// afterwards).
//
//nomad:noalloc
func (mc *meshMachine) stageLocal(item int32, r *rng.Source) {
	first := mc.plans.start(item, r)
	mc.pending[first] = append(mc.pending[first], itemToken{item: item})
}

// badItem returns the index of the first token naming an item outside
// [0, n), or -1. An item ID from a peer passes here before it indexes
// an ownership bitmap, a rating list or a model row.
func badItem(toks []cluster.Token, n int) int {
	for x, t := range toks {
		if uint32(t.Item) >= uint32(n) {
			return x
		}
	}
	return -1
}

// wireItemErr is the run-ending error for a peer that sent item.
func wireItemErr(from int, item int32, n int) error {
	return fmt.Errorf("core: machine %d sent item token %d, outside [0,%d)", from, item, n)
}

// deliverBatch is the receiver's delivery of one inbound batch: each
// token's ownership bit is set, its vector written into its model row
// — hⱼ's only home while the token is on this machine — and the token
// staged, all before retryPending lets any of them into a lane. A token
// naming an item outside [0, n) fails the batch before anything is
// touched: deliverBatch returns its index, or -1.
//
//nomad:noalloc
func (mc *meshMachine) deliverBatch(toks []cluster.Token, fo *failoverRuntime, r *rng.Source) int {
	if bad := badItem(toks, mc.md.N); bad >= 0 {
		return bad
	}
	mc.pendingN.Add(int64(len(toks)))
	for _, t := range toks {
		if fo != nil {
			fo.noteOwned(mc.id, t.Item)
		}
		mc.md.SetItemRowFrom64(int(t.Item), t.Vec)
		mc.stageLocal(t.Item, r)
	}
	mc.retryPending()
	return -1
}

// wireToken is item j's token as the wire carries it: hⱼ read from its
// row of md — in place for float64, widened into scratch (length K) for
// float32. The link copies it before the row is next written: Sender.Add
// into the batch arena, Link.Send by its boundary rule.
func wireToken(md *factor.Model, j int32, scratch []float64) cluster.Token {
	if md.Precision() == factor.Float32 {
		md.CopyItemRowTo64(int(j), scratch)
		return cluster.Token{Item: j, Vec: scratch}
	}
	return cluster.Token{Item: j, Vec: md.ItemRow(int(j))}
}

// runMeshSender drains the machine's port row in blocks, batching
// tokens per destination machine (§3.5) and flushing opportunistically
// whenever the row runs dry so tokens never linger under low traffic.
// On exit it ends the machine's outbound stream so peers' receivers
// know the drain is complete.
func runMeshSender(mc *meshMachine, link cluster.Link, cfg train.Config, r *rng.Source,
	hooks *train.Hooks, workersDone *atomic.Bool, fo *failoverRuntime) {

	// The gossiped backlog (§3.3) is the mesh's: single atomic loads,
	// never a lock.
	s := cluster.NewSender(link, cfg.BatchSize, mc.mesh.TotalLen)
	pick := fo.wrapPick(machinePicker(mc.id, link.Machines(), cfg.LoadBalance, mc.lastKnown, r, hooks))
	cmds := fo.sendCmds(mc.id) // nil (never ready) without failover
	port := mc.port()
	scratch := make([]float64, cfg.K)
	send := func(d int, tok itemToken) {
		if fo != nil {
			// The token is leaving this machine: clear its ownership bit
			// before it becomes observable anywhere else.
			fo.noteSent(mc.id, d, tok.item)
		}
		s.Add(d, wireToken(mc.md, tok.item, scratch))
	}
	add := func(tok itemToken) {
		// A scale-out rebalance takes priority: while this machine owes
		// the latest joiner tokens, route them there instead of picking.
		d := fo.donationDest(mc.id)
		if d < 0 {
			d = pick()
		}
		send(d, tok)
	}
	var buf [meshBlock]itemToken
	// drainAll is the scale-in hand-off: stream every token still on
	// this machine to dest (the ring buddy) until it is demonstrably
	// empty. The quiesce check reads the stations in token-flow order —
	// receiver pending, mesh lanes, worker idle flags, then one final
	// port sweep — so a token in flight downstream of one read is
	// always caught by a later one (tokens only move downstream; no new
	// ones arrive, the peers are parked).
	drainAll := func(dest int) {
		for {
			if fo.isStopping() || fo.dead[mc.id].Load() {
				return // killed or torn down mid-drain: hand over to evict/teardown
			}
			k := mc.mesh.RecvBatch(port, buf[:])
			for _, tok := range buf[:k] {
				send(dest, tok)
			}
			if k > 0 {
				continue
			}
			if mc.pendingN.Load() == 0 && mc.mesh.TotalLen() == 0 && fo.drainIdleAll(mc.id) {
				if k := mc.mesh.RecvBatch(port, buf[:]); k > 0 {
					for _, tok := range buf[:k] {
						send(dest, tok)
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
		// Read before the sweep: once every worker has exited and
		// flushed, nothing produces into the port row, so a row this
		// sweep finds dry is drained for good.
		done := workersDone.Load()
		k := mc.mesh.RecvBatch(port, buf[:])
		for _, tok := range buf[:k] {
			add(tok)
		}
		if k > 0 {
			idle.reset()
			continue
		}
		if done {
			s.Close() //nolint:errcheck
			return
		}
		// Row dry: push out partial batches, then back off.
		s.FlushAll() //nolint:errcheck // link failure surfaces via link.Err
		idle.wait()
	}
}

// runMeshReceiver unpacks inbound token batches, records queue-length
// gossip and starts each token's local circulation through the mesh
// (deliverBatch), then releases the arena back to the link's pool. A
// batch naming an item that does not exist is rejected — reject names
// the peer and ends the run — and everything after it is discarded. It
// runs until every peer has ended its stream (or the link fails).
func runMeshReceiver(mc *meshMachine, link cluster.Link, r *rng.Source, fo *failoverRuntime, reject func(error)) {
	deliver := func(toks []cluster.Token) { mc.deliverBatch(toks, fo, r) }
	cmds := fo.recvCmds(mc.id) // nil (never ready) without failover
	recv := link.Recv()
	rejected := false
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
			if rejected || fo != nil && !fo.acceptBatch(mc.id, inb.From) {
				// Discard, but keep draining — a stalled receive channel
				// wedges the transport.
				inb.Batch.Release()
				continue
			}
			mc.lastKnown[inb.From].Store(int64(inb.Batch.QueueLen))
			if bad := mc.deliverBatch(inb.Batch.Tokens, fo, r); bad >= 0 {
				rejected = true
				reject(wireItemErr(inb.From, inb.Batch.Tokens[bad].Item, mc.md.N))
				inb.Batch.Release()
				continue
			}
			if fo != nil {
				// Strictly after the delivery: a satisfied fence implies the
				// batch is in the lanes or counted in pendingN.
				fo.afterDeliver(mc.id, inb.From, inb.Batch.Tokens, link)
			}
			inb.Batch.Release() // the vectors were copied into the model above
		}
	}
}

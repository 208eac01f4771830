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
	"math"
	"sync"
	"sync/atomic"

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
	// retry is the receiver's one-slot wake for pending: a worker that
	// parks while tokens are pending signals it, since the lanes it
	// emptied may now take them.
	retry chan struct{}

	// lastKnown[r] is the queue length machine r reported with its
	// latest batch to this machine (§3.3); only the receiver writes it.
	lastKnown []atomic.Int64
	// dropFrom[r] is whether r was evicted; only the receiver writes it.
	dropFrom []bool

	log *machineLog // the replay check's; nil when it is off

	// The threads runMachine starts, joined by joinMachines in the
	// order of wg: the workers, the sender, the receiver.
	ws          []worker
	wg          [3]sync.WaitGroup
	workersDone atomic.Bool
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
		retry:     make(chan struct{}, 1),
		lastKnown: make([]atomic.Int64, machines),
		dropFrom:  make([]bool, machines),
	}
}

// port is the mesh endpoint owned by the communication threads.
func (mc *meshMachine) port() int { return mc.workers }

// wake wakes every thread of mc that parks on its mesh, after a change
// to what they wait on: a stop, the machine's death or its drain.
func (mc *meshMachine) wake() {
	for d := 0; d <= mc.port(); d++ {
		mc.mesh.Wake(d)
	}
}

// parking is a worker's last act before it blocks: the receiver
// retries its overflow, and a draining machine's leaver re-checks its
// quiesce, which reads the parked worker as idle.
func (mc *meshMachine) parking(draining bool) {
	if mc.pendingN.Load() > 0 {
		select {
		case mc.retry <- struct{}{}:
		default:
		}
	}
	if draining {
		mc.mesh.Wake(mc.port())
	}
}

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
// uniform over peers, or the §3.3 least-loaded peer by last gossiped
// queue length with random tie-break. member is the failover view's
// membership predicate; nil makes every peer a member. The least-loaded
// picker skips non-members; the uniform picker draws once per token and
// redraws only a non-member. At least one peer must be a member.
func machinePicker(id, M int, loadBalance bool, lastKnown []atomic.Int64, r *rng.Source, member func(int) bool) func() int {
	if loadBalance {
		return func() int {
			best, bestLen := -1, int64(math.MaxInt64)
			ties := 0
			for dst := 0; dst < M; dst++ {
				if dst == id || member != nil && !member(dst) {
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
			return best
		}
	}
	return func() int {
		for {
			dst := r.Intn(M - 1)
			if dst >= id {
				dst++
			}
			if member == nil || member(dst) {
				return dst
			}
		}
	}
}

// place starts every token owner assigns to this machine with a
// fresh local visit plan drawn from r (Algorithm 1 lines 6–10), before
// any of its threads runs.
func (mc *meshMachine) place(owner []int32, r *rng.Source, fo *failoverRuntime) {
	for j, o := range owner {
		if int(o) != mc.id {
			continue
		}
		if fo != nil {
			fo.noteOwned(mc.id, int32(j))
		}
		if mc.log != nil {
			mc.log.arrived(-1, int32(j))
		}
		mc.pendingN.Add(1)
		mc.stageLocal(int32(j), r)
		mc.retryPending()
	}
}

// machineRun is what the machines of one run share: its config and its
// controls. A launcher fills one in and hands it, with each machine's
// own model, shards, mesh and link, to runMachine.
type machineRun struct {
	cfg     train.Config
	counter *train.Counter
	stop    *atomic.Bool
	fo      *failoverRuntime // in-process failover; nil without it
	reject  func(error)      // a peer sent a token that cannot exist
	linkErr func()           // the machine's link failed
	// markers, in a multi-process run, is each machine's peer count:
	// senders end circulation in-band and leave the link open for the
	// gather, receivers stop at that many end-of-circulation markers.
	markers int
}

// runMachine starts machine mc — its W workers over the shards local,
// whose global worker ids begin at gw0, its sender and its receiver on
// link — and returns; the launcher raises stop and then calls
// joinMachines.
func (mr *machineRun) runMachine(mc *meshMachine, link cluster.Link, local []*localRatings, gw0 int, sendRNG, recvRNG *rng.Source) {
	threshold := meshFlushThreshold(mc.md.N, mr.cfg.Machines*mc.workers)
	mc.ws = make([]worker, mc.workers)
	for q := range mc.ws {
		mc.ws[q] = worker{mesh: mc.mesh, q: q, gw: gw0 + q, port: mc.port(), plans: mc.plans,
			mc: mc.id, home: mc, fo: mr.fo, lr: local[q], threshold: threshold, log: mc.log}
		mc.wg[0].Add(1)
		go func(w *worker) {
			defer mc.wg[0].Done()
			runWorker(w, mc.md, mr.cfg, mr.counter, mr.stop)
		}(&mc.ws[q])
	}
	mc.wg[1].Add(1)
	mc.wg[2].Add(1)
	go func() {
		defer mc.wg[1].Done()
		runMeshSender(mc, link, mr.cfg, sendRNG, mr.markers > 0, mr.fo)
	}()
	go func() {
		defer mc.wg[2].Done()
		runMeshReceiver(mc, link, recvRNG, mr.markers, mr.fo, mr.reject)
		if link.Err() != nil && !mr.fo.machineGone(mc.id) {
			mr.linkErr()
		}
	}()
}

// joinMachines, called once stop is raised, wakes the machines'
// parked threads and waits for them in teardown order: workers, then
// senders, then receivers. A machine's workers have all exited and
// flushed before its sender is told so, so a sender that then finds
// its port row dry has drained it for good.
func joinMachines(machines []*meshMachine) {
	for _, mc := range machines {
		mc.wake()
	}
	for phase := range 3 {
		for _, mc := range machines {
			mc.wg[phase].Wait()
			if phase == 0 {
				mc.workersDone.Store(true)
				mc.mesh.Wake(mc.port())
			}
		}
	}
}

// held lists, per mesh endpoint, every token a stopped machine still
// holds: worker residuals, mesh lanes and receiver overflow. Each hⱼ is
// in its model row.
func (mc *meshMachine) held() [][]int32 {
	queues := make([][]int32, mc.workers+1)
	collectParked(queues, mc.mesh, mc.ws)
	for d, toks := range mc.pending {
		for _, tok := range toks {
			queues[d] = append(queues[d], tok.item)
		}
	}
	return queues
}

// trainDistributed runs NOMAD across cfg.Machines machines in this
// process, connected by the link over the configured connections
// (in-memory or TCP), over one shared model. Resume restores the model, per-rating
// schedule counts and RNG streams; tokens (whose vectors never left the
// model rows at teardown) are re-scattered.
func trainDistributed(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks, vl *visitLog) (*train.Result, error) {
	// M counts the initial members; Mtot adds the provisioned elastic
	// spares, which run their communication threads from the start but
	// stay latent (no tokens, not members) until a join round.
	M, W := cfg.Machines, cfg.Workers
	Mtot := cfg.TotalMachines()
	p := Mtot * W
	m, n := ds.Rows(), ds.Cols()
	users := partitionUsers(ds, cfg, p) // global worker id = machine*W + worker
	local := buildShards(ds.Train, users, 0, p, resumeCounts(cfg.Resume, ds))
	root := rng.New(cfg.Seed)
	var md *factor.Model
	if st := cfg.Resume; st != nil {
		md = st.Model
		st.RestoreStreams(root, nil)
	} else {
		md = factor.NewInitP(m, n, cfg.K, cfg.Seed, cfg.Precision)
	}
	sendRNG, recvRNG := machineStreams(root, Mtot)
	machines := make([]*meshMachine, Mtot)
	for mcID := range machines {
		mc := newMeshMachine(mcID, W, meshRingCap(n, M*W), Mtot, md, cfg.Circulate)
		if vl != nil {
			mc.log = newMachineLog(n, W)
			vl.machines = append(vl.machines, mc.log)
		}
		machines[mcID] = mc
	}
	fo := newFailoverRuntime(cfg, hooks, n, machines)
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

	// Every item token starts at its initial machine (the spares own
	// none) with a fresh local visit plan.
	owner := initialOwner(cfg.Seed, n, M)
	for _, mc := range machines {
		mc.place(owner, recvRNG[mc.id], fo)
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

	fo.bind(links, md, local, users, &stop, cancelRun)
	fo.startAgents()
	if cfg.Elastic != nil && fo != nil {
		cfg.Elastic.Bind(fo.requestJoin, fo.requestDrain)
	}
	if chaos != nil {
		chaos.Arm()
	}

	// The recorder publishes the first TraceEvent, so it starts only
	// now that the membership controls are bound: a subscriber reacting
	// to that event may already resize the run.
	counter := train.NewCounterFor(cfg, p)
	rec := train.NewRecorderFor(cfg, ds, md, hooks)
	mr := &machineRun{cfg: cfg, counter: counter, stop: &stop, fo: fo, reject: reject, linkErr: cancelRun}
	for mcID, mc := range machines {
		mr.runMachine(mc, links[mcID], local[mcID*W:(mcID+1)*W], mcID*W, sendRNG[mcID], recvRNG[mcID])
	}

	runErr := train.Monitor(runCtx, &stop, counter, cfg, rec, md, hooks)

	// Orderly teardown: workers → senders (flush + end-of-stream) →
	// receivers (drain until every peer's stream has ended).
	if chaos != nil {
		chaos.Stop()
	}
	fo.shutdown()
	joinMachines(machines)
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

	// Every token still held anywhere must name each item exactly once.
	// A dead machine's holdings are skipped (regenerated on the buddy).
	var held [][]int32
	for _, mc := range machines {
		if !fo.machineGone(mc.id) {
			held = append(held, mc.held()...)
		}
	}
	if err := forEachParked(held, n, nil); err != nil {
		return nil, fmt.Errorf("core: token conservation violated: %w", err)
	}

	res := finalResult(cfg, md, rec, counter.Total(), exportCounts(ds.Train, users, local, 0), root, nil, nil)
	for _, l := range links {
		res.BytesSent += l.Stats().BytesSent
		res.MessagesSent += l.Stats().MessagesSent
	}
	hooks.Emit(train.NetworkEvent{BytesSent: res.BytesSent, MessagesSent: res.MessagesSent})
	return res, runErr
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
// staged, all before retryPending lets any of them into a lane. The
// batch's rows are all prefetched before the first is written, so
// their misses overlap; each is the row of a token the receiver is
// about to hold. A token
// naming an item outside [0, n) fails the batch before anything is
// touched: deliverBatch returns its index, or -1. from is the sending
// machine, logged with each arrival when the replay check is on.
//
//nomad:noalloc
func (mc *meshMachine) deliverBatch(from int, toks []cluster.Token, fo *failoverRuntime, r *rng.Source) int {
	if bad := badItem(toks, mc.md.N); bad >= 0 {
		return bad
	}
	if mc.log != nil {
		for _, t := range toks {
			mc.log.arrived(from, t.Item)
		}
	}
	for _, t := range toks {
		mc.md.PrefetchItemRow(int(t.Item))
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

// A marker is a token-less batch whose gossip slot lies in
// [endOfCirculation, markerCeiling), far below anything a queue length
// can read as (the lock-free gossip can dip a little below zero while a
// lane hand-off is half done). Its offset from endOfCirculation is an
// epoch: 0 ends a multi-process run's circulation, and e > 0 fences the
// failover round of membership epoch e. A token cannot overtake a
// marker on its connection, so a receiver that holds a peer's marker
// holds everything that peer sent it before.
const (
	endOfCirculation = math.MinInt32
	markerCeiling    = endOfCirculation / 2
)

// sendMarkers puts an epoch-ep marker behind the last token from link's
// machine to every peer to admits (nil admits all).
func sendMarkers(link cluster.Link, ep uint64, to func(peer int) bool) {
	for d := 0; d < link.Machines(); d++ {
		if d != link.Rank() && (to == nil || to(d)) {
			link.Send(d, cluster.TokenBatch{QueueLen: endOfCirculation + int(ep)}) //nolint:errcheck // a failure surfaces via link.Err
		}
	}
}

// runMeshSender drains the machine's port row in blocks, batching
// tokens per destination machine (§3.5) and flushing opportunistically
// whenever the row runs dry so tokens never linger under low traffic.
// On exit it ends the machine's outbound stream so peers' receivers
// know the drain is complete — or, with markers, sends every peer an
// end-of-circulation marker behind its last token and leaves the link
// open.
func runMeshSender(mc *meshMachine, link cluster.Link, cfg train.Config, r *rng.Source, markers bool, fo *failoverRuntime) {

	// The gossiped backlog (§3.3) is the mesh's: single atomic loads,
	// never a lock.
	s := cluster.NewSender(link, cfg.BatchSize, mc.mesh.TotalLen)
	member := fo.memberFunc()
	pick := machinePicker(mc.id, link.Machines(), cfg.LoadBalance, mc.lastKnown, r, member)
	cmds := fo.sendCmds(mc.id) // nil (never ready) without failover
	port := mc.port()
	scratch := make([]float64, cfg.K)
	send := func(d int, tok itemToken) {
		if fo != nil {
			// The token is leaving this machine: clear its ownership bit
			// before it becomes observable anywhere else.
			fo.noteSent(mc.id, tok.item)
		}
		if mc.log != nil {
			mc.log.departed(d, tok.item)
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
	// receiver pending, mesh lanes, the workers' waiter flags, then one
	// final port sweep — so a token in flight downstream of one read is
	// always caught by a later one (tokens only move downstream; no new
	// ones arrive, the peers are parked). Until it passes, the sender
	// parks on the port: a token for it, a worker parking idle and a
	// stop each wake it.
	drainAll := func(dest int) {
		// Killed or torn down mid-drain: hand over to evict/teardown.
		for !fo.isStopping() && !fo.dead[mc.id].Load() {
			k := mc.mesh.RecvBatch(port, buf[:])
			for _, tok := range buf[:k] {
				send(dest, tok)
			}
			if k > 0 {
				continue
			}
			idle := mc.pendingN.Load() == 0 && mc.mesh.TotalLen() == 0
			for q := 0; idle && q < mc.workers; q++ {
				idle = mc.mesh.Idle(q) // parked, holding nothing
			}
			if idle {
				if k := mc.mesh.RecvBatch(port, buf[:]); k > 0 {
					for _, tok := range buf[:k] {
						send(dest, tok)
					}
					continue
				}
				return
			}
			mc.mesh.Park(port, false, nil)
		}
	}
	// A queue length travels only with a token batch, so a machine that
	// has emptied would go unheard and least-loaded peers would keep
	// routing by the stale length it last sent them: with load
	// balancing, its sender says it is empty once, in a token-less batch
	// to every member peer.
	announced := false
	for {
		if fo.machineGone(mc.id) {
			// A killed or fully drained machine's sender winds down without
			// flushing (failover regenerates a victim's tokens; a leaver's
			// are streamed out). Only a leaver ends its stream in order: a
			// victim's ends with its link's abort, as a crash's does.
			if !fo.dead[mc.id].Load() {
				link.CloseSend() //nolint:errcheck // best effort
			}
			return
		}
		select {
		case cmd := <-cmds:
			fo.runSenderCmd(mc.id, cmd, s, link, pick, drainAll)
			continue
		default:
		}
		// Read before the sweep: once every worker has exited and
		// flushed, nothing produces into the port row, so a row this
		// sweep finds dry is drained for good.
		done := mc.workersDone.Load()
		k := mc.mesh.RecvBatch(port, buf[:])
		// The block's rows, which the sender now holds, are all
		// prefetched before the first is copied out, so their misses
		// overlap.
		for _, tok := range buf[:k] {
			mc.md.PrefetchItemRow(int(tok.item))
		}
		for _, tok := range buf[:k] {
			add(tok)
		}
		if k > 0 {
			announced = false
			continue
		}
		if done && markers {
			s.FlushAll() //nolint:errcheck // link failure surfaces via link.Err
			sendMarkers(link, 0, nil)
			return
		}
		if done {
			s.Close() //nolint:errcheck
			return
		}
		// Row dry: push out partial batches, then park until a token, a
		// command, the workers' exit or the machine's end wakes the port.
		s.FlushAll() //nolint:errcheck // link failure surfaces via link.Err
		if cfg.LoadBalance && !announced && mc.mesh.TotalLen() == 0 {
			for d := 0; d < link.Machines(); d++ {
				if d != mc.id && (member == nil || member(d)) {
					link.Send(d, cluster.TokenBatch{}) //nolint:errcheck // as above
				}
			}
			announced = true
		}
		mc.mesh.Park(port, false, nil)
	}
}

// runMeshReceiver unpacks inbound token batches, records queue-length
// gossip and starts each token's local circulation through the mesh
// (deliverBatch), then releases the arena back to the link's pool. A
// batch naming an item that does not exist is rejected — reject names
// the peer and ends the run — and everything after it is discarded. A
// failover fence marker goes to the agent's inbox (without failover,
// nothing waits for one, and it is dropped). It runs until it holds markers end-of-circulation markers,
// when markers is positive, or else until every peer has ended its
// stream (or the link fails).
func runMeshReceiver(mc *meshMachine, link cluster.Link, r *rng.Source, markers int, fo *failoverRuntime, reject func(error)) {
	cmds := fo.recvCmds(mc.id) // nil (never ready) without failover
	recv := link.Recv()
	rejected := false
	for {
		select {
		case cmd := <-cmds:
			fo.handleRecvCmd(mc, cmd, r)
		case <-mc.retry:
			mc.retryPending()
		case inb, ok := <-recv:
			if !ok {
				// A late injection racing teardown must still land.
				fo.drainRecvCmds(mc, r)
				return
			}
			if rejected || fo != nil && !fo.acceptBatch(mc, inb.From) {
				// Discard, but keep draining — a stalled receive channel
				// wedges the transport.
				inb.Batch.Release()
				continue
			}
			if q := inb.Batch.QueueLen; q < markerCeiling {
				// Behind the peer's last token: everything it sent here
				// before the marker has landed.
				inb.Batch.Release()
				if ep := uint64(q - endOfCirculation); ep > 0 {
					fo.post(mc.id, foInput{kind: inMarker, from: inb.From, foFrame: foFrame{epoch: ep}})
				} else if markers--; markers == 0 {
					return
				}
				continue
			}
			mc.lastKnown[inb.From].Store(int64(inb.Batch.QueueLen))
			if bad := mc.deliverBatch(inb.From, inb.Batch.Tokens, fo, r); bad >= 0 {
				rejected = true
				reject(wireItemErr(inb.From, inb.Batch.Tokens[bad].Item, mc.md.N))
				inb.Batch.Release()
				continue
			}
			if fo != nil {
				fo.afterDeliver(mc.id, inb.Batch.Tokens, link)
			}
			inb.Batch.Release() // the vectors were copied into the model above
		}
	}
}

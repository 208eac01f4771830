package core

// Failover and elastic membership: surviving the mid-epoch death of a
// machine, activating provisioned spares mid-run (scale-out) and
// retiring members gracefully (scale-in) in the asynchronous
// distributed runners. NOMAD's ownership discipline makes all three
// tractable — at any instant each item token (j, hⱼ) is owned by
// exactly one machine — so every membership change is a bookkeeping
// problem: quiesce the network, account for every token, move or
// regenerate what must move, and resume.
//
// The protocol is arbiter-driven over the links' control plane (frame
// kinds ≥ 16; the multi-process runner owns 1..7), except for its
// fence, which rides the data plane behind the tokens. It runs in a
// per-machine agent (failover_agent.go: a pure step function and the
// shell that applies its effects). Every round — evict, join or drain
// a subject rank — has one skeleton (DESIGN.md §11): the arbiter, the
// lowest live rank, broadcasts its start under a new membership epoch;
// senders park behind a fence marker to every peer, so a peer is
// fenced once its marker reaches the local receiver; each machine then
// reports its token-ownership bitmap; the arbiter unions the reports
// (a duplicate bit aborts) and commits — evict remaps the missing
// tokens to the victim's ring buddy for regeneration, join activates
// the spare with per-donor quotas, drain re-homes the leaver, whose
// sender first streamed every token to its buddy — and broadcasts
// resume. Faults are survived one at a time while two machines
// remain; a successor arbiter finishes a dead one's round.
//
// Elastic spares are provisioned up front but latent: not members, so
// no picker routes to them and they own no tokens, with their rating
// shards fostered by active workers through the responsibility table,
// until a join activates them. Routing reads the same membership; the
// §3.3 queue-length gossip stays a load hint. Buddy replication
// streams each machine's delivered tokens and rotating user-row chunks
// to its ring successor: lossy, so a crash loses updates since the
// last snapshot, never conservation.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/factor"
	"nomad/internal/netlink"
	"nomad/internal/partition"
	"nomad/internal/rng"
	"nomad/internal/train"
)

// Failover control-frame kinds. The multi-process runner owns 1..7;
// everything here lives at 16+ so the planes can never collide.
const (
	ctlFoSuspect   = uint8(16) + iota // survivor → arbiter: victim rank
	ctlFoEvict                        // arbiter broadcast: victim rank (round start)
	ctlFoReport                       // peer → arbiter: subject, ownership bitmap
	ctlFoRemap                        // arbiter → buddy: victim, bitmap of the missing items
	ctlFoRegenDone                    // buddy → arbiter: victim
	ctlFoResume                       // arbiter broadcast: subject (round end)
	ctlFoReplToks                     // replication: delivered-token snapshot (AppendTokenBatch payload)
	ctlFoReplRows                     // replication: user-factor row chunk
	ctlFoJoin                         // arbiter broadcast: joining spare rank (round start)
	ctlFoDrain                        // arbiter broadcast: leaving rank (round start)
)

// foFenceTimeout bounds the quiesce wait; a fence that cannot be
// satisfied (a peer that never parks, or frames lost forever) aborts
// the run with a typed error instead of hanging. A variable so the
// wall-clock fence-timeout test can shrink it.
var foFenceTimeout = 5 * time.Second

const (
	// replEveryTokens is the replication snapshot cadence: one ctl frame
	// to the ring buddy per this many delivered tokens.
	replEveryTokens = 64
	// replRowChunk is how many user-factor rows ride along with each
	// token snapshot (rotating cursor over the machine's users).
	replRowChunk = 128
)

// foCmd is an agent's command to its sender or receiver goroutine.
type foCmd struct {
	kind   int
	victim int
	ep     uint64          // the round's epoch, stamped on fence markers and snapshots
	toks   []cluster.Token // inject: regenerated tokens (fresh vectors)
}

// Sender command kinds.
const (
	sendEvict = iota // redirect victim's pending batch, flush, park
	sendResume
	sendPark  // flush and park (join/drain rounds on non-leavers)
	sendDrain // stream every local token to the ring buddy, then park
)

// Receiver command kinds. The command channel is
// FIFO with respect to itself, which is the protocol's ordering
// argument: markDead is enqueued before any later snapshot, so by the
// time the receiver answers the snapshot it has already stopped
// accepting the victim's frames.
const (
	recvMarkDead = iota
	recvSnapshot // posts the ownership bitmap to the agent, tagged ep
	recvInject
)

// replicaStore is one machine's replica of a peer's state, fed by the
// peer's replication stream and consumed only if the peer dies.
type replicaStore struct {
	items map[int32][]float64 // last replicated hⱼ per item delivered there
	users map[int32][]float64 // last replicated user-factor rows
}

// foMachine is the per-machine mailbox set and the flags its agent's
// shell publishes for the machine's own threads.
type foMachine struct {
	// The agent's inbox: unbounded, so posting never blocks, and no
	// input is dropped. wake is its one-slot signal.
	mu      sync.Mutex
	inbox   []foInput
	wake    chan struct{}
	sendCmd chan foCmd
	recvCmd chan foCmd

	draining atomic.Bool // workers flush forward: this machine is a drain's leaver
	paused   atomic.Bool // replication paused during this machine's round

	replicas map[int]*replicaStore // agent-owned: peers' replicated state

	// Receiver-goroutine-owned state (no locks needed).
	repl   *cluster.BatchBuf // pending replication snapshot
	replN  int               // tokens accumulated in repl
	rowCur int               // rotating cursor into the machine's user list
}

// post delivers an input to machine i's agent.
func (fo *failoverRuntime) post(i int, in foInput) {
	if fo == nil {
		return
	}
	m := fo.m[i]
	m.mu.Lock()
	m.inbox = append(m.inbox, in)
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// failoverRuntime is the shared state of one failover-enabled run: the
// ownership bitmaps, membership flags and mailboxes of every
// provisioned machine, plus the global death/recovery record. A nil
// receiver is valid everywhere and means "failover disabled" — the
// runners call straight through without guards on their hot paths
// beyond a nil check and, on the data planes, one atomic op per token.
type failoverRuntime struct {
	foConf

	hooks *train.Hooks

	links     []cluster.Link
	md        *factor.Model
	local     []*localRatings
	userLists [][]int32 // per machine: global user ids its workers own

	m   []*foMachine
	mcs []*meshMachine // every provisioned machine, for its wakes

	dead   []atomic.Bool // crashed (kill / transport failure)
	parted []atomic.Bool // left gracefully via a drain round
	active []atomic.Bool // member of the working set (false = latent spare)

	owned [][]atomic.Uint64 // [machine][word]: token-ownership bitmaps

	// resp is the published responsibility table: shard → global worker
	// currently training it. Identity for active members' own shards;
	// latent spares' shards are fostered, and evictions/drains move
	// entries wholesale. Workers watch respGen and rebuild their extras.
	resp    atomic.Pointer[[]int32]
	respGen atomic.Uint64
	respMu  sync.Mutex

	// donate[r] is how many tokens machine r still owes the latest
	// joiner (donateTo); decremented by r's sender as it redirects
	// tokens there, so scale-out rebalances on the data plane.
	donate   []atomic.Int64
	donateTo atomic.Int64

	deaths     atomic.Int64
	evictDone  atomic.Int64
	deathMu    sync.Mutex
	deathAt    map[int]int64 // victim → detection nanos (cleared on recovery)
	lastVictim atomic.Int64

	elasticMu   sync.Mutex
	claimed     []bool         // spare ranks with a join requested
	drainReq    []bool         // ranks with a drain requested
	resizeStart []atomic.Int64 // subject rank → its pending request's nanos
	lastJoined  atomic.Int64

	stopping chan struct{}
	stopOnce sync.Once

	fatal  atomic.Pointer[foFatal]
	stop   *atomic.Bool
	cancel func()

	agentWG sync.WaitGroup
}

type foFatal struct{ err error }

// newFailoverRuntime allocates the runtime over the run's machines, or
// returns nil when the config does not enable failover. Allocation is
// split from bind so the detection callback can be wired into the
// links at build time.
func newFailoverRuntime(cfg train.Config, hooks *train.Hooks, n int, machines []*meshMachine) *failoverRuntime {
	if !cfg.Failover {
		return nil
	}
	M, W := cfg.TotalMachines(), cfg.Workers
	words := (n + 63) / 64
	fo := &failoverRuntime{
		foConf:      foConf{M: M, W: W, K: cfg.K, n: n, activeN: cfg.Machines},
		hooks:       hooks,
		m:           make([]*foMachine, M),
		mcs:         machines,
		dead:        make([]atomic.Bool, M),
		parted:      make([]atomic.Bool, M),
		active:      make([]atomic.Bool, M),
		owned:       make([][]atomic.Uint64, M),
		donate:      make([]atomic.Int64, M),
		claimed:     make([]bool, M),
		drainReq:    make([]bool, M),
		resizeStart: make([]atomic.Int64, M),
		deathAt:     map[int]int64{},
		stopping:    make(chan struct{}),
	}
	fo.donateTo.Store(-1)
	fo.lastVictim.Store(-1)
	fo.lastJoined.Store(-1)
	for i := 0; i < M; i++ {
		fo.m[i] = &foMachine{
			wake:     make(chan struct{}, 1),
			sendCmd:  make(chan foCmd, 4),
			recvCmd:  make(chan foCmd, 8),
			replicas: map[int]*replicaStore{},
			repl:     cluster.NewBatchBuf(),
		}
		fo.owned[i] = make([]atomic.Uint64, words)
		fo.active[i].Store(i < fo.activeN)
	}
	// Initial responsibility table: identity for active members, latent
	// spare L's shard (L, w) fostered by active worker ((L mod active)·W
	// + w) so every user partition is trained from the first update.
	resp := make([]int32, M*W)
	for s := range resp {
		resp[s] = int32(s)
	}
	for L := fo.activeN; L < M; L++ {
		for w := 0; w < W; w++ {
			resp[L*W+w] = int32((L%fo.activeN)*W + w)
		}
	}
	fo.resp.Store(&resp)
	fo.respGen.Store(1)
	return fo
}

// bind attaches the run's shared objects once they exist: the (possibly
// chaos-wrapped) links, the model, the per-worker rating shards, the
// user partition (p = M·W parts, machine i owns parts i·W..(i+1)·W-1)
// and the teardown levers.
func (fo *failoverRuntime) bind(links []cluster.Link, md *factor.Model, local []*localRatings,
	users *partition.Partition, stop *atomic.Bool, cancel func()) {
	if fo == nil {
		return
	}
	fo.links, fo.md, fo.local = links, md, local
	fo.stop, fo.cancel = stop, cancel
	fo.userLists = make([][]int32, fo.M)
	for mc := 0; mc < fo.M; mc++ {
		var list []int32
		for w := 0; w < fo.W; w++ {
			list = append(list, users.Part(mc*fo.W+w)...)
		}
		fo.userLists[mc] = list
	}
}

// ---- membership predicates ----

// gone reports whether rank i has left the cluster for good, by crash
// or by graceful drain.
func (fo *failoverRuntime) gone(i int) bool {
	return fo.dead[i].Load() || fo.parted[i].Load()
}

// machineGone is the runners' nil-safe view of gone.
func (fo *failoverRuntime) machineGone(i int) bool { return fo != nil && fo.gone(i) }

// selectable reports whether rank i may receive tokens: an active
// member that has not left.
func (fo *failoverRuntime) selectable(i int) bool {
	return fo.active[i].Load() && !fo.gone(i)
}

// memberFunc is the senders' membership predicate: selectable, or nil
// without failover, when every peer is a member.
func (fo *failoverRuntime) memberFunc() func(int) bool {
	if fo == nil {
		return nil
	}
	return fo.selectable
}

// published is the published membership as a view, for the runtime's
// own reads of it: the working set's size, a machine's ring buddy (the
// replication target and the drain hand-off destination) and the
// arbiter, where membership requests go.
func (fo *failoverRuntime) published() *foView {
	v := &foView{foConf: fo.foConf}
	for r := 0; r < fo.M; r++ {
		if fo.dead[r].Load() {
			v.dead = v.dead.with(r)
		}
		if fo.parted[r].Load() {
			v.parted = v.parted.with(r)
		}
		if fo.active[r].Load() {
			v.active = v.active.with(r)
		}
	}
	return v
}

// drainingMachine reports whether machine i is a drain's leaver; its
// workers flush forward instead of training.
func (fo *failoverRuntime) drainingMachine(i int) bool {
	return fo != nil && fo.m[i].draining.Load()
}

// ---- detection and death accounting ----

// detectFunc returns the OnPeerDown sink wired into the TCP links, or
// nil when failover is disabled.
func (fo *failoverRuntime) detectFunc() func(self, rank int, err error) {
	if fo == nil {
		return nil
	}
	return fo.detect
}

// detect is the failure-detection entry point: transport callbacks and
// the chaos controller land here. self is the observing machine.
func (fo *failoverRuntime) detect(self, rank int, err error) {
	if fo == nil || fo.gone(self) {
		return // a dying machine's own link sees every peer vanish; ignore it
	}
	cause := "peer down"
	if err != nil {
		cause = err.Error()
	}
	fo.post(self, foInput{kind: inDetect, cause: cause, foFrame: foFrame{subject: rank}})
}

// noteDeath records a machine death exactly once: the global dead flag
// (the in-process failure detector every picker consults), the
// detection timestamp and the PeerDown event. The victim's parked
// threads wake to wind down, and every agent learns of it at once.
func (fo *failoverRuntime) noteDeath(rank int, cause string) {
	if !fo.dead[rank].CompareAndSwap(false, true) {
		return
	}
	fo.mcs[rank].wake()
	for i := range fo.m {
		fo.post(i, foInput{kind: inGone, foFrame: foFrame{subject: rank}})
	}
	fo.deaths.Add(1)
	fo.lastVictim.Store(int64(rank))
	fo.deathMu.Lock()
	fo.deathAt[rank] = time.Now().UnixNano()
	fo.deathMu.Unlock()
	fo.hooks.Emit(train.PeerDownEvent{Rank: rank, Reason: cause})
}

// noteRecovered records a completed eviction round (once per victim)
// and emits the recovery event with the detection→resume latency.
func (fo *failoverRuntime) noteRecovered(victim int) {
	fo.deathMu.Lock()
	t0, ok := fo.deathAt[victim]
	if ok {
		delete(fo.deathAt, victim)
	}
	fo.deathMu.Unlock()
	if !ok {
		return // duplicate
	}
	fo.evictDone.Add(1)
	d := time.Duration(time.Now().UnixNano() - t0)
	fo.hooks.Emit(train.PeerRecoveredEvent{Rank: victim, RecoverySeconds: d.Seconds()})
}

// killMachine is the chaos controller's kill function: machine victim
// dies in-process. -1 picks the highest selectable rank without a
// drain requested, so a kill is never a second fault inside a leaver's
// own round. The victim's workers, sender and receiver observe the dead
// flag and wind down like a crashed process would, and its link is
// aborted, so the survivors learn of the death the way they would of a
// real one: their links report it through OnPeerDown, on both backends.
func (fo *failoverRuntime) killMachine(victim int) {
	if fo == nil {
		return
	}
	if victim < 0 {
		fo.elasticMu.Lock()
		for r := fo.M - 1; r >= 0; r-- {
			if fo.selectable(r) && !fo.drainReq[r] {
				victim = r
				break
			}
		}
		fo.elasticMu.Unlock()
	}
	if victim < 0 {
		return
	}
	fo.noteDeath(victim, "chaos kill")
	fo.links[victim].Abort()
}

// ---- elastic membership requests ----

// requestJoin asks the arbiter to activate a provisioned spare (rank
// -1 = lowest unclaimed spare). It returns once the round is enqueued;
// completion is reported as a ResizeEvent.
func (fo *failoverRuntime) requestJoin(rank int) error {
	if fo == nil {
		return fmt.Errorf("core: join requested but failover is disabled")
	}
	fo.elasticMu.Lock()
	if rank < 0 {
		for r := 0; r < fo.M; r++ {
			if !fo.active[r].Load() && !fo.gone(r) && !fo.claimed[r] {
				rank = r
				break
			}
		}
		if rank < 0 {
			fo.elasticMu.Unlock()
			return fmt.Errorf("core: no provisioned spare available to join")
		}
	} else {
		if rank >= fo.M || fo.active[rank].Load() || fo.gone(rank) || fo.claimed[rank] {
			fo.elasticMu.Unlock()
			return fmt.Errorf("core: rank %d is not a joinable spare", rank)
		}
	}
	fo.claimed[rank] = true
	fo.elasticMu.Unlock()
	fo.resizeStart[rank].Store(time.Now().UnixNano())
	return fo.enqueueArbiter(inJoin, rank)
}

// requestDrain asks the arbiter to retire a member gracefully (rank
// -1 = highest selectable rank, preferring one that did not just
// join). The leaver's state streams to its ring buddy before it exits.
func (fo *failoverRuntime) requestDrain(rank int) error {
	if fo == nil {
		return fmt.Errorf("core: drain requested but failover is disabled")
	}
	fo.elasticMu.Lock()
	if rank < 0 {
		lastJ := int(fo.lastJoined.Load())
		for r := fo.M - 1; r >= 0; r-- {
			if fo.selectable(r) && !fo.drainReq[r] {
				if rank < 0 {
					rank = r
				}
				if r != lastJ {
					rank = r
					break
				}
			}
		}
		if rank < 0 {
			fo.elasticMu.Unlock()
			return fmt.Errorf("core: no drainable machine available")
		}
	} else {
		if rank >= fo.M || !fo.selectable(rank) || fo.drainReq[rank] {
			fo.elasticMu.Unlock()
			return fmt.Errorf("core: rank %d is not a drainable member", rank)
		}
	}
	// A requested drain still pending is one whose leaver has neither
	// parted nor died.
	pending := 0
	for r := 0; r < fo.M; r++ {
		if fo.drainReq[r] && fo.selectable(r) {
			pending++
		}
	}
	if fo.published().members()-pending-1 < 2 {
		fo.elasticMu.Unlock()
		return fmt.Errorf("core: draining rank %d would leave fewer than 2 machines", rank)
	}
	fo.drainReq[rank] = true
	fo.elasticMu.Unlock()
	fo.resizeStart[rank].Store(time.Now().UnixNano())
	return fo.enqueueArbiter(inDrain, rank)
}

// enqueueArbiter posts a membership request to the current arbiter's
// agent.
func (fo *failoverRuntime) enqueueArbiter(kind uint8, rank int) error {
	if fo.isStopping() {
		return fmt.Errorf("core: run stopped before the membership change was accepted")
	}
	fo.post(fo.published().arbiter(), foInput{kind: kind, foFrame: foFrame{subject: rank}})
	return nil
}

// noteResized emits the resize event for a committed membership change
// of rank, leaving machines members, timed from that rank's own
// request (taken from resizeStart before the change is published, so
// a request naming the new member cannot be mistaken for it).
func (fo *failoverRuntime) noteResized(kind string, rank, machines int) {
	secs := 0.0
	if start := fo.resizeStart[rank].Swap(0); start > 0 {
		secs = time.Duration(time.Now().UnixNano() - start).Seconds()
	}
	fo.hooks.Emit(train.ResizeEvent{Kind: kind, Rank: rank, Machines: machines, Seconds: secs})
}

// ---- hot-path hooks (ownership, donation) ----

// donationDest returns the machine sender i should hand its next token
// to in service of a scale-out rebalance, or -1 to route normally. The
// quota is decremented here; the sender goroutine is its only writer
// after publication.
func (fo *failoverRuntime) donationDest(i int) int {
	if fo == nil {
		return -1
	}
	to := int(fo.donateTo.Load())
	if to < 0 || !fo.selectable(to) {
		return -1
	}
	if q := fo.donate[i].Load(); q > 0 {
		fo.donate[i].Store(q - 1)
		return to
	}
	return -1
}

// sendCmds returns machine i's sender mailbox (nil channel — never
// ready — without failover).
func (fo *failoverRuntime) sendCmds(i int) chan foCmd {
	if fo == nil {
		return nil
	}
	return fo.m[i].sendCmd
}

// recvCmds returns machine i's receiver mailbox (nil without failover).
func (fo *failoverRuntime) recvCmds(i int) chan foCmd {
	if fo == nil {
		return nil
	}
	return fo.m[i].recvCmd
}

// noteOwned sets item's ownership bit for machine i: called at initial
// placement and on every delivery, injections included, before the
// token enters the worker queues. A token must never be observable by
// the sender (which clears bits) before its bit is set, or a snapshot
// could double- or zero-count it.
//
//nomad:noalloc
func (fo *failoverRuntime) noteOwned(i int, item int32) {
	fo.owned[i][item>>6].Or(1 << uint(item&63))
}

// noteSent records a token handed to machine i's sender: the ownership
// bit clears (the token is leaving; if it never arrives anywhere it is
// "missing" and the protocol regenerates it).
//
//nomad:noalloc
func (fo *failoverRuntime) noteSent(i int, item int32) {
	fo.owned[i][item>>6].And(^(uint64(1) << uint(item&63)))
}

// acceptBatch reports whether machine mc's receiver should deliver a
// batch from src: a dead or drained machine discards everything (it
// must keep draining — its link's reader, and behind it the peer's
// writer, would stall otherwise), and survivors drop frames from
// evicted peers.
func (fo *failoverRuntime) acceptBatch(mc *meshMachine, src int) bool {
	if fo == nil {
		return true
	}
	if fo.gone(mc.id) {
		return false
	}
	return !mc.dropFrom[src]
}

// afterDeliver streams a delivered batch to the ring buddy's replica.
func (fo *failoverRuntime) afterDeliver(i int, toks []cluster.Token, link cluster.Link) {
	m := fo.m[i]
	for x := range toks {
		m.repl.Add(toks[x].Item, toks[x].Vec)
	}
	m.replN += len(toks)
	if m.replN < replEveryTokens || m.paused.Load() || fo.isStopping() {
		return
	}
	fo.flushReplication(i, link)
}

// flushReplication streams the pending delta snapshot — delivered
// tokens plus a rotating chunk of user-factor rows — to the machine's
// ring buddy. Replication is data, not protocol, so its frames carry
// no epoch. It is lossy-tolerant: a failed or dropped frame only
// widens the window of updates lost if this machine dies.
func (fo *failoverRuntime) flushReplication(i int, link cluster.Link) {
	m := fo.m[i]
	buddy := fo.published().buddyOf(i)
	if buddy < 0 {
		m.repl.Reset()
		m.replN = 0
		return
	}
	payload, err := netlink.AppendTokenBatch(foAppend(nil, 0, i, nil), m.repl.Batch(0), fo.K)
	if err == nil {
		link.SendCtl(buddy, ctlFoReplToks, payload) //nolint:errcheck // lossy-tolerant plane
	}
	m.repl.Reset()
	m.replN = 0

	users := fo.userLists[i]
	if len(users) == 0 {
		return
	}
	chunk := users[m.rowCur:min(m.rowCur+replRowChunk, len(users))]
	m.rowCur = (m.rowCur + len(chunk)) % len(users)
	rows := foAppend(make([]byte, 0, foHeader+4+len(chunk)*(4+8*fo.K)), 0, i, nil)
	// The rows are being written by this machine's own workers; the
	// torn-read risk is the same one the unlocked monitor sampling
	// accepts, and a torn replica row only costs replication fidelity.
	rows = appendRows(rows, chunk, fo.md.K, fo.md.CopyUserRowTo64) //nomad:racy-read replication snapshot of live rows
	link.SendCtl(buddy, ctlFoReplRows, rows)                       //nolint:errcheck // lossy-tolerant plane
}

// ---- responsibility table ----

// respGeneration is the workers' cheap "did responsibility move?"
// check; 0 without failover.
func (fo *failoverRuntime) respGeneration() uint64 {
	if fo == nil {
		return 0
	}
	return fo.respGen.Load()
}

// extraShards rebuilds, into buf, the rating shards global worker gw
// is responsible for beyond its own, per the published table.
func (fo *failoverRuntime) extraShards(gw int, buf []*localRatings) []*localRatings {
	buf = buf[:0]
	if fo == nil {
		return buf
	}
	t := *fo.resp.Load()
	for s, o := range t {
		if int(o) == gw && s != gw {
			buf = append(buf, fo.local[s])
		}
	}
	return buf
}

// respMove reassigns every shard currently trained by a worker of
// machine from to the matching worker of machine to — or, with from
// = -1, returns joiner to's own shards to it, ending their fostering —
// and republishes the table (copied on write).
func (fo *failoverRuntime) respMove(from, to int) {
	fo.respMu.Lock()
	defer fo.respMu.Unlock()
	nt := slices.Clone(*fo.resp.Load())
	for s, o := range nt {
		if int(o)/fo.W == from || from < 0 && s/fo.W == to {
			nt[s] = int32(to*fo.W + s%fo.W)
		}
	}
	fo.resp.Store(&nt)
	fo.respGen.Add(1)
}

// ---- goroutine command execution ----

// handleRecvCmd executes an agent command on machine mc's receiver
// goroutine. An injection is delivered like an inbound batch, with the
// same ownership bits, row writes and visit planning.
func (fo *failoverRuntime) handleRecvCmd(mc *meshMachine, cmd foCmd, r *rng.Source) {
	switch cmd.kind {
	case recvMarkDead:
		mc.dropFrom[cmd.victim] = true
	case recvSnapshot:
		bm := make([]uint64, len(fo.owned[mc.id]))
		for w := range bm {
			bm[w] = fo.owned[mc.id][w].Load()
		}
		fo.post(mc.id, foInput{kind: inSnapshot, foFrame: foFrame{epoch: cmd.ep, bm: bm}})
	case recvInject:
		mc.deliverBatch(-1, cmd.toks, fo, r)
	}
}

// drainRecvCmds runs any still-queued commands before a receiver
// returns, so a late injection racing teardown is not lost.
func (fo *failoverRuntime) drainRecvCmds(mc *meshMachine, r *rng.Source) {
	if fo == nil {
		return
	}
	for {
		select {
		case cmd := <-fo.m[mc.id].recvCmd:
			fo.handleRecvCmd(mc, cmd, r)
		default:
			return
		}
	}
}

// runSenderCmd executes a failover command on machine i's sender
// goroutine. Every round variant ends the same way: flush, put a fence
// marker for the round's epoch behind the last token to every peer
// still in the cluster, tell the local agent, and park until resume —
// this machine's share of token circulation pauses, which is what lets
// the snapshot see a quiescent network. A round command while parked
// means a later round superseded this one: it fences again. drainAll
// is the runner's flush-forward: stream every token still on this
// machine to dest.
func (fo *failoverRuntime) runSenderCmd(i int, cmd foCmd, s *cluster.Sender, link cluster.Link, pick func() int, drainAll func(dest int)) {
	for {
		switch cmd.kind {
		case sendEvict:
			s.Redirect(cmd.victim, pick)
		case sendPark:
			// Nothing to redirect: just flush and park.
		case sendDrain:
			if dest := fo.published().buddyOf(i); dest >= 0 {
				drainAll(dest)
			}
		default:
			return // resume
		}
		s.FlushAll() //nolint:errcheck // a real failure surfaces via link.Err
		sendMarkers(link, cmd.ep, func(p int) bool { return !fo.gone(p) })
		fo.post(i, foInput{kind: inFenced, foFrame: foFrame{epoch: cmd.ep}})
		select {
		case cmd = <-fo.m[i].sendCmd:
		case <-fo.stopping:
			return
		}
	}
}

// ---- teardown plumbing ----

// fail aborts the run with a failover-level error: stop the workers,
// cancel the monitor and release everything parked on the protocol.
func (fo *failoverRuntime) fail(err error) {
	if fo == nil {
		return
	}
	if !fo.fatal.CompareAndSwap(nil, &foFatal{err: err}) {
		return
	}
	if fo.stop != nil {
		fo.stop.Store(true)
	}
	if fo.cancel != nil {
		fo.cancel()
	}
	fo.shutdown()
}

// shutdown releases the protocol's blocking points for teardown:
// parked senders unpark (a draining one wakes from its port), agents
// abandon any half-finished reconfiguration (they keep draining their
// ctl channels so the transports never stall). Idempotent; the runners
// call it as soon as the monitor returns.
func (fo *failoverRuntime) shutdown() {
	if fo == nil {
		return
	}
	fo.stopOnce.Do(func() {
		close(fo.stopping)
		for _, mc := range fo.mcs {
			mc.mesh.Wake(mc.port())
		}
	})
}

// isStopping reports whether shutdown has begun.
func (fo *failoverRuntime) isStopping() bool {
	select {
	case <-fo.stopping:
		return true
	default:
		return false
	}
}

// wait joins the agent goroutines; called after the links are closed
// (closing the ctl channels is what lets the agents return).
func (fo *failoverRuntime) wait() {
	if fo == nil {
		return
	}
	fo.agentWG.Wait()
}

// liveLinkErr reports the first transport failure among the run's
// endpoints that are still in the cluster: a killed victim's endpoint
// legitimately reports one.
func (fo *failoverRuntime) liveLinkErr(links []cluster.Link) error {
	for i, l := range links {
		if err := l.Err(); err != nil && !fo.machineGone(i) {
			return err
		}
	}
	return nil
}

// failErr is the run's failover verdict, checked at teardown: a fatal
// protocol error, or a death the protocol did not finish recovering
// from before the run ended.
func (fo *failoverRuntime) failErr() error {
	if fo == nil {
		return nil
	}
	if f := fo.fatal.Load(); f != nil {
		return f.err
	}
	if fo.deaths.Load() > fo.evictDone.Load() {
		return &cluster.PeerDownError{Rank: int(fo.lastVictim.Load()), Cause: fmt.Errorf("run ended before failover completed")}
	}
	return nil
}

// ---- the control frame ----

// foFrame is the one shape of every failover control frame: a header of
// the membership epoch it was sent under and the round's subject rank
// (the replicating machine on the replication plane), then the kind's
// payload — an ownership bitmap of exactly ⌈n/64⌉ words for a report
// or a remap, the replication payload for ctlFoReplToks and
// ctlFoReplRows, nothing for the rest. The epoch lets receivers reject
// frames from rounds already finished.
type foFrame struct {
	epoch   uint64
	subject int
	bm      []uint64 // ctlFoReport, ctlFoRemap
	body    []byte   // ctlFoReplToks, ctlFoReplRows
}

// foHeader is the frame header's size: epoch and subject, uint32 each.
const foHeader = 8

// foAppend appends a frame's header and bitmap to dst; a replication
// frame's payload is appended behind them by its own encoder.
func foAppend(dst []byte, ep uint64, subject int, bm []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ep))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(subject)))
	for _, w := range bm {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// foDecode parses a control frame of the given kind from a peer, for a
// run of n items over machines ranks. It accepts only a failover kind,
// a subject in [0, machines), and the kind's exact payload: a bitmap of
// ⌈n/64⌉ words with no bit at or above n, no payload at all, or a
// replication payload, which its own decoder checks. So every item a
// remap names is a model row.
func foDecode(kind uint8, p []byte, n, machines int) (foFrame, bool) {
	if kind < ctlFoSuspect || kind > ctlFoDrain || len(p) < foHeader {
		return foFrame{}, false
	}
	f := foFrame{epoch: uint64(binary.LittleEndian.Uint32(p)), subject: int(int32(binary.LittleEndian.Uint32(p[4:])))}
	if f.subject < 0 || f.subject >= machines {
		return foFrame{}, false
	}
	body := p[foHeader:]
	switch kind {
	case ctlFoReport, ctlFoRemap:
		words := (n + 63) / 64
		if len(body) != 8*words {
			return foFrame{}, false
		}
		f.bm = make([]uint64, words)
		for w := range f.bm {
			f.bm[w] = binary.LittleEndian.Uint64(body[8*w:])
		}
		if n%64 != 0 && f.bm[words-1]>>(n%64) != 0 {
			return foFrame{}, false
		}
	case ctlFoReplToks, ctlFoReplRows:
		f.body = body
	default:
		if len(body) != 0 {
			return foFrame{}, false
		}
	}
	return f, true
}

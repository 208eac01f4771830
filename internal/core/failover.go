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
// fence, which rides the data plane behind the tokens, and runs in a
// per-machine "agent" goroutine alongside the sender/receiver pair.
// All three reconfiguration rounds share one skeleton:
//
//	start      the arbiter — the lowest live rank — bumps the
//	           membership epoch and broadcasts the round (evict /
//	           join / drain, with its subject rank)
//	fence      senders park (an eviction first redirects the victim's
//	           pending batch; a drain's leaver instead flushes forward,
//	           see below) and put a fence marker, stamped with the
//	           round's epoch, behind their last token to every peer
//	           (the multi-process stop's quiesce marker); a peer is
//	           fenced once its marker has reached the local receiver,
//	           so nothing it sent here is still in flight
//	report     with the network quiescent, each machine snapshots its
//	           token-ownership bitmap and reports it to the arbiter
//	commit     the arbiter unions the reports (a duplicate bit is a
//	           conservation violation and aborts) and commits the
//	           round: evict → remap missing tokens to the victim's ring
//	           buddy for regeneration; join → activate the spare,
//	           compute per-donor token quotas (CarveShare) that drain
//	           to the joiner over the data plane; drain → re-home the
//	           leaver's rating shards to its buddy
//	resume     the arbiter broadcasts resume; senders unpark and
//	           circulation continues with the new membership — the
//	           epoch is never restarted
//
// A drain differs in one step: the leaver's workers stop training and
// flush their queues forward, and its sender streams every remaining
// token to the leaver's ring buddy (zero lost updates — state is
// moved, not reconstructed) before it sends its fence markers.
//
// Sequential faults are survivable while at least two machines remain:
// a death detected mid-round is queued and handled in its own round
// after resume, and if the arbiter itself dies mid-round the next
// lowest live rank takes over — survivors re-aim their buffered
// reports at the successor, so the round completes without restarting.
// Every control frame has one shape, foFrame: the membership epoch it
// was sent under and the round's subject rank, then the kind's
// payload. Stale-epoch frames (from rounds already finished) are
// dropped, with suspect and resume exempt so late detections and late
// resumes are never lost.
//
// Elastic spares are provisioned up front: links, partitions and
// worker/sender/receiver/agent goroutines exist for Machines +
// ElasticSpares ranks from the start, but a spare is latent — it is not
// a member, so no picker routes to it, it owns no tokens, and its
// user-rating shards are fostered by active workers through the
// responsibility table — until a join round activates it.
//
// Routing reads the same membership: every sender's picker skips a
// rank that is not selectable (dead, drained or latent). The §3.3
// queue-length gossip stays what the paper makes it, a load hint, and
// carries no liveness.
//
// Buddy replication is receiver-driven and lossy-tolerant: every
// machine streams the tokens it delivers (and rotating chunks of its
// user-factor rows) to its ring successor as control frames; what was
// updated since the last replicated snapshot is lost on a crash,
// conservation is not.

import (
	"encoding/binary"
	"fmt"
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

// Agent phases.
const (
	foIdle = iota
	foFencing
	foAwaitResume
)

// Reconfiguration round kinds.
const (
	roundNone = iota
	roundEvict
	roundJoin
	roundDrain
)

// foEvent kinds (runner/transport/elastic requests → agent
// notifications).
const (
	evDetect  = iota // a peer died (victim, cause)
	evFenced         // own sender flushed, sent its fence markers and parked
	evRecheck        // a fence input changed: a peer's marker was filed, or a peer left
	evJoin           // activate spare (victim = spare rank)
	evDrain          // graceful leave (victim = leaver rank)
)

type foEvent struct {
	kind   int
	victim int
	cause  string
	ep     uint64 // round epoch for re-queued broadcast-origin events; 0 = initiator
}

// foSendCmd kinds (agent → sender goroutine).
const (
	sendEvict = iota // redirect victim's pending batch, flush, park
	sendResume
	sendPark  // flush and park (join/drain rounds on non-leavers)
	sendDrain // stream every local token to the ring buddy, then park
)

type foSendCmd struct {
	kind   int
	victim int
	ep     uint64 // the round's epoch, stamped on the fence markers
}

// foRecvCmd kinds (agent → receiver goroutine). The command channel is
// FIFO with respect to itself, which is the protocol's ordering
// argument: markDead is enqueued before any later snapshot, so by the
// time the receiver answers the snapshot it has already stopped
// accepting the victim's frames.
const (
	recvMarkDead = iota
	recvSnapshot
	recvInject
)

type foRecvCmd struct {
	kind   int
	victim int
	reply  chan []uint64   // snapshot: ownership bitmap copy
	toks   []cluster.Token // inject: regenerated tokens (fresh vectors)
}

// replicaStore is one machine's replica of a peer's state, fed by the
// peer's replication stream and consumed only if the peer dies.
type replicaStore struct {
	items map[int32][]float64 // last replicated hⱼ per item delivered there
	users map[int32][]float64 // last replicated user-factor rows
}

// foMachine is the per-machine mailbox set. A machine's per-peer
// state (fence markers, evicted sources) is its receiver's and lives
// on the meshMachine.
type foMachine struct {
	notify  chan foEvent
	sendCmd chan foSendCmd
	recvCmd chan foRecvCmd

	// Receiver-goroutine-owned state (no locks needed).
	repl   *cluster.BatchBuf // pending replication snapshot
	replN  int               // tokens accumulated in repl
	rowCur int               // rotating cursor into the machine's user list
}

// failoverRuntime is the shared state of one failover-enabled run: the
// ownership bitmaps, membership flags and mailboxes of every
// provisioned machine, plus the global death/recovery record. A nil
// receiver is valid everywhere and means "failover disabled" — the
// runners call straight through without guards on their hot paths
// beyond a nil check and, on the data planes, one atomic op per token.
type failoverRuntime struct {
	M, W, K, n int // M counts every provisioned slot, spares included
	activeN    int // initial member count (ranks < activeN start active)

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

	epoch  atomic.Uint64 // membership epoch, bumped at each round start
	paused atomic.Bool   // replication paused during reconfiguration

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

	drainTarget atomic.Int64 // rank mid-drain, -1 otherwise

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
		M: M, W: W, K: cfg.K, n: n,
		activeN:     cfg.Machines,
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
	fo.drainTarget.Store(-1)
	fo.lastVictim.Store(-1)
	fo.lastJoined.Store(-1)
	for i := 0; i < M; i++ {
		fo.m[i] = &foMachine{
			notify:  make(chan foEvent, 4*M+16),
			sendCmd: make(chan foSendCmd, 4),
			recvCmd: make(chan foRecvCmd, 8),
			repl:    cluster.NewBatchBuf(),
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

// activeCount is the current working-set size.
func (fo *failoverRuntime) activeCount() int {
	nAct := 0
	for r := 0; r < fo.M; r++ {
		if fo.selectable(r) {
			nAct++
		}
	}
	return nAct
}

// buddyOf returns i's ring successor among the selectable machines, or
// -1. The buddy is the replication target, the evict-regeneration site
// and the drain hand-off destination.
func (fo *failoverRuntime) buddyOf(i int) int {
	for d := 1; d < fo.M; d++ {
		if c := (i + d) % fo.M; fo.selectable(c) {
			return c
		}
	}
	return -1
}

// arbiter is the reconfiguration coordinator: the lowest rank still in
// the cluster. Recomputed on demand, which is what makes succession
// work — when the arbiter dies, every survivor's next send lands at
// the same successor.
func (fo *failoverRuntime) arbiter() int {
	for r := 0; r < fo.M; r++ {
		if !fo.gone(r) {
			return r
		}
	}
	return 0
}

// drainingMachine reports whether machine i is the current drain
// leaver; its workers flush forward instead of training.
func (fo *failoverRuntime) drainingMachine(i int) bool {
	return fo != nil && fo.drainTarget.Load() == int64(i)
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
	fo.noteDeath(rank, cause)
	select {
	case fo.m[self].notify <- foEvent{kind: evDetect, victim: rank, cause: cause}:
	default: // mailbox full: detection is idempotent, another observer's event is queued
	}
}

// noteDeath records a machine death exactly once: the global dead flag
// (the in-process failure detector every picker consults), the
// detection timestamp and the PeerDown event. The victim's parked
// threads wake to wind down, and every agent re-checks its fence,
// which no longer waits for the victim's marker.
func (fo *failoverRuntime) noteDeath(rank int, cause string) {
	if !fo.dead[rank].CompareAndSwap(false, true) {
		return
	}
	fo.mcs[rank].wake()
	for i := range fo.m {
		fo.wakeAgent(i)
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
	return fo.enqueueArbiter(foEvent{kind: evJoin, victim: rank})
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
	pending := 0
	for r := 0; r < fo.M; r++ {
		if fo.drainReq[r] {
			pending++
		}
	}
	if fo.activeCount()-pending-1 < 2 {
		fo.elasticMu.Unlock()
		return fmt.Errorf("core: draining rank %d would leave fewer than 2 machines", rank)
	}
	fo.drainReq[rank] = true
	fo.elasticMu.Unlock()
	fo.resizeStart[rank].Store(time.Now().UnixNano())
	return fo.enqueueArbiter(foEvent{kind: evDrain, victim: rank})
}

// enqueueArbiter delivers a membership request to the current
// arbiter's agent, blocking until accepted or the run stops.
func (fo *failoverRuntime) enqueueArbiter(ev foEvent) error {
	select {
	case fo.m[fo.arbiter()].notify <- ev:
		return nil
	case <-fo.stopping:
		return fmt.Errorf("core: run stopped before the membership change was accepted")
	}
}

// noteResized emits the resize event for a committed membership change
// of rank, timed from start, the nanos of that rank's own request
// (taken from resizeStart).
func (fo *failoverRuntime) noteResized(kind string, rank int, start int64) {
	secs := 0.0
	if start > 0 {
		secs = time.Duration(time.Now().UnixNano() - start).Seconds()
	}
	fo.hooks.Emit(train.ResizeEvent{Kind: kind, Rank: rank, Machines: fo.activeCount(), Seconds: secs})
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
func (fo *failoverRuntime) sendCmds(i int) chan foSendCmd {
	if fo == nil {
		return nil
	}
	return fo.m[i].sendCmd
}

// recvCmds returns machine i's receiver mailbox (nil without failover).
func (fo *failoverRuntime) recvCmds(i int) chan foRecvCmd {
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

// wakeAgent wakes machine i's agent to re-check its fence: its receiver
// has filed a peer's marker, or a peer has left. When the mailbox is
// full the agent has inputs queued, and it checks its fence after
// each. Without failover nothing waits for a fence marker, and one
// from a peer is ignored.
func (fo *failoverRuntime) wakeAgent(i int) {
	if fo == nil {
		return
	}
	select {
	case fo.m[i].notify <- foEvent{kind: evRecheck}:
	default:
	}
}

// afterDeliver streams a delivered batch to the ring buddy's replica.
func (fo *failoverRuntime) afterDeliver(i int, toks []cluster.Token, link cluster.Link) {
	m := fo.m[i]
	for x := range toks {
		m.repl.Add(toks[x].Item, toks[x].Vec)
	}
	m.replN += len(toks)
	if m.replN < replEveryTokens || fo.paused.Load() || fo.isStopping() {
		return
	}
	fo.flushReplication(i, link)
}

// flushReplication streams the pending delta snapshot — delivered
// tokens plus a rotating chunk of user-factor rows — to the machine's
// ring buddy, sealed under the current membership epoch. Replication
// is lossy-tolerant: a failed or dropped frame only widens the window
// of updates lost if this machine dies.
func (fo *failoverRuntime) flushReplication(i int, link cluster.Link) {
	m := fo.m[i]
	buddy := fo.buddyOf(i)
	if buddy < 0 {
		m.repl.Reset()
		m.replN = 0
		return
	}
	ep := fo.epoch.Load()
	payload, err := netlink.AppendTokenBatch(foAppend(nil, ep, i, nil), m.repl.Batch(0), fo.K)
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
	rows := foAppend(make([]byte, 0, foHeader+4+len(chunk)*(4+8*fo.K)), ep, i, nil)
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
// machine from to the matching worker of machine to, and republishes.
func (fo *failoverRuntime) respMove(from, to int) {
	fo.respMu.Lock()
	defer fo.respMu.Unlock()
	t := *fo.resp.Load()
	nt := make([]int32, len(t))
	copy(nt, t)
	for s, o := range nt {
		if int(o)/fo.W == from {
			nt[s] = int32(to*fo.W + s%fo.W)
		}
	}
	fo.resp.Store(&nt)
	fo.respGen.Add(1)
}

// respActivate returns a joining spare's own shards to it: identity
// for shards J·W..(J+1)·W-1, ending their fostering.
func (fo *failoverRuntime) respActivate(J int) {
	fo.respMu.Lock()
	defer fo.respMu.Unlock()
	t := *fo.resp.Load()
	nt := make([]int32, len(t))
	copy(nt, t)
	for s := J * fo.W; s < (J+1)*fo.W; s++ {
		nt[s] = int32(s)
	}
	fo.resp.Store(&nt)
	fo.respGen.Add(1)
}

// ---- goroutine command execution ----

// handleRecvCmd executes an agent command on machine mc's receiver
// goroutine. An injection is delivered like an inbound batch, with the
// same ownership bits, row writes and visit planning.
func (fo *failoverRuntime) handleRecvCmd(mc *meshMachine, cmd foRecvCmd, r *rng.Source) {
	switch cmd.kind {
	case recvMarkDead:
		mc.dropFrom[cmd.victim] = true
	case recvSnapshot:
		bm := make([]uint64, len(fo.owned[mc.id]))
		for w := range bm {
			bm[w] = fo.owned[mc.id][w].Load()
		}
		cmd.reply <- bm
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
// still in the cluster, notify the local agent, and park until resume —
// this machine's share of token circulation pauses, which is what lets
// the snapshot see a quiescent network. drainAll is the runner's
// flush-forward: stream every token still on this machine to dest.
func (fo *failoverRuntime) runSenderCmd(i int, cmd foSendCmd, s *cluster.Sender, link cluster.Link, pick func() int, drainAll func(dest int)) {
	switch cmd.kind {
	case sendEvict:
		s.Redirect(cmd.victim, pick)
	case sendPark:
		// Nothing to redirect: just flush and park.
	case sendDrain:
		if dest := fo.buddyOf(i); dest >= 0 {
			drainAll(dest)
		}
	default:
		return // stray resume from an abandoned protocol
	}
	s.FlushAll() //nolint:errcheck // a real failure surfaces via link.Err
	sendMarkers(link, cmd.ep, func(p int) bool { return !fo.gone(p) })
	select {
	case fo.m[i].notify <- foEvent{kind: evFenced}:
	case <-fo.stopping:
		return
	}
	for {
		select {
		case c := <-fo.m[i].sendCmd:
			if c.kind == sendResume {
				return
			}
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

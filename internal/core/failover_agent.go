package core

// The per-machine protocol agent: one goroutine per provisioned rank,
// driven by its ctl channel, its notify mailbox and one fence-timeout
// timer, running the evict/join/drain round state machine described in
// failover.go.

import (
	"fmt"
	"math/bits"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/netlink"
	"nomad/internal/partition"
)

// startAgents launches one protocol agent per provisioned machine;
// latent spares participate fully (they fence like members, and their
// reports are empty bitmaps).
func (fo *failoverRuntime) startAgents() {
	if fo == nil {
		return
	}
	for _, mc := range fo.mcs {
		fo.agentWG.Add(1)
		go fo.runAgent(mc)
	}
}

// foAgent is one machine's protocol state machine. All fields are
// agent-goroutine-owned.
type foAgent struct {
	fo   *failoverRuntime
	i    int
	mc   *meshMachine // its receiver holds the peers' fence markers
	link cluster.Link

	phase      int
	round      int
	subject    int    // the rank this round is about (victim/joiner/leaver)
	roundEpoch uint64 // the epoch the current round was sealed under

	senderAcked  bool
	drainCmdSent bool
	regenSent    bool
	fence        *time.Timer // the round's fence timeout, running only while fencing

	suspected map[int]bool
	done      map[int]bool
	pending   []foEvent // faults/requests arriving mid-round, replayed after resume

	reports    map[int][]uint64 // arbiter: rank → ownership bitmap
	lastReport []uint64         // own last snapshot, resent on arbiter succession
	replicas   map[int]*replicaStore
}

func (fo *failoverRuntime) runAgent(mc *meshMachine) {
	defer fo.agentWG.Done()
	i := mc.id
	a := &foAgent{
		fo: fo, i: i, mc: mc, link: fo.links[i],
		subject:   -1,
		fence:     time.NewTimer(foFenceTimeout),
		suspected: map[int]bool{},
		done:      map[int]bool{},
		reports:   map[int][]uint64{},
		replicas:  map[int]*replicaStore{},
	}
	a.fence.Stop()
	defer a.fence.Stop()
	notify := fo.m[i].notify
	ctl := a.link.Ctl()
	for {
		select {
		case ev := <-notify:
			a.handleEvent(ev)
		case ct, ok := <-ctl:
			if !ok {
				return
			}
			a.handleCtl(ct)
		case <-a.fence.C:
			fo.fail(fmt.Errorf("core: failover fence timed out after %v on machine %d", foFenceTimeout, a.i))
		case <-fo.stopping:
			// Abandon the protocol but keep the ctl channel draining: a
			// blocked channel would wedge the transport (the link's
			// readers block on it) and deadlock the teardown this
			// shutdown is part of.
			for range ctl { //nolint:revive // drain until closed
			}
			return
		}
		// Each input may be one the fence waits for: the sender's ack, a
		// peer's marker, a peer leaving.
		a.checkFences()
		if a.phase != foFencing {
			a.fence.Stop()
		}
	}
}

// beginRound enters a reconfiguration round: senders will park, the
// fence timeout is armed, replication pauses.
func (a *foAgent) beginRound(round, subject int, ep uint64) {
	a.round, a.subject = round, subject
	a.phase = foFencing
	a.fence.Reset(foFenceTimeout)
	a.senderAcked = false
	a.drainCmdSent = false
	a.regenSent = false
	a.roundEpoch = ep
	a.reports = map[int][]uint64{}
	a.lastReport = nil
	a.fo.paused.Store(true)
}

// queuePending defers an event that cannot start while a round is in
// flight; replayed in order after resume.
func (a *foAgent) queuePending(ev foEvent) {
	for _, p := range a.pending {
		if p.kind == ev.kind && p.victim == ev.victim {
			return
		}
	}
	a.pending = append(a.pending, ev)
}

func (a *foAgent) handleEvent(ev foEvent) {
	fo := a.fo
	if fo.gone(a.i) {
		return
	}
	switch ev.kind {
	case evDetect:
		v := ev.victim
		if a.done[v] {
			return
		}
		if a.phase != foIdle {
			if a.round == roundEvict && v == a.subject {
				return
			}
			a.queuePending(ev)
			a.resendRoundState()
			return
		}
		if a.suspected[v] {
			return
		}
		a.suspected[v] = true
		if arb := fo.arbiter(); arb == a.i {
			a.onSuspect(v)
		} else {
			a.link.SendCtl(arb, ctlFoSuspect, foAppend(nil, fo.epoch.Load(), v, nil)) //nolint:errcheck // loss → fence timeout → typed abort
		}
	case evFenced:
		if a.phase != foFencing {
			return
		}
		// The sender is parked, and its fence markers are behind its
		// last tokens.
		a.senderAcked = true
	case evJoin, evDrain:
		if ev.ep != 0 {
			// Re-queued broadcast: re-enter the round under its
			// original epoch, do not re-initiate.
			if ev.kind == evJoin {
				a.onJoinStart(ev.victim, ev.ep)
			} else {
				a.onDrainStart(ev.victim, ev.ep)
			}
			return
		}
		if a.phase != foIdle {
			a.queuePending(ev)
			return
		}
		ep := fo.epoch.Add(1)
		kind := uint8(ctlFoJoin)
		if ev.kind == evDrain {
			kind = ctlFoDrain
		}
		a.link.SendCtl(-1, kind, foAppend(nil, ep, ev.victim, nil)) //nolint:errcheck
		if ev.kind == evJoin {
			a.onJoinStart(ev.victim, ep)
		} else {
			a.onDrainStart(ev.victim, ep)
		}
	}
}

// resendRoundState re-aims round artifacts at the recomputed arbiter:
// when the arbiter dies mid-round, the successor needs the reports
// (and the buddy's regen-done) the dead arbiter may have taken with
// it. Idempotent — receivers treat duplicates as map overwrites.
func (a *foAgent) resendRoundState() {
	if a.phase != foAwaitResume {
		return
	}
	fo := a.fo
	arb := fo.arbiter()
	if a.lastReport != nil {
		if arb == a.i {
			a.onReport(a.i, a.lastReport)
		} else {
			a.link.SendCtl(arb, ctlFoReport, foAppend(nil, a.roundEpoch, a.subject, a.lastReport)) //nolint:errcheck
		}
	}
	if a.regenSent && arb != a.i {
		a.link.SendCtl(arb, ctlFoRegenDone, foAppend(nil, a.roundEpoch, a.subject, nil)) //nolint:errcheck
	}
}

func (a *foAgent) handleCtl(ct cluster.Ctl) {
	fo := a.fo
	f, ok := foDecode(ct.Kind, ct.Payload, fo.n, fo.M)
	if !ok {
		return
	}
	if fo.gone(a.i) {
		// A dead machine drains and ignores; a drained (parted) machine
		// still honours its own round's resume so its parked sender can
		// unpark and close before teardown.
		if ct.Kind == ctlFoResume && f.subject == a.i {
			a.onResume(f.subject)
		}
		return
	}
	if ct.From >= 0 && ct.From < fo.M && fo.gone(ct.From) && ct.Kind != ctlFoResume {
		return // stale frame from a member that already left
	}
	if f.epoch < fo.epoch.Load() && ct.Kind != ctlFoSuspect && ct.Kind != ctlFoResume {
		return // a finished round's frame
	}
	switch ct.Kind {
	case ctlFoSuspect:
		if a.i == fo.arbiter() {
			a.onSuspect(f.subject)
		}
	case ctlFoEvict:
		a.onEvict(f.subject, "evicted by arbiter", f.epoch)
	case ctlFoJoin:
		a.onJoinStart(f.subject, f.epoch)
	case ctlFoDrain:
		a.onDrainStart(f.subject, f.epoch)
	case ctlFoReport:
		a.onReport(ct.From, f.bm)
	case ctlFoRemap:
		if f.subject == a.subject && a.phase != foIdle {
			a.onRemap(f.bm)
		}
	case ctlFoRegenDone:
		if a.i == fo.arbiter() {
			a.onRegenDone()
		}
	case ctlFoResume:
		a.onResume(f.subject)
	case ctlFoReplToks:
		if b, err := netlink.DecodeTokenBatch(f.body, fo.K); err == nil {
			rs := a.replica(ct.From)
			for _, t := range b.Tokens {
				rs.items[t.Item] = t.Vec // freshly allocated by the decode
			}
		}
	case ctlFoReplRows:
		a.storeReplRows(ct.From, f.body) //nolint:errcheck // lossy-tolerant plane
	}
}

// onSuspect (arbiter only): start an eviction round — bump the epoch,
// broadcast, enter locally.
func (a *foAgent) onSuspect(v int) {
	fo := a.fo
	if a.done[v] {
		return
	}
	if a.phase != foIdle {
		if !(a.round == roundEvict && v == a.subject) {
			a.queuePending(foEvent{kind: evDetect, victim: v, cause: "suspected by peer"})
		}
		return
	}
	a.suspected[v] = true
	ep := fo.epoch.Add(1)
	a.link.SendCtl(-1, ctlFoEvict, foAppend(nil, ep, v, nil)) //nolint:errcheck // dead peers are skipped/harmless
	a.onEvict(v, "evicted by arbiter", ep)
}

// onEvict starts this machine's part of an eviction round: receiver
// stops accepting the victim, sender redirects + parks, fencing begins.
func (a *foAgent) onEvict(v int, cause string, ep uint64) {
	fo := a.fo
	if a.done[v] || v < 0 || v >= fo.M {
		return
	}
	fo.noteDeath(v, cause) // machines that never detected locally learn here
	if a.phase != foIdle {
		if a.round == roundEvict && v == a.subject {
			return
		}
		a.queuePending(foEvent{kind: evDetect, victim: v, cause: cause})
		return
	}
	a.suspected[v] = true
	a.beginRound(roundEvict, v, ep)
	if !a.sendRecvCmd(foRecvCmd{kind: recvMarkDead, victim: v}) {
		return
	}
	a.sendSendCmd(foSendCmd{kind: sendEvict, victim: v, ep: ep})
}

// onJoinStart enters a scale-out round: every sender (the joiner's
// latent one included) flushes and parks so the cluster can account
// for its tokens before the working set grows.
func (a *foAgent) onJoinStart(v int, ep uint64) {
	fo := a.fo
	if v < 0 || v >= fo.M || fo.active[v].Load() || fo.gone(v) {
		return
	}
	if a.phase != foIdle {
		a.queuePending(foEvent{kind: evJoin, victim: v, ep: ep})
		return
	}
	a.beginRound(roundJoin, v, ep)
	a.sendSendCmd(foSendCmd{kind: sendPark, ep: ep})
}

// onDrainStart enters a scale-in round. The leaver does not park: its
// workers switch to flush-forward (drainTarget), and once every peer's
// fence is satisfied its sender streams the remaining tokens to the
// ring buddy (sendDrain, issued by checkFences).
func (a *foAgent) onDrainStart(v int, ep uint64) {
	fo := a.fo
	if v < 0 || v >= fo.M || fo.gone(v) || !fo.active[v].Load() {
		return
	}
	if a.phase != foIdle {
		a.queuePending(foEvent{kind: evDrain, victim: v, ep: ep})
		return
	}
	a.beginRound(roundDrain, v, ep)
	if a.i == v {
		fo.drainTarget.Store(int64(v))
		a.mc.wake() // parked workers switch to flush-forward
	} else {
		a.sendSendCmd(foSendCmd{kind: sendPark, ep: ep})
	}
}

// checkFences advances from fencing to reporting once the network is
// quiescent from this machine's point of view: its own sender is
// parked, and the receiver has read every present peer's fence marker
// for this round (nothing in flight toward us).
// The drain leaver additionally orders its own flush-forward after all
// inbound has landed, so no token can arrive behind its back.
func (a *foAgent) checkFences() {
	fo := a.fo
	if a.phase != foFencing {
		return
	}
	peersOK := true
	for p := 0; p < fo.M; p++ {
		if p != a.i && !fo.gone(p) && a.mc.fenced[p].Load() < a.roundEpoch {
			peersOK = false
			break
		}
	}
	if a.round == roundDrain && a.subject == a.i && peersOK && !a.drainCmdSent {
		a.drainCmdSent = true
		a.sendSendCmd(foSendCmd{kind: sendDrain, victim: a.subject, ep: a.roundEpoch})
	}
	if !(a.senderAcked && peersOK) {
		return
	}
	// Quiesced: the ownership bitmap is stable. Snapshot it through the
	// receiver (FIFO after markDead) and report to the arbiter.
	reply := make(chan []uint64, 1)
	if !a.sendRecvCmd(foRecvCmd{kind: recvSnapshot, reply: reply}) {
		return
	}
	var bm []uint64
	select {
	case bm = <-reply:
	case <-fo.stopping:
		return
	}
	a.phase = foAwaitResume
	a.lastReport = bm
	if arb := fo.arbiter(); arb == a.i {
		a.onReport(a.i, bm)
	} else {
		a.link.SendCtl(arb, ctlFoReport, foAppend(nil, a.roundEpoch, a.subject, bm)) //nolint:errcheck
	}
}

// onReport (arbiter or successor): once every present machine has
// reported, union the bitmaps — a duplicate is a conservation
// violation — and commit the round.
func (a *foAgent) onReport(from int, bm []uint64) {
	fo := a.fo
	if a.phase == foIdle {
		return // stale report from a finished round
	}
	a.reports[from] = bm
	need, got := 0, 0
	for r := 0; r < fo.M; r++ {
		if fo.gone(r) {
			continue
		}
		need++
		if a.reports[r] != nil {
			got++
		}
	}
	if got < need {
		return
	}
	// missing starts as every item, and each report takes its owned
	// items out.
	missing := make([]uint64, (fo.n+63)/64)
	for j := 0; j < fo.n; j++ {
		missing[j>>6] |= 1 << uint(j&63)
	}
	held := 0
	for r := 0; r < fo.M; r++ {
		if fo.gone(r) || a.reports[r] == nil {
			continue
		}
		for w, x := range a.reports[r] {
			if missing[w]&x != x {
				fo.fail(fmt.Errorf("core: failover conservation broken: an item token is owned by two machines"))
				return
			}
			missing[w] &^= x
			held += bits.OnesCount64(x)
		}
	}
	switch a.round {
	case roundEvict:
		// missing may also include tokens of a machine that died
		// mid-round: they are regenerated here, and that machine's own
		// queued round then finds a complete union.
		buddy := fo.buddyOf(a.subject)
		if buddy < 0 {
			fo.fail(fmt.Errorf("core: no live buddy for dead machine %d", a.subject))
			return
		}
		if buddy == a.i {
			a.onRemap(missing)
		} else {
			a.link.SendCtl(buddy, ctlFoRemap, foAppend(nil, a.roundEpoch, a.subject, missing)) //nolint:errcheck
		}
	case roundJoin, roundDrain:
		if held < fo.n && fo.deaths.Load() == fo.evictDone.Load() {
			fo.fail(fmt.Errorf("core: %d item tokens missing after a resize with no unrecovered failure", fo.n-held))
			return
		}
		// Any missing tokens belong to a mid-round death; its queued
		// eviction round regenerates them.
		if a.round == roundJoin {
			a.finishJoin()
		} else {
			a.finishDrain()
		}
	}
}

// finishJoin (arbiter): activate the spare and publish per-donor token
// quotas carved off each member proportional to its reported load; the
// donors' senders rebalance over the data plane after resume.
func (a *foAgent) finishJoin() {
	fo := a.fo
	J := a.subject
	// Taken before J becomes a member that a drain may name.
	start := fo.resizeStart[J].Swap(0)
	var donors []int
	var counts []int64
	for r := 0; r < fo.M; r++ {
		if r == J || !fo.selectable(r) {
			continue
		}
		c := int64(0)
		if rep := a.reports[r]; rep != nil {
			for _, w := range rep {
				c += int64(bits.OnesCount64(w))
			}
		}
		donors = append(donors, r)
		counts = append(counts, c)
	}
	quota := partition.CarveShare(counts)
	for x, r := range donors {
		fo.donate[r].Store(quota[x])
	}
	fo.donateTo.Store(int64(J))
	fo.active[J].Store(true)
	fo.lastJoined.Store(int64(J))
	fo.respActivate(J)
	fo.noteResized("join", J, start)
	a.link.SendCtl(-1, ctlFoResume, foAppend(nil, a.roundEpoch, J, nil)) //nolint:errcheck
	a.onResume(J)
}

// finishDrain (arbiter): the leaver's tokens have all streamed to its
// buddy; re-home its rating shards, retire the rank and resume. The
// parted flag is set before the resume broadcast so no unparked sender
// can pick the leaver again.
func (a *foAgent) finishDrain() {
	fo := a.fo
	D := a.subject
	if buddy := fo.buddyOf(D); buddy >= 0 {
		fo.respMove(D, buddy)
	}
	fo.parted[D].Store(true)
	fo.active[D].Store(false)
	fo.drainTarget.Store(-1)
	fo.mcs[D].wake() // the leaver's parked workers exit
	fo.noteResized("drain", D, fo.resizeStart[D].Swap(0))
	a.link.SendCtl(-1, ctlFoResume, foAppend(nil, a.roundEpoch, D, nil)) //nolint:errcheck
	a.onResume(D)
}

// onRemap (buddy only): regenerate the missing tokens, a bitmap over
// the items — replica first, model row (hⱼ's home, so the victim's last
// completed update) as fallback — install the victim's replicated user
// rows, take over its rating shards, report regeneration done.
func (a *foAgent) onRemap(missing []uint64) {
	fo := a.fo
	rs := a.replicas[a.subject]
	var toks []cluster.Token
	for j := range fo.n {
		if missing[j>>6]&(1<<uint(j&63)) == 0 {
			continue
		}
		var vec []float64
		if rs != nil {
			if rv, ok := rs.items[int32(j)]; ok {
				vec = make([]float64, len(rv))
				copy(vec, rv)
			}
		}
		if vec == nil {
			vec = make([]float64, fo.K)
			fo.md.CopyItemRowTo64(j, vec)
		}
		toks = append(toks, cluster.Token{Item: int32(j), Vec: vec})
	}
	if rs != nil {
		// The victim's workers are dead and its shards not yet moved:
		// nobody else writes these rows, so the install is race-free.
		for u, row := range rs.users {
			fo.md.SetUserRowFrom64(int(u), row)
		}
	}
	if len(toks) > 0 {
		if !a.sendRecvCmd(foRecvCmd{kind: recvInject, toks: toks}) {
			return
		}
	}
	// Re-home the victim's rating shards (its own and any it was
	// fostering): buddy worker w takes over the matching worker-w
	// shard. The generation bump is the workers' rebuild signal.
	fo.respMove(a.subject, a.i)
	a.regenSent = true
	if arb := fo.arbiter(); arb == a.i {
		a.onRegenDone()
	} else {
		a.link.SendCtl(arb, ctlFoRegenDone, foAppend(nil, a.roundEpoch, a.subject, nil)) //nolint:errcheck
	}
}

// onRegenDone (arbiter only): the cluster state is whole again —
// record the recovery and broadcast resume.
func (a *foAgent) onRegenDone() {
	if a.phase == foIdle || a.round != roundEvict {
		return
	}
	a.fo.noteRecovered(a.subject)
	a.link.SendCtl(-1, ctlFoResume, foAppend(nil, a.roundEpoch, a.subject, nil)) //nolint:errcheck
	a.onResume(a.subject)
}

// onResume ends the current round: unpark the local sender, re-enable
// replication, replay any deferred faults/requests.
func (a *foAgent) onResume(v int) {
	if a.phase == foIdle || v != a.subject {
		return
	}
	if a.round == roundEvict {
		a.done[v] = true
	}
	a.phase, a.round, a.subject = foIdle, roundNone, -1
	a.fo.paused.Store(false)
	a.sendSendCmd(foSendCmd{kind: sendResume})
	for a.phase == foIdle && len(a.pending) > 0 {
		ev := a.pending[0]
		a.pending = a.pending[1:]
		a.handleEvent(ev)
	}
}

func (a *foAgent) sendRecvCmd(cmd foRecvCmd) bool {
	select {
	case a.fo.m[a.i].recvCmd <- cmd:
		return true
	case <-a.fo.stopping:
		return false
	}
}

// sendSendCmd hands the sender a command and wakes it from its port.
func (a *foAgent) sendSendCmd(cmd foSendCmd) bool {
	select {
	case a.fo.m[a.i].sendCmd <- cmd:
		a.mc.mesh.Wake(a.mc.port())
		return true
	case <-a.fo.stopping:
		return false
	}
}

func (a *foAgent) replica(from int) *replicaStore {
	rs := a.replicas[from]
	if rs == nil {
		rs = &replicaStore{items: map[int32][]float64{}, users: map[int32][]float64{}}
		a.replicas[from] = rs
	}
	return rs
}

// storeReplRows decodes a ctlFoReplRows chunk into the sender's
// replica. A malformed chunk stores nothing; like any lost replication
// frame it only widens the window of updates a death would lose.
func (a *foAgent) storeReplRows(from int, payload []byte) error {
	return decodeUserRows(payload, a.fo.md.M, a.fo.K, func(u int, row []float64) {
		rs := a.replica(from)
		rs.users[int32(u)] = append(rs.users[int32(u)][:0], row...)
	})
}

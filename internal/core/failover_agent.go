package core

// The per-machine protocol agent, in two halves. step is the protocol:
// a pure function from the agent's view of the cluster and one input to
// the next view and the effects that input calls for. The shell
// (runAgent, apply) is everything else: it owns the ctl channel, the
// inbox the machine's receiver, sender and detector post to, the fence
// timer and the replicas, and it is the only writer of what other
// threads read. So every protocol decision can be checked by driving
// step alone (explore_test.go), and every shared write has one place.

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/netlink"
	"nomad/internal/partition"
)

// foMaxRanks bounds a failover run's provisioned machines: a view's
// rank sets are one word, and the low bits of a round's epoch name the
// arbiter that started it.
const foMaxRanks = 64

// rankSet is a set of ranks below foMaxRanks.
type rankSet uint64

func (s rankSet) has(r int) bool        { return s>>uint(r)&1 != 0 }
func (s rankSet) with(r int) rankSet    { return s | 1<<uint(r) }
func (s rankSet) without(r int) rankSet { return s &^ (1 << uint(r)) }

// foConf is a failover run's immutable configuration.
type foConf struct {
	M, W, K, n int // M counts every provisioned slot, spares included
	activeN    int // initial member count (ranks < activeN start active)
}

// Local input kinds. A ctl frame's input kind is its frame kind (16+).
const (
	inDetect   = uint8(iota + 1) // own link saw subject die (cause)
	inGone                       // the runtime recorded subject's death
	inFenced                     // own sender parked behind its markers for epoch
	inMarker                     // from's fence marker for epoch reached the receiver
	inJoin                       // activate spare subject (arbiter request)
	inDrain                      // retire member subject (arbiter request)
	inSnapshot                   // the receiver's ownership bitmap bm, for epoch
	inTimeout                    // the fence timer fired
)

// foInput is one input to step: a decoded failover ctl frame from peer
// from, or a local event, whose rank, epoch and bitmap ride in the
// frame fields.
type foInput struct {
	kind  uint8
	from  int
	cause string
	foFrame
}

// Effect kinds, applied by the shell in the order step emits them.
const (
	efFrame     = iota // ctl frame ctl to rank to (-1 = every peer)
	efSend             // sender command ctl (victim subject, markers for epoch)
	efRecv             // receiver command ctl (victim subject, epoch)
	efRegen            // regenerate items bm of victim subject and inject them
	efDeath            // publish subject's death (cause)
	efActivate         // publish joiner subject as a member, donation quota
	efPart             // publish leaver subject as parted, its shards to rank to
	efRespMove         // publish subject's shards as this machine's
	efDraining         // publish this machine's flush-forward flag (on)
	efPause            // publish this machine's replication pause (on)
	efRecovered        // emit subject's recovery
	efResized          // emit a resize of subject, kind cause, to members after
	efArm              // arm the fence timer
	efDisarm           // stop it
	efAbort            // fail the run with err
)

type foEffect struct {
	kind  int
	to    int
	ctl   uint8
	on    bool
	cause string
	quota []int64
	err   error
	foFrame
}

// Agent phases.
const (
	foIdle = iota
	foFencing
	foAwaitResume
)

// foView is one agent's view of the cluster and of its current round,
// whose kind (round) is the ctl kind that starts it. It is a value, and
// step copies a slice before writing into it, so a view is a snapshot.
type foView struct {
	foConf
	self int

	epoch                uint64 // the latest round entered; its frames are current
	dead, parted, active rankSet
	done                 rankSet // victims whose eviction round resumed

	phase, subject      int   // the subject stays after resume
	round               uint8 // the kind of the frame that started it
	acked, drainSent    bool
	regenSent, remapped bool

	resumed  foFrame // the last round that resumed here
	deferred foInput // a later arbiter's round start, held until this round ends

	marker     []uint64   // per rank: its latest fence marker epoch
	reports    [][]uint64 // per rank: its report this round (arbiter)
	lastReport []uint64   // own report, re-aimed at a new arbiter
	pending    []foInput  // membership requests awaiting a round
}

func (c foConf) newView(self int) foView {
	v := foView{foConf: c, self: self, subject: -1, marker: make([]uint64, c.M), reports: make([][]uint64, c.M)}
	for r := 0; r < c.activeN; r++ {
		v.active = v.active.with(r)
	}
	return v
}

func (v *foView) gone(r int) bool       { return (v.dead | v.parted).has(r) }
func (v *foView) selectable(r int) bool { return v.active.has(r) && !v.gone(r) }

// arbiter is the lowest rank still in the cluster, as this agent knows
// it. Views only learn true departures, so whoever starts a round was
// the arbiter when it did.
func (v *foView) arbiter() int {
	for r := 0; r < v.M; r++ {
		if !v.gone(r) {
			return r
		}
	}
	return 0
}

// buddyOf is i's ring successor among the selectable ranks, or -1.
func (v *foView) buddyOf(i int) int {
	for d := 1; d < v.M; d++ {
		if c := (i + d) % v.M; v.selectable(c) {
			return c
		}
	}
	return -1
}

func (v *foView) members() (n int) {
	for r := 0; r < v.M; r++ {
		if v.selectable(r) {
			n++
		}
	}
	return n
}

// roundFrame is the current (or last) round's frame header, with bm.
func (v *foView) roundFrame(bm []uint64) foFrame {
	return foFrame{epoch: v.epoch, subject: v.subject, bm: bm}
}

// foStep is one step in progress: the view it edits and the effects it
// has emitted.
type foStep struct {
	foView
	effs []foEffect
}

func (s *foStep) emit(e foEffect) { s.effs = append(s.effs, e) }

func (s *foStep) send(to int, kind uint8, f foFrame) {
	s.emit(foEffect{kind: efFrame, to: to, ctl: kind, foFrame: f})
}

func (s *foStep) command(kind, cmd, subject int) {
	s.emit(foEffect{kind: kind, ctl: uint8(cmd), foFrame: foFrame{epoch: s.epoch, subject: subject}})
}

// step applies one input to the view. It reads nothing but its
// arguments and touches no channel, clock or atomic.
func (v foView) step(in foInput) (foView, []foEffect) {
	if v.gone(v.self) {
		return v, nil // a parted leaver is out of the protocol
	}
	s := &foStep{foView: v}
	arb := s.arbiter()
	s.input(in)
	s.advance(arb)
	return s.foView, s.effs
}

func (s *foStep) input(in foInput) {
	if in.kind > ctlFoSuspect && s.phase != foIdle &&
		in.epoch > s.epoch && in.epoch%foMaxRanks == s.epoch%foMaxRanks {
		// A later round of this round's arbiter: it committed this one,
		// and its resume to us died with it.
		s.resume()
	}
	if in.kind > ctlFoSuspect && in.kind != ctlFoResume && in.epoch == s.resumed.epoch {
		// A round that ended here: its sender missed the resume.
		s.send(in.from, ctlFoResume, s.resumed)
	}
	current := s.phase != foIdle && in.epoch == s.epoch && in.subject == s.subject
	switch in.kind {
	case inDetect, ctlFoSuspect:
		s.learnDeath(in.subject, in.cause, in.kind == inDetect)
	case inGone:
		s.dead = s.dead.with(in.subject)
	case inFenced:
		s.acked = s.acked || s.phase == foFencing && in.epoch == s.epoch
	case inMarker:
		if in.epoch > s.marker[in.from] {
			s.marker = slices.Clone(s.marker)
			s.marker[in.from] = in.epoch
		}
	case inJoin, inDrain:
		s.pending = append(s.pending[:len(s.pending):len(s.pending)], in)
	case inSnapshot:
		if s.phase == foAwaitResume && in.epoch == s.epoch && s.lastReport == nil {
			s.lastReport = in.bm
			s.report()
		}
	case inTimeout:
		if s.phase == foFencing {
			s.emit(foEffect{kind: efAbort, err: fmt.Errorf("core: failover fence timed out on machine %d", s.self)})
		}
	case ctlFoEvict, ctlFoJoin, ctlFoDrain:
		s.start(in)
	case ctlFoReport:
		if current {
			s.setReport(in.from, in.bm)
		}
	case ctlFoRemap:
		if current && s.round == ctlFoEvict {
			s.remap(in.bm)
		}
	case ctlFoRegenDone:
		if current && s.round == ctlFoEvict && s.arbiter() == s.self {
			s.regenDone()
		}
	case ctlFoResume:
		if current {
			// Pass a commit on when the arbiter that made it may be
			// gone: as its successor, or as the leaver about to go.
			if s.arbiter() == s.self || s.round == ctlFoDrain && s.subject == s.self {
				s.send(-1, ctlFoResume, s.roundFrame(nil))
			}
			s.resume()
		}
	}
}

// learnDeath records subject's death; an observer tells the arbiter.
func (s *foStep) learnDeath(r int, cause string, observed bool) {
	if s.dead.has(r) {
		return
	}
	s.dead = s.dead.with(r)
	s.emit(foEffect{kind: efDeath, cause: cause, foFrame: foFrame{subject: r}})
	if arb := s.arbiter(); observed && arb != s.self {
		s.send(arb, ctlFoSuspect, foFrame{epoch: s.epoch, subject: r})
	}
}

// start handles a round start. A later epoch enters the round; while
// this agent's round is in flight it waits until that round resumes,
// or its arbiter is known dead — then the round is an orphan, dropped.
func (s *foStep) start(in foInput) {
	switch {
	case in.epoch > s.epoch && s.phase != foIdle && !s.dead.has(int(s.epoch%foMaxRanks)):
		s.deferred = in
	case in.epoch > s.epoch:
		if in.kind == ctlFoEvict {
			s.learnDeath(in.subject, "evicted by arbiter", false)
		}
		s.enter(in.kind, in.subject, in.epoch)
	}
}

// initiate starts a round as the arbiter, under an epoch above every
// one this agent has seen whose low bits name it, so no two arbiters
// ever share one.
func (s *foStep) initiate(kind uint8, subject int) {
	ep := (s.epoch/foMaxRanks+1)*foMaxRanks + uint64(s.self)
	s.send(-1, kind, foFrame{epoch: ep, subject: subject})
	s.enter(kind, subject, ep)
}

// enter begins this machine's part of a round: the receiver stops
// accepting an evicted victim, the sender redirects, flushes, fences
// and parks — except a drain's leaver, whose workers flush forward
// until fence streams its tokens out — and replication pauses.
func (s *foStep) enter(round uint8, subject int, ep uint64) {
	if s.phase != foIdle && s.round == ctlFoDrain && s.subject == s.self {
		s.emit(foEffect{kind: efDraining}) // an orphaned drain: train again
	}
	s.round, s.subject, s.epoch, s.phase = round, subject, ep, foFencing
	s.acked, s.drainSent, s.regenSent, s.remapped = false, false, false, false
	s.reports, s.lastReport = make([][]uint64, s.M), nil
	s.emit(foEffect{kind: efArm})
	s.emit(foEffect{kind: efPause, on: true})
	switch {
	case round == ctlFoEvict:
		s.command(efRecv, recvMarkDead, subject)
		s.command(efSend, sendEvict, subject)
	case round == ctlFoDrain && subject == s.self:
		s.emit(foEffect{kind: efDraining, on: true})
	default:
		s.command(efSend, sendPark, subject)
	}
}

// advance runs the checks every input may satisfy, in protocol order.
func (s *foStep) advance(arb int) {
	if s.gone(s.self) {
		return
	}
	if a := s.arbiter(); a != arb {
		s.succeed(a)
	}
	if d := s.deferred; d.kind != 0 && (s.phase == foIdle || s.dead.has(int(s.epoch%foMaxRanks))) {
		s.deferred = foInput{}
		s.start(d)
	}
	if s.phase == foFencing {
		s.fence()
	}
	if s.phase != foIdle && s.arbiter() == s.self {
		s.commit()
	}
	if s.phase == foIdle && s.arbiter() == s.self {
		s.dispatch()
	}
}

// succeed re-aims this agent's round at a new arbiter a. Every agent
// tells the successor (the successor tells everyone) which round last
// resumed here; then the successor re-announces its round for anyone
// the dead arbiter left behind, and the rest resend what it took with
// it.
func (s *foStep) succeed(a int) {
	to := a
	if a == s.self {
		to = -1
	}
	if s.resumed.epoch > 0 {
		s.send(to, ctlFoResume, s.resumed)
	}
	switch {
	case s.phase == foIdle:
	case a == s.self:
		s.send(-1, s.round, s.roundFrame(nil))
	case s.regenSent:
		s.send(a, ctlFoRegenDone, s.roundFrame(nil))
	}
	if s.phase != foIdle && s.lastReport != nil {
		s.report()
	}
}

// fence passes once every present peer's marker for this round has
// reached the receiver — nothing it sent here is still in flight — and
// the own sender has parked behind its markers. The leaver's stream
// waits only for the peers, so no token arrives behind its back.
func (s *foStep) fence() {
	for p := 0; p < s.M; p++ {
		if p != s.self && !s.gone(p) && s.marker[p] < s.epoch {
			return
		}
	}
	if s.round == ctlFoDrain && s.subject == s.self && !s.drainSent {
		s.drainSent = true
		s.command(efSend, sendDrain, s.subject)
	}
	if s.acked {
		s.phase = foAwaitResume
		s.emit(foEffect{kind: efDisarm})
		s.command(efRecv, recvSnapshot, s.subject) // FIFO behind markDead
	}
}

func (s *foStep) report() {
	if arb := s.arbiter(); arb != s.self {
		s.send(arb, ctlFoReport, s.roundFrame(s.lastReport))
	} else {
		s.setReport(s.self, s.lastReport)
	}
}

func (s *foStep) setReport(r int, bm []uint64) {
	s.reports = slices.Clone(s.reports)
	s.reports[r] = bm
}

// commit (arbiter): once every present machine has reported, union the
// bitmaps — a duplicate is a conservation violation — and commit.
func (s *foStep) commit() {
	if !s.remapped {
		missing := make([]uint64, (s.n+63)/64)
		for j := 0; j < s.n; j++ {
			missing[j>>6] |= 1 << uint(j&63)
		}
		held := 0
		for r := 0; r < s.M; r++ {
			if s.gone(r) {
				continue
			}
			if s.reports[r] == nil {
				return
			}
			for w, x := range s.reports[r] {
				if missing[w]&x != x {
					s.emit(foEffect{kind: efAbort, err: fmt.Errorf("core: failover conservation broken: an item token is owned by two machines")})
					return
				}
				missing[w] &^= x
				held += bits.OnesCount64(x)
			}
		}
		if s.round != ctlFoEvict {
			s.finishResize(held)
			return
		}
		// missing may include the tokens of a machine that died
		// mid-round: regenerated here, its own round finds them whole.
		buddy := s.buddyOf(s.subject)
		if buddy < 0 {
			s.emit(foEffect{kind: efAbort, err: fmt.Errorf("core: no live buddy for dead machine %d", s.subject)})
			return
		}
		s.remapped = true
		if buddy != s.self {
			s.send(buddy, ctlFoRemap, s.roundFrame(missing))
		} else {
			s.remap(missing)
		}
	}
	if s.regenSent {
		s.regenDone()
	}
}

// finishResize (arbiter) commits a join — the spare becomes a member,
// and each member owes it a CarveShare of its reported load, donated
// over the data plane after resume — or a drain, whose leaver's tokens
// have all streamed to its buddy: the buddy takes its rating shards and
// the rank is retired before any sender unparks.
func (s *foStep) finishResize(held int) {
	if held < s.n && s.dead&^s.done == 0 {
		// Missing tokens belong to a death this agent has yet to learn
		// of (the buddy of a killed leaver can snapshot before its last
		// batch lands); that death's own round regenerates them.
		return
	}
	r, kind := s.subject, "drain"
	e := foEffect{kind: efPart, to: s.buddyOf(r), foFrame: foFrame{subject: r}}
	if s.round == ctlFoJoin {
		var donors []int
		var counts []int64
		for d := 0; d < s.M; d++ {
			if d != r && s.selectable(d) {
				c := 0
				for _, x := range s.reports[d] {
					c += bits.OnesCount64(x)
				}
				donors, counts = append(donors, d), append(counts, int64(c))
			}
		}
		e.kind, e.quota, kind = efActivate, make([]int64, s.M), "join"
		for x, q := range partition.CarveShare(counts) {
			e.quota[donors[x]] = q
		}
		s.active = s.active.with(r)
	} else {
		s.parted, s.active = s.parted.with(r), s.active.without(r)
	}
	s.emit(foEffect{kind: efResized, to: s.members(), cause: kind, foFrame: foFrame{subject: r}})
	s.emit(e)
	s.send(-1, ctlFoResume, s.roundFrame(nil))
	s.resume()
}

// remap (buddy): regenerate the missing tokens, once per round, take
// over the victim's rating shards, and report regeneration done.
func (s *foStep) remap(missing []uint64) {
	if !s.regenSent {
		s.regenSent = true
		s.emit(foEffect{kind: efRegen, foFrame: s.roundFrame(missing)})
		s.emit(foEffect{kind: efRespMove, foFrame: foFrame{subject: s.subject}})
	}
	if arb := s.arbiter(); arb != s.self {
		s.send(arb, ctlFoRegenDone, s.roundFrame(nil))
	}
}

// regenDone (arbiter): the cluster is whole again — record the recovery
// and resume.
func (s *foStep) regenDone() {
	s.emit(foEffect{kind: efRecovered, foFrame: foFrame{subject: s.subject}})
	s.send(-1, ctlFoResume, s.roundFrame(nil))
	s.resume()
}

// resume ends the round: its membership change enters the view, the
// sender unparks and replication resumes.
func (s *foStep) resume() {
	switch s.round {
	case ctlFoEvict:
		s.done = s.done.with(s.subject)
	case ctlFoJoin:
		s.active = s.active.with(s.subject)
	case ctlFoDrain:
		s.parted, s.active = s.parted.with(s.subject), s.active.without(s.subject)
	}
	s.phase, s.round, s.resumed = foIdle, 0, s.roundFrame(nil)
	s.reports, s.lastReport = make([][]uint64, s.M), nil
	s.emit(foEffect{kind: efDisarm})
	s.command(efSend, sendResume, s.subject)
	s.emit(foEffect{kind: efPause})
}

// dispatch (idle arbiter) starts the next round: an unrecovered death
// first, then the oldest request still valid; stale requests drop.
func (s *foStep) dispatch() {
	for r := 0; r < s.M; r++ {
		if s.dead.has(r) && !s.done.has(r) {
			s.initiate(ctlFoEvict, r)
			return
		}
	}
	for len(s.pending) > 0 {
		in := s.pending[0]
		s.pending = s.pending[1:]
		switch r := in.subject; {
		case in.kind == inJoin && !s.active.has(r) && !s.gone(r):
			s.initiate(ctlFoJoin, r)
			return
		case in.kind == inDrain && s.selectable(r):
			s.initiate(ctlFoDrain, r)
			return
		}
	}
}

// ---- the shell ----

// startAgents launches one protocol agent per provisioned machine;
// latent spares participate fully (they fence like members, and their
// reports are empty bitmaps).
func (fo *failoverRuntime) startAgents() {
	if fo == nil {
		return
	}
	for i := range fo.m {
		fo.agentWG.Add(1)
		go fo.runAgent(i)
	}
}

// runAgent is machine i's shell: it feeds step its inbox, its decoded
// ctl frames and its fence timer, and applies the effects. Replication
// frames are data: they go to the replicas, not to step.
func (fo *failoverRuntime) runAgent(i int) {
	defer fo.agentWG.Done()
	m := fo.m[i]
	v := fo.newView(i)
	fence := time.NewTimer(foFenceTimeout)
	fence.Stop()
	defer fence.Stop()
	feed := func(in foInput) {
		if fo.dead[i].Load() {
			return // a crashed machine's agent is gone with it
		}
		var effs []foEffect
		v, effs = v.step(in)
		for _, e := range effs {
			fo.apply(i, e, fence)
		}
	}
	ctl := fo.links[i].Ctl()
	for {
		select {
		case <-m.wake:
			m.mu.Lock()
			ins := m.inbox
			m.inbox = nil
			m.mu.Unlock()
			for _, in := range ins {
				feed(in)
			}
		case ct, ok := <-ctl:
			if !ok {
				return
			}
			f, ok := foDecode(ct.Kind, ct.Payload, fo.n, fo.M)
			switch {
			case !ok:
			case ct.Kind == ctlFoReplToks:
				if b, err := netlink.DecodeTokenBatch(f.body, fo.K); err == nil {
					rs := m.replica(ct.From)
					for _, t := range b.Tokens {
						rs.items[t.Item] = t.Vec // freshly allocated by the decode
					}
				}
			case ct.Kind == ctlFoReplRows:
				m.storeReplRows(ct.From, f.body, fo.md.M, fo.K) //nolint:errcheck // lossy-tolerant plane
			default:
				feed(foInput{kind: ct.Kind, from: ct.From, foFrame: f})
			}
		case <-fence.C:
			feed(foInput{kind: inTimeout})
		case <-fo.stopping:
			// Abandon the protocol but keep the ctl channel draining: a
			// blocked channel would wedge the transport (the link's
			// readers block on it) and deadlock the teardown this
			// shutdown is part of.
			for range ctl { //nolint:revive // drain until closed
			}
			return
		}
	}
}

// apply carries out one effect of machine i's step. The commands block
// until their goroutine takes them, but neither goroutine ever waits on
// the agent — they post to its inbox — so no wait forms a cycle.
func (fo *failoverRuntime) apply(i int, e foEffect, fence *time.Timer) {
	m := fo.m[i]
	switch e.kind {
	case efFrame:
		fo.links[i].SendCtl(e.to, e.ctl, foAppend(nil, e.epoch, e.subject, e.bm)) //nolint:errcheck // loss → fence timeout or a successor's resend
	case efSend:
		select {
		case m.sendCmd <- foCmd{kind: int(e.ctl), victim: e.subject, ep: e.epoch}:
			fo.mcs[i].mesh.Wake(fo.mcs[i].port())
		case <-fo.stopping:
		}
	case efRecv:
		fo.recvCmd(i, foCmd{kind: int(e.ctl), victim: e.subject, ep: e.epoch})
	case efRegen:
		fo.regenerate(i, e.subject, e.bm)
	case efDeath:
		fo.noteDeath(e.subject, e.cause)
	case efActivate:
		for r, q := range e.quota {
			fo.donate[r].Store(q)
		}
		fo.donateTo.Store(int64(e.subject))
		fo.active[e.subject].Store(true)
		fo.lastJoined.Store(int64(e.subject))
		fo.respMove(-1, e.subject)
	case efPart:
		if e.to >= 0 {
			fo.respMove(e.subject, e.to)
		}
		fo.parted[e.subject].Store(true)
		fo.active[e.subject].Store(false)
		fo.mcs[e.subject].wake() // the leaver's parked workers exit
	case efRespMove:
		fo.respMove(e.subject, i)
	case efDraining:
		m.draining.Store(e.on)
		fo.mcs[i].wake() // parked workers switch to flush-forward, or back
	case efPause:
		m.paused.Store(e.on)
	case efRecovered:
		fo.noteRecovered(e.subject)
	case efResized:
		fo.noteResized(e.cause, e.subject, e.to)
	case efArm:
		fence.Reset(foFenceTimeout)
	case efDisarm:
		fence.Stop()
	case efAbort:
		fo.fail(e.err)
	}
}

// recvCmd hands machine i's receiver a command.
func (fo *failoverRuntime) recvCmd(i int, cmd foCmd) {
	select {
	case fo.m[i].recvCmd <- cmd:
	case <-fo.stopping:
	}
}

// regenerate (buddy i) rebuilds the missing tokens of victim, a bitmap
// over the items — replica first, model row (hⱼ's home, so the victim's
// last completed update) as fallback — installs the victim's replicated
// user rows and injects the tokens through the receiver.
func (fo *failoverRuntime) regenerate(i, victim int, missing []uint64) {
	rs := fo.m[i].replicas[victim]
	var toks []cluster.Token
	for j := range fo.n {
		if missing[j>>6]&(1<<uint(j&63)) == 0 {
			continue
		}
		var vec []float64
		if rs != nil {
			if rv, ok := rs.items[int32(j)]; ok {
				vec = append([]float64(nil), rv...)
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
		fo.recvCmd(i, foCmd{kind: recvInject, toks: toks})
	}
}

func (m *foMachine) replica(from int) *replicaStore {
	rs := m.replicas[from]
	if rs == nil {
		rs = &replicaStore{items: map[int32][]float64{}, users: map[int32][]float64{}}
		m.replicas[from] = rs
	}
	return rs
}

// storeReplRows decodes a ctlFoReplRows chunk of a model with users
// users and rank k into the sender's replica. A malformed chunk stores
// nothing; like any lost replication frame it only widens the window of
// updates a death would lose.
func (m *foMachine) storeReplRows(from int, payload []byte, users, k int) error {
	return decodeUserRows(payload, users, k, func(u int, row []float64) {
		rs := m.replica(from)
		rs.users[int32(u)] = append(rs.users[int32(u)][:0], row...)
	})
}

package cluster

// Chaos injection: a deterministic, seeded fault harness that wraps
// cluster links and perturbs machines at named protocol points — the
// failure half of the failover test matrix. The harness is driven by a
// ChaosSpec (parsed from the `-chaos=...` flag syntax) and a
// ChaosController shared by every endpoint of the run: the controller
// counts protocol events (data sends, replication snapshots,
// wall-clock delays) and fires each configured fault exactly
// once when its trigger point is reached.
//
// A spec is a *schedule*: one or more events separated by `;`, fired
// strictly in order. Each event waits for its own trigger, which for
// the relative form (`@+duration`) is measured from the moment the
// previous event fired (or from arming, for the first event):
//
//	kill:rank=2,at=mid-epoch              one fault, longhand
//	kill@mid-epoch;join@+2s;drain@+1s     a schedule, shorthand
//
// Faults:
//
//   - kill: the victim machine dies — the registered kill function
//     (installed by the training runner) stops its goroutines and
//     severs its connections, exactly like a crashed process.
//   - partition: the victim's outbound traffic (tokens and control
//     frames alike) stalls for a window, then heals. Heartbeats ride
//     the same connections, so a long window is indistinguishable
//     from a death and triggers failover; a short one only delays.
//   - delay: every victim send after the trigger is slowed by the
//     configured window — a persistent straggler link.
//   - drop: replication snapshot frames from the victim are dropped
//     with probability P (seeded, deterministic). Only the lossy-
//     tolerant replication plane may be dropped: dropping token
//     frames would silently break conservation rather than test it.
//   - join: a provisioned spare machine is activated mid-run (the
//     registered join function runs the elastic scale-out protocol).
//   - drain: a machine leaves gracefully mid-run (the registered
//     drain function runs the elastic scale-in protocol).
//
// A rank of -1 (shorthand events default to it) means "auto": the
// runner's registered callback resolves the subject deterministically
// from the live membership at fire time.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nomad/internal/rng"
)

// ChaosOp is the fault to inject.
type ChaosOp uint8

const (
	// OpKill stops the victim machine mid-run.
	OpKill ChaosOp = iota + 1
	// OpPartition stalls the victim's outbound traffic for Window.
	OpPartition
	// OpDelay slows every victim send by Window after the trigger.
	OpDelay
	// OpDrop drops victim replication snapshots with probability P.
	OpDrop
	// OpJoin activates a provisioned spare machine mid-run.
	OpJoin
	// OpDrain gracefully removes a machine mid-run.
	OpDrain
)

func (o ChaosOp) String() string {
	switch o {
	case OpKill:
		return "kill"
	case OpPartition:
		return "partition"
	case OpDelay:
		return "delay"
	case OpDrop:
		return "drop"
	case OpJoin:
		return "join"
	case OpDrain:
		return "drain"
	}
	return fmt.Sprintf("ChaosOp(%d)", uint8(o))
}

// ChaosPoint names the protocol point the fault triggers at.
type ChaosPoint uint8

const (
	// PointRendezvous triggers as soon as the cluster is armed, before
	// any token circulates — the victim dies on the starting line.
	PointRendezvous ChaosPoint = iota + 1
	// PointMidEpoch triggers on the victim's After-th outbound batch
	// that carries tokens, i.e. in the middle of asynchronous
	// circulation.
	PointMidEpoch
	// PointSnapshot triggers on the victim's After-th replication
	// snapshot send (the control kind registered by the runner).
	PointSnapshot
	// PointAfter triggers Delay after the previous event fired (or
	// after arming, for a schedule's first event) — the `@+duration`
	// shorthand.
	PointAfter
)

func (p ChaosPoint) String() string {
	switch p {
	case PointRendezvous:
		return "rendezvous"
	case PointMidEpoch:
		return "mid-epoch"
	case PointSnapshot:
		return "snapshot"
	case PointAfter:
		return "after-delay"
	}
	return fmt.Sprintf("ChaosPoint(%d)", uint8(p))
}

// ChaosSpec describes one injected fault, optionally chained to the
// next event of a schedule.
type ChaosSpec struct {
	Op   ChaosOp
	Rank int        // subject machine; -1 = resolved by the runner at fire time
	At   ChaosPoint // trigger point
	// After is how many occurrences of the trigger point happen before
	// the fault fires (default 1; mid-epoch defaults to 5 so some
	// circulation happens first).
	After int
	// P is the drop probability for OpDrop (default 0.5).
	P float64
	// Window is the stall duration for OpPartition / per-send delay
	// for OpDelay (default 50ms).
	Window time.Duration
	// Seed drives the deterministic drop decisions (default 1).
	Seed uint64
	// Delay is the PointAfter trigger offset, measured from the
	// previous event's firing (or from arming for the first event).
	Delay time.Duration
	// Next is the schedule's following event, nil at the end.
	Next *ChaosSpec
}

func (s *ChaosSpec) String() string {
	one := fmt.Sprintf("%s:rank=%d,at=%s,after=%d", s.Op, s.Rank, s.At, s.After)
	if s.Next != nil {
		return one + ";" + s.Next.String()
	}
	return one
}

// Events flattens the schedule chain into a slice, head first.
func (s *ChaosSpec) Events() []*ChaosSpec {
	var out []*ChaosSpec
	for ev := s; ev != nil; ev = ev.Next {
		out = append(out, ev)
	}
	return out
}

// normalize fills spec defaults in place (the whole chain).
func (s *ChaosSpec) normalize() {
	for ev := s; ev != nil; ev = ev.Next {
		if ev.After <= 0 {
			if ev.At == PointMidEpoch {
				ev.After = 5
			} else {
				ev.After = 1
			}
		}
		if !(ev.P > 0 && ev.P <= 1) {
			ev.P = 0.5
		}
		if ev.Window <= 0 {
			ev.Window = 50 * time.Millisecond
		}
		if ev.Seed == 0 {
			ev.Seed = 1
		}
		if ev.At == PointAfter && ev.Delay <= 0 {
			ev.Delay = time.Second
		}
	}
}

// ParseChaos parses the -chaos flag syntax: one or more events
// separated by `;`, fired in order. Each event is either longhand
//
//	op:key=value,key=value,...
//
// e.g. "kill:rank=2,at=mid-epoch", "drop:rank=1,at=snapshot,p=0.5",
// "partition:rank=2,at=mid-epoch,window=100ms" — keys: rank (subject
// machine; required for kill/partition/delay/drop, -1 = auto for
// join/drain), at (trigger point, required unless delay is given),
// after (trigger occurrence count), p (drop probability in (0, 1]),
// window (duration), delay (positive; fires this long after the
// previous event; sets at=after-delay), seed — or shorthand
//
//	op@point        e.g. kill@mid-epoch   (rank auto-resolved)
//	op@+duration    e.g. join@+2s         (relative-time trigger)
func ParseChaos(s string) (*ChaosSpec, error) {
	if s == "" {
		return nil, nil
	}
	var head, tail *ChaosSpec
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("cluster: chaos schedule %q: empty event", s)
		}
		ev, err := parseChaosEvent(part)
		if err != nil {
			return nil, err
		}
		if head == nil {
			head = ev
		} else {
			tail.Next = ev
		}
		tail = ev
	}
	head.normalize()
	return head, nil
}

func chaosOpByName(name string) (ChaosOp, error) {
	switch name {
	case "kill":
		return OpKill, nil
	case "partition":
		return OpPartition, nil
	case "delay":
		return OpDelay, nil
	case "drop":
		return OpDrop, nil
	case "join":
		return OpJoin, nil
	case "drain":
		return OpDrain, nil
	}
	return 0, fmt.Errorf("cluster: unknown chaos op %q (kill, partition, delay, drop, join, drain)", name)
}

func chaosPointByName(name string) (ChaosPoint, bool) {
	switch name {
	case "rendezvous":
		return PointRendezvous, true
	case "mid-epoch":
		return PointMidEpoch, true
	case "snapshot":
		return PointSnapshot, true
	}
	return 0, false
}

// parseChaosEvent parses one event of a schedule: the `op@point` /
// `op@+dur` shorthand or the longhand `op:key=value,...` form.
func parseChaosEvent(s string) (*ChaosSpec, error) {
	if opName, at, found := strings.Cut(s, "@"); found {
		op, err := chaosOpByName(opName)
		if err != nil {
			return nil, err
		}
		spec := &ChaosSpec{Op: op, Rank: -1}
		if strings.HasPrefix(at, "+") {
			d, err := time.ParseDuration(at[1:])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("cluster: chaos event %q: bad delay %q", s, at)
			}
			spec.At, spec.Delay = PointAfter, d
			return spec, nil
		}
		pt, ok := chaosPointByName(at)
		if !ok {
			return nil, fmt.Errorf("cluster: chaos event %q: unknown point %q (rendezvous, mid-epoch, snapshot, +duration)", s, at)
		}
		spec.At = pt
		return spec, nil
	}

	opName, rest, found := strings.Cut(s, ":")
	if !found {
		return nil, fmt.Errorf("cluster: chaos spec %q: want op:key=value,... or op@point", s)
	}
	op, err := chaosOpByName(opName)
	if err != nil {
		return nil, err
	}
	spec := &ChaosSpec{Op: op, Rank: -1}
	rankSet := false
	for _, kv := range strings.Split(rest, ",") {
		key, val, found := strings.Cut(kv, "=")
		if !found {
			return nil, fmt.Errorf("cluster: chaos spec %q: bad pair %q", s, kv)
		}
		var err error
		switch key {
		case "rank":
			spec.Rank, err = strconv.Atoi(val)
			rankSet = err == nil
		case "at":
			var ok bool
			if spec.At, ok = chaosPointByName(val); !ok {
				err = fmt.Errorf("unknown point %q (rendezvous, mid-epoch, snapshot; for a +duration trigger set delay instead)", val)
			}
		case "after":
			spec.After, err = strconv.Atoi(val)
		case "p":
			spec.P, err = strconv.ParseFloat(val, 64)
			if err == nil && !(spec.P > 0 && spec.P <= 1) { // NaN fails both
				err = fmt.Errorf("%s is outside (0, 1]", val)
			}
		case "window":
			spec.Window, err = time.ParseDuration(val)
		case "delay":
			spec.Delay, err = time.ParseDuration(val)
			if err == nil && spec.Delay <= 0 {
				err = fmt.Errorf("%s is not positive", val)
			}
			spec.At = PointAfter
		case "seed":
			var u uint64
			u, err = strconv.ParseUint(val, 10, 64)
			spec.Seed = u
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: chaos spec %q: %s: %v", s, key, err)
		}
	}
	// Join/drain subjects are resolvable from the live membership at
	// fire time; the classic faults target a specific machine.
	if !rankSet && spec.Op != OpJoin && spec.Op != OpDrain {
		return nil, fmt.Errorf("cluster: chaos spec %q: rank is required", s)
	}
	if spec.At == 0 {
		return nil, fmt.Errorf("cluster: chaos spec %q: at (or delay) is required", s)
	}
	return spec, nil
}

// ChaosController is the shared state of one fault schedule: it counts
// trigger-point occurrences for the current event and fires each event
// exactly once, in order. One controller wraps every endpoint of a run.
type ChaosController struct {
	events []*ChaosSpec
	idx    atomic.Int32 // current event index; len(events) = schedule done
	fired  atomic.Bool  // at least one event has fired

	sends atomic.Int64 // outbound token batches observed for the current trigger
	snaps atomic.Int64 // replication snapshot sends observed

	// Per-event counter baselines, snapped when an event is armed so a
	// later event's After counts occurrences after the previous fire.
	baseSends atomic.Int64
	baseSnaps atomic.Int64

	snapKind atomic.Uint32 // 1+kind of the replication ctl frames, 0 = unset

	// Fired-effect state (persists as the schedule advances).
	partRank  atomic.Int32 // partitioned machine, -2 none
	until     atomic.Int64 // partition heal deadline (unix nanos)
	delayRank atomic.Int32 // delayed machine, -2 none
	delayWin  atomic.Int64 // per-send delay (nanos)
	dropRank  atomic.Int32 // snapshot-dropping machine, -2 none

	mu      sync.Mutex
	kill    func(victim int) // installed by the runner; rank -1 = auto
	join    func(rank int)   // elastic scale-out, installed by the runner
	drain   func(rank int)   // elastic scale-in, installed by the runner
	rnd     *rng.Source      // deterministic drop decisions
	dropP   float64
	timer   *time.Timer // pending PointAfter trigger
	stopped bool
}

// NewChaosController builds a controller for the schedule. The spec is
// normalized (defaults filled) in place.
func NewChaosController(spec *ChaosSpec) *ChaosController {
	spec.normalize()
	c := &ChaosController{events: spec.Events(), rnd: rng.New(spec.Seed)}
	c.partRank.Store(-2)
	c.delayRank.Store(-2)
	c.dropRank.Store(-2)
	return c
}

// OnKill installs the kill function the runner uses to stop the
// victim machine in-process. Without one, a fired kill does nothing.
func (c *ChaosController) OnKill(fn func(victim int)) {
	c.mu.Lock()
	c.kill = fn
	c.mu.Unlock()
}

// OnJoin installs the elastic scale-out function (rank -1 = runner
// picks the spare deterministically).
func (c *ChaosController) OnJoin(fn func(rank int)) {
	c.mu.Lock()
	c.join = fn
	c.mu.Unlock()
}

// OnDrain installs the elastic scale-in function (rank -1 = runner
// picks the leaver deterministically).
func (c *ChaosController) OnDrain(fn func(rank int)) {
	c.mu.Lock()
	c.drain = fn
	c.mu.Unlock()
}

// SetSnapshotKind registers the control-frame kind that carries
// replication snapshots, so PointSnapshot and OpDrop can recognize
// them.
func (c *ChaosController) SetSnapshotKind(kind uint8) {
	c.snapKind.Store(1 + uint32(kind))
}

// WrapAll wraps every link of a run; every wrapper observes for the
// controller (a uniform wrapper keeps the teardown paths identical
// across ranks).
func (c *ChaosController) WrapAll(links []Link) []Link {
	out := make([]Link, len(links))
	for i, l := range links {
		rank := -1
		if l != nil {
			rank = l.Rank()
		}
		out[i] = &ChaosLink{Link: l, ctrl: c, rank: rank}
	}
	return out
}

// Stop cancels any pending relative-time trigger; remaining events
// never fire. Called at teardown.
func (c *ChaosController) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
}

// Fired reports whether any event of the schedule has triggered.
func (c *ChaosController) Fired() bool { return c.fired.Load() }

// current returns the awaiting event and its index, or nil when the
// schedule is exhausted.
func (c *ChaosController) current() (*ChaosSpec, int32) {
	i := c.idx.Load()
	if int(i) >= len(c.events) {
		return nil, i
	}
	return c.events[i], i
}

// Arm prepares the awaiting event: counter baselines are snapped,
// immediate (rendezvous) events fire now, relative-time events start
// their timer. The runner calls it once its links are built and its
// kill function installed; each fired event arms the next.
func (c *ChaosController) Arm() {
	ev, i := c.current()
	if ev == nil {
		return
	}
	c.baseSends.Store(c.sends.Load())
	c.baseSnaps.Store(c.snaps.Load())
	switch ev.At {
	case PointRendezvous:
		c.fire(i)
	case PointAfter:
		c.mu.Lock()
		if !c.stopped {
			c.timer = time.AfterFunc(ev.Delay, func() { c.fire(i) })
		}
		c.mu.Unlock()
	}
}

// isSnapshot reports whether a ctl kind is the registered
// replication-snapshot kind.
func (c *ChaosController) isSnapshot(kind uint8) bool {
	sk := c.snapKind.Load()
	return sk != 0 && uint8(sk-1) == kind
}

// dropSnapshot decides (deterministically) whether to drop one
// replication snapshot.
func (c *ChaosController) dropSnapshot() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rnd.Float64() < c.dropP
}

// observes reports whether the current event's trigger watches frames
// from rank (rank -1 on the event = any machine).
func chaosObserves(ev *ChaosSpec, rank int) bool {
	return ev.Rank < 0 || ev.Rank == rank
}

// onSend counts an outbound token batch from rank toward a mid-epoch
// trigger.
func (c *ChaosController) onSend(rank int) {
	ev, i := c.current()
	if ev == nil || ev.At != PointMidEpoch || !chaosObserves(ev, rank) {
		return
	}
	if c.sends.Add(1) == c.baseSends.Load()+int64(ev.After) {
		c.fire(i)
	}
}

// onSnap counts a replication snapshot from rank toward a snapshot
// trigger.
func (c *ChaosController) onSnap(rank int) {
	ev, i := c.current()
	if ev == nil || ev.At != PointSnapshot || !chaosObserves(ev, rank) {
		return
	}
	if c.snaps.Add(1) == c.baseSnaps.Load()+int64(ev.After) {
		c.fire(i)
	}
}

// fire triggers event i exactly once (the idx CAS is the exactly-once
// guarantee), applies its op, and arms the schedule's next event.
func (c *ChaosController) fire(i int32) {
	if !c.idx.CompareAndSwap(i, i+1) {
		return
	}
	ev := c.events[i]
	c.fired.Store(true)
	switch ev.Op {
	case OpKill:
		c.mu.Lock()
		kill := c.kill
		c.mu.Unlock()
		if kill != nil {
			kill(ev.Rank)
		}
	case OpPartition:
		c.until.Store(time.Now().Add(ev.Window).UnixNano())
		c.partRank.Store(int32(ev.Rank))
	case OpDelay:
		c.delayWin.Store(int64(ev.Window))
		c.delayRank.Store(int32(ev.Rank))
	case OpDrop:
		c.mu.Lock()
		c.dropP = ev.P
		c.mu.Unlock()
		c.dropRank.Store(int32(ev.Rank))
	case OpJoin:
		c.mu.Lock()
		join := c.join
		c.mu.Unlock()
		if join != nil {
			join(ev.Rank)
		}
	case OpDrain:
		c.mu.Lock()
		drain := c.drain
		c.mu.Unlock()
		if drain != nil {
			drain(ev.Rank)
		}
	}
	c.Arm()
}

// ChaosLink wraps one endpoint, feeding the controller's trigger
// counters and applying fired stall/drop effects to its own rank.
type ChaosLink struct {
	Link
	ctrl *ChaosController
	rank int
}

// stall applies a fired partition/delay window to this rank's send.
func (c *ChaosLink) stall() {
	if int(c.ctrl.partRank.Load()) == c.rank {
		if until := c.ctrl.until.Load(); until != 0 {
			if d := time.Until(time.Unix(0, until)); d > 0 {
				time.Sleep(d)
			}
		}
	}
	if int(c.ctrl.delayRank.Load()) == c.rank {
		if w := c.ctrl.delayWin.Load(); w > 0 {
			time.Sleep(time.Duration(w))
		}
	}
}

// Send implements cluster.Link, counting outbound token batches toward
// a mid-epoch trigger and applying stall windows. A batch that carries
// no token (a queue-length announce or a marker) does not count, so the
// protocol traffic a fired event causes cannot fire the next one.
func (c *ChaosLink) Send(dst int, batch TokenBatch) error {
	if len(batch.Tokens) > 0 {
		c.ctrl.onSend(c.rank)
	}
	c.stall()
	return c.Link.Send(dst, batch)
}

// SendCtl implements cluster.Link, counting replication snapshots
// toward a snapshot trigger and dropping them under a fired OpDrop.
func (c *ChaosLink) SendCtl(dst int, kind uint8, payload []byte) error {
	if c.ctrl.isSnapshot(kind) {
		c.ctrl.onSnap(c.rank)
		if int(c.ctrl.dropRank.Load()) == c.rank && c.ctrl.dropSnapshot() {
			return nil // dropped on the wire
		}
	}
	c.stall()
	return c.Link.SendCtl(dst, kind, payload)
}

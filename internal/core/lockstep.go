package core

// The deterministic lockstep runner for distributed NOMAD. Machines
// still exchange nomadic (j, hⱼ) tokens over a cluster.Link, but in
// synchronized rounds: each machine trains its whole token queue
// (every token visits its W local workers in a fixed order), ships the
// tokens to uniformly chosen peers, marks the round's end, and merges
// the peers' deliveries in rank order. The coordinator (rank 0) sums
// the per-machine update counts carried on the round-end markers and
// decides stop at round boundaries.
//
// It trains with the token and the trainer of the other runners: inside
// a machine a token is an item ID, hⱼ lives in the machine's own model
// row — written when an inbound token is binned, read when it ships —
// and each round runs runBlock over the queue one worker at a time.
//
// The point of the mode is bitwise determinism: for a given (dataset,
// seed, machines, workers) the result is identical whatever the
// backend — the in-process simulated network, a TCP loopback mesh, or
// one process per machine on a real network — because every float
// operation happens in the same order everywhere. That is the property
// the cross-backend CI parity check (RMSE equality between a
// single-process run and a 1-coordinator + N-worker run) rests on. The
// cost is the asynchronous compute/communication overlap the paper
// advocates, so lockstep is a verification harness, not the fast path.
//
// On an in-order link (TCP, or netsim's instant profile — the sim
// backend is pinned to it here) per-peer FIFO guarantees that a
// round's tokens always precede its round-end marker, which is what
// makes the round merge, the stop decision and the teardown drain
// exact: at stop, every token is either in a machine's queue or in a
// fold shipment to the coordinator, never in flight. The coordinator
// gathers the folded item rows, each machine's user rows and step
// counts, verifies that exactly n tokens were recovered, and owns the
// full model and the resumable state.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/metrics"
	"nomad/internal/netlink"
	"nomad/internal/netsim"
	"nomad/internal/partition"
	"nomad/internal/rng"
	"nomad/internal/sparse"
	"nomad/internal/train"
)

// Lockstep control-plane frame kinds.
const (
	ctlRoundEnd  uint8 = 1 // round uint32 | cumulative local updates int64
	ctlDirective uint8 = 2 // round uint32 | stop uint8 | global total int64
	ctlFold      uint8 = 3 // folded tokens int64 | cumulative local updates int64
	ctlCounts    uint8 = 4 // count uint64 | count × int32 step counts (global CSC order restricted to the sender's users)
	ctlUserRows  uint8 = 5 // appendUserRows: count uint32 | count × (user int32 + K × float64)
	ctlAbort     uint8 = 6 // reason bytes; cascades, every rank returns an error
)

// foldRound tags post-stop fold shipments to the coordinator, which
// folds every arriving token regardless of tag.
const foldRound = ^uint32(0)

// lockstepOwner derives the initial item→machine ownership map. It is
// a pure function of (seed, machines), so every process of a cluster
// computes the same map — the coordinator still broadcasts it in the
// Welcome as the source of truth.
func lockstepOwner(seed uint64, n, machines int) []int32 {
	r := rng.New(seed).Split(7000 + uint64(machines))
	owner := make([]int32, n)
	for j := range owner {
		owner[j] = int32(r.Intn(machines))
	}
	return owner
}

// routeStream derives this rank's token-routing stream. Every rank
// derives all streams in the same order off the (restored) root, so
// the derivation itself is identical across processes.
func routeStream(root *rng.Source, machines, rank int) *rng.Source {
	var mine *rng.Source
	for r := 0; r < machines; r++ {
		s := root.Split(8000 + uint64(r))
		if r == rank {
			mine = s
		}
	}
	return mine
}

// lockDirective is a decoded stop/continue decision from rank 0.
type lockDirective struct {
	round uint32
	stop  bool
	total int64
}

// abortError is a deliberate cluster abort (a cancelled worker), as
// opposed to a transport failure.
type abortError struct {
	from   int
	reason string
}

func (e *abortError) Error() string {
	return fmt.Sprintf("core: machine %d aborted the lockstep run: %s", e.from, e.reason)
}

// lockCollector owns one rank's inbound streams during the round loop.
// Every lockstep token batch carries its round number (in the
// TokenBatch gossip slot, unused in this mode), so tokens are binned
// by round tag — never by arrival interleaving, which the two inbound
// channels do not define an order across. A round is complete when
// every peer's round-end marker for it has arrived.
type lockCollector struct {
	link cluster.Link
	rank int
	md   *factor.Model // an inbound token's hⱼ goes into its row; a token naming no row fails the round

	// The channels are kept here so a closed one can be nilled out:
	// they close together, but the buffered frames drain at different
	// speeds, and a round-end or directive may still be pending in ctl
	// after recv runs dry (e.g. at the final round, once every peer has
	// already ended its stream). Only both-exhausted is fatal.
	recvCh <-chan cluster.Inbound
	ctlCh  <-chan cluster.Ctl

	byRound []map[uint32][]int32 // per peer: round tag → items
	ends    []uint32             // per peer: round-end markers seen
	cums    [][]int64            // per peer: update totals, one per round-end
	dirs    []lockDirective      // directives from rank 0, FIFO
}

func newLockCollector(link cluster.Link, md *factor.Model) *lockCollector {
	m := link.Machines()
	c := &lockCollector{
		link:    link,
		rank:    link.Rank(),
		md:      md,
		recvCh:  link.Recv(),
		ctlCh:   link.Ctl(),
		byRound: make([]map[uint32][]int32, m),
		ends:    make([]uint32, m),
		cums:    make([][]int64, m),
	}
	for r := range c.byRound {
		c.byRound[r] = make(map[uint32][]int32)
	}
	return c
}

// pump blocks for one inbound event and files it. It returns an error
// when a peer aborts the run or sends an item that does not exist, or
// when both inbound streams are exhausted with the caller still
// waiting.
func (c *lockCollector) pump() error {
	if c.recvCh == nil && c.ctlCh == nil {
		return c.deadErr()
	}
	select {
	case inb, ok := <-c.recvCh:
		if !ok {
			c.recvCh = nil // keep draining ctl
			return nil
		}
		return c.bin(inb)
	case ct, ok := <-c.ctlCh:
		if !ok {
			c.ctlCh = nil // keep draining recv
			return nil
		}
		switch ct.Kind {
		case ctlRoundEnd:
			if len(ct.Payload) < 12 {
				return fmt.Errorf("core: short round-end frame from machine %d", ct.From)
			}
			c.ends[ct.From]++
			c.cums[ct.From] = append(c.cums[ct.From], int64(binary.LittleEndian.Uint64(ct.Payload[4:])))
		case ctlDirective:
			if len(ct.Payload) < 13 {
				return fmt.Errorf("core: short directive frame from machine %d", ct.From)
			}
			c.dirs = append(c.dirs, lockDirective{
				round: binary.LittleEndian.Uint32(ct.Payload),
				stop:  ct.Payload[4] != 0,
				total: int64(binary.LittleEndian.Uint64(ct.Payload[5:])),
			})
		case ctlAbort:
			return &abortError{from: ct.From, reason: string(ct.Payload)}
		default:
			return fmt.Errorf("core: unexpected control frame kind %d from machine %d mid-round", ct.Kind, ct.From)
		}
	}
	return nil
}

// bin files one delivered batch under its round tag, or rejects it if
// a token names an item outside [0, n). Each token's hⱼ is written into
// its model row on the way in: the machine holds the token from here
// on, so nothing else reads or writes that row until it ships again,
// and the arena-backed batch can be released at once.
func (c *lockCollector) bin(inb cluster.Inbound) error {
	var err error
	if bad := badItem(inb.Batch.Tokens, c.md.N); bad >= 0 {
		err = wireItemErr(inb.From, inb.Batch.Tokens[bad].Item, c.md.N)
	} else {
		bin := c.byRound[inb.From]
		round := uint32(inb.Batch.QueueLen)
		for _, t := range inb.Batch.Tokens {
			c.md.SetItemRowFrom64(int(t.Item), t.Vec)
			bin[round] = append(bin[round], t.Item)
		}
	}
	inb.Batch.Release()
	return err
}

func (c *lockCollector) deadErr() error {
	if err := c.link.Err(); err != nil {
		return err
	}
	return fmt.Errorf("core: cluster link closed mid-round")
}

// collectRound waits until every peer has marked the given round's
// end, then returns the merged items (peers in rank order — the
// determinism anchor) and each peer's reported cumulative updates. A
// peer's round-end follows its last token batch for that round on the
// same connection, so once it arrives the round's tokens are either
// already binned or sitting earlier in the inbound buffer; the bin
// read below happens after both.
func (c *lockCollector) collectRound(round uint32) ([]int32, []int64, error) {
	for {
		ready := true
		for r := range c.ends {
			if r != c.rank && c.ends[r] <= round {
				ready = false
				break
			}
		}
		if ready {
			break
		}
		if err := c.pump(); err != nil {
			return nil, nil, err
		}
	}
	// One more sweep of whatever is already buffered, so a round-end
	// popped ahead of its tokens (the two channels race) cannot leave
	// them behind: their batches were necessarily delivered first.
	if err := c.drainBuffered(); err != nil {
		return nil, nil, err
	}
	var items []int32
	cums := make([]int64, len(c.ends))
	for r := range c.ends {
		if r == c.rank {
			continue
		}
		items = append(items, c.byRound[r][round]...)
		delete(c.byRound[r], round)
		cums[r] = c.cums[r][0]
		c.cums[r] = c.cums[r][1:]
	}
	return items, cums, nil
}

// drainBuffered files every already-delivered inbound batch without
// blocking. A closed stream is not an error here: its buffered frames
// have by definition all been read.
func (c *lockCollector) drainBuffered() error {
	for c.recvCh != nil {
		select {
		case inb, ok := <-c.recvCh:
			if !ok {
				c.recvCh = nil
				return nil
			}
			if err := c.bin(inb); err != nil {
				return err
			}
		default:
			return nil
		}
	}
	return nil
}

// awaitDirective blocks until rank 0's decision for the given round.
func (c *lockCollector) awaitDirective(round uint32) (lockDirective, error) {
	for len(c.dirs) == 0 {
		if err := c.pump(); err != nil {
			return lockDirective{}, err
		}
	}
	d := c.dirs[0]
	c.dirs = c.dirs[1:]
	if d.round != round {
		return lockDirective{}, fmt.Errorf("core: directive for round %d while finishing round %d", d.round, round)
	}
	return d, nil
}

// residual removes and returns every item still binned. Mid-run that
// is non-empty only if a stream ended mid-round, but it is folded
// anyway so token conservation never depends on timing; at the
// coordinator's gather it is the workers' fold shipments.
func (c *lockCollector) residual() []int32 {
	var out []int32
	for r := range c.byRound {
		for _, items := range c.byRound[r] {
			out = append(out, items...)
		}
		clear(c.byRound[r])
	}
	return out
}

// sendAbort broadcasts a cluster abort; best effort by design (the
// link may already be failing).
func sendAbort(link cluster.Link, reason string) {
	link.SendCtl(-1, ctlAbort, []byte(reason)) //nolint:errcheck
}

// shipTokens sends the tokens of items to dst in §3.5-sized batches,
// each tagged with the round it belongs to (the gossip slot is unused
// in lockstep mode). A batch is views of the items' rows of md, which
// lockstep keeps float64 (train.Normalize), so wireToken needs no
// scratch; Send's boundary rule copies them before it returns.
func shipTokens(link cluster.Link, md *factor.Model, dst int, items []int32, batchSize int, round uint32) error {
	batch := make([]cluster.Token, min(len(items), batchSize))
	for len(items) > 0 {
		n := min(len(items), batchSize)
		for x, j := range items[:n] {
			batch[x] = wireToken(md, j, nil)
		}
		if err := link.Send(dst, cluster.TokenBatch{Tokens: batch[:n], QueueLen: int(round)}); err != nil {
			return err
		}
		items = items[n:]
	}
	return nil
}

// trainLockstep runs the deterministic round-based distributed mode in
// one process: cfg.Machines lockstep machines over sim or TCP-loopback
// links. Each machine owns a full private model copy (the determinism
// contract is "one machine's memory per machine", whatever the process
// layout), so memory scales with Machines — fine for the verification
// datasets this mode exists for. The rank-0 result, with the gathered
// model, is the run's result.
func trainLockstep(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	linkCfg := cfg
	if cfg.Backend == "" || cfg.Backend == "sim" {
		// Lockstep's round merge needs per-peer FIFO; netsim's latency
		// timers only guarantee it on the instant profile, and modelled
		// latency has nothing to verify in a determinism harness.
		linkCfg.Profile = netsim.Instant()
	}
	links, err := buildLinks(ctx, ds, linkCfg, hooks, nil)
	if err != nil {
		return nil, err
	}
	owner := lockstepOwner(cfg.Seed, ds.Cols(), cfg.Machines)
	results := make([]*train.Result, cfg.Machines)
	errs := make([]error, cfg.Machines)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Machines; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// In one process the coordinator's stop decision covers
			// cancellation for everyone; worker ranks must not race it
			// with their own abort, so only rank 0 watches ctx.
			mctx := ctx
			if r != 0 {
				mctx = context.Background()
			}
			results[r], errs[r] = lockstepMachine(mctx, links[r], ds, cfg, owner, cfg.Resume, hooks)
		}(r)
	}
	wg.Wait()
	if errs[0] != nil && results[0] == nil {
		return nil, errs[0]
	}
	for r := 1; r < cfg.Machines; r++ {
		if errs[0] == nil && errs[r] != nil {
			return nil, fmt.Errorf("core: lockstep machine %d failed: %w", r, errs[r])
		}
	}
	if results[0] != nil {
		bytesSent, msgsSent := linkTotals(links)
		results[0].BytesSent, results[0].MessagesSent = bytesSent, msgsSent
		hooks.EmitNetwork(train.NetworkEvent{BytesSent: bytesSent, MessagesSent: msgsSent})
	}
	return results[0], errs[0]
}

// trainMultiProcess is one process's share of a real cluster: rank 0
// (the coordinator) listens, assigns ranks and broadcasts the
// ownership map and any resume state; workers join and follow. All of
// them then run the same lockstepMachine.
func trainMultiProcess(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	digest := configDigest(ds, cfg)
	opts := netlinkOptions(cfg, hooks, nil)
	if cfg.Role == "coordinator" {
		owner := lockstepOwner(cfg.Seed, ds.Cols(), cfg.Machines)
		coord, err := netlink.NewCoordinator(cfg.Listen, cfg.Machines, digest, owner, cfg.Resume, opts)
		if err != nil {
			return nil, err
		}
		link, err := coord.Run(ctx)
		if err != nil {
			return nil, err
		}
		defer link.Close()
		return lockstepMachine(ctx, link, ds, cfg, owner, cfg.Resume, hooks)
	}
	link, hs, err := netlink.Join(ctx, cfg.Join, cfg.Listen, digest, opts)
	if err != nil {
		return nil, err
	}
	defer link.Close()
	if len(hs.Owner) != ds.Cols() {
		return nil, fmt.Errorf("core: coordinator ownership map covers %d items, dataset has %d", len(hs.Owner), ds.Cols())
	}
	cfg.Machines = link.Machines()
	return lockstepMachine(ctx, link, ds, cfg, hs.Owner, hs.State, hooks)
}

// lockstepMachine is one machine of a lockstep cluster, whatever the
// process layout. Rank 0 is the coordinator: it decides stop, gathers
// the model and owns the returned trace/state; other ranks return
// their partial model and no resumable state.
func lockstepMachine(ctx context.Context, link cluster.Link, ds *dataset.Dataset, cfg train.Config,
	owner []int32, st *train.State, hooks *train.Hooks) (*train.Result, error) {

	rank, M, W := link.Rank(), link.Machines(), cfg.Workers
	p := M * W
	m, n := ds.Rows(), ds.Cols()
	if err := st.Validate("nomad", m, n, cfg.K); err != nil {
		return nil, err
	}
	users := partitionUsers(ds, cfg, p)
	local := buildShards(ds.Train, users, rank*W, rank*W+W, resumeCounts(st, ds)) // this rank's workers only
	schedule := cfg.Schedule()

	root := rng.New(cfg.Seed)
	var md *factor.Model
	resumeBase := int64(0)
	if st != nil {
		md = st.Model.Clone() // every rank mutates its own copy
		st.RestoreStreams(root, nil)
		resumeBase = st.Updates
	} else {
		md = factor.NewInit(m, n, cfg.K, cfg.Seed)
	}
	route := routeStream(root, M, rank)

	// This machine's starting tokens, ascending item order; their hⱼ
	// are already in md's rows.
	var queue []int32
	for j := 0; j < n; j++ {
		if int(owner[j]) == rank {
			queue = append(queue, int32(j))
		}
	}

	hp := make([]hotPath, W)
	for w := 0; w < W; w++ {
		hp[w] = newHotPath(md, schedule, cfg)
	}
	lanes := hp[0].pair != nil // as in runWorker; lockstep has no straggler

	var rec *train.Recorder
	var epochSize, epoch int64
	start := time.Now()
	if rank == 0 {
		rec = train.NewRecorderFor(cfg, ds.Test, md, hooks)
		if cfg.Epochs > 0 && cfg.MaxUpdates < math.MaxInt64 {
			epochSize = cfg.MaxUpdates / int64(cfg.Epochs)
		}
		if epochSize > 0 {
			epoch = resumeBase / epochSize
		}
	}

	coll := newLockCollector(link, md)
	outbox := make([][]int32, M)
	cum := int64(0)  // this machine's updates this segment
	var total int64  // global updates, known after each directive
	var runErr error // coordinator: ctx error that ended the run
	// Lockstep stops only at round boundaries: every token begins, and
	// finishing one only counts its updates.
	begin := func(int) bool { return true }
	finish := func(_, n int) bool {
		cum += int64(n)
		return false
	}
	abort := func(err error) (*train.Result, error) {
		var ab *abortError
		if !errors.As(err, &ab) { // only the origin broadcasts
			sendAbort(link, err.Error())
		}
		link.Close() //nolint:errcheck
		return nil, err
	}

	for round := uint32(0); ; round++ {
		if rank != 0 && ctx.Err() != nil {
			return abort(ctx.Err())
		}
		// Train the whole queue: each token visits the machine's W
		// workers in order, then heads for a uniformly chosen peer. Worker
		// by worker over the queue is exactly token by token over the
		// workers: an item still meets worker w's ratings before worker
		// w+1's, each worker's user rows still see the tokens in queue
		// order (runBlock keeps that order bit for bit), and the route
		// draws stay one per token in queue order.
		for w := 0; w < W; w++ {
			for b := 0; b < len(queue); b += meshBlock {
				hp[w].runBlock(local[w], queue[b:min(b+meshBlock, len(queue))], lanes, begin, finish)
			}
		}
		for _, j := range queue {
			dst := rank
			if M > 1 {
				dst = route.Intn(M - 1)
				if dst >= rank {
					dst++
				}
			}
			outbox[dst] = append(outbox[dst], j)
		}
		queue = queue[:0]

		// Ship, then mark the round's end on every peer. The outbox
		// slices are reusable immediately: Send's boundary rule means
		// every link copies or encodes the batch before returning (the
		// sim backend deep-copies into a pooled arena), so no peer ever
		// holds a reference into this machine's backing arrays.
		for dst := 0; dst < M; dst++ {
			if dst == rank {
				queue = append(queue, outbox[dst]...) // self-routed (M == 1 only)
				outbox[dst] = outbox[dst][:0]
				continue
			}
			if err := shipTokens(link, md, dst, outbox[dst], cfg.BatchSize, round); err != nil {
				return abort(err)
			}
			outbox[dst] = outbox[dst][:0]
		}
		var end [12]byte
		binary.LittleEndian.PutUint32(end[:], round)
		binary.LittleEndian.PutUint64(end[4:], uint64(cum))
		if err := link.SendCtl(-1, ctlRoundEnd, end[:]); err != nil {
			return abort(err)
		}

		// Merge the peers' deliveries for this round, rank order.
		items, cums, err := coll.collectRound(round)
		if err != nil {
			return abort(err)
		}
		queue = append(queue, items...)

		// Stop decision: the coordinator sums the round-end counters;
		// everyone else obeys its directive.
		if rank == 0 {
			total = resumeBase + cum
			for r, c := range cums {
				if r != 0 {
					total += c
				}
			}
			for epochSize > 0 && (epoch+1)*epochSize <= total {
				epoch++
				hooks.EmitEpoch(train.EpochEvent{Epoch: int(epoch), Updates: total})
			}
			stop := total >= cfg.MaxUpdates ||
				(cfg.Deadline > 0 && time.Since(start) >= cfg.Deadline) ||
				ctx.Err() != nil
			var dir [13]byte
			binary.LittleEndian.PutUint32(dir[:], round)
			if stop {
				dir[4] = 1
			}
			binary.LittleEndian.PutUint64(dir[5:], uint64(total))
			if err := link.SendCtl(-1, ctlDirective, dir[:]); err != nil {
				return abort(err)
			}
			if stop {
				runErr = ctx.Err()
				break
			}
		} else {
			d, err := coll.awaitDirective(round)
			if err != nil {
				return abort(err)
			}
			if d.stop {
				total = d.total
				break
			}
		}
	}

	// Teardown. Out-of-order residue (impossible on an in-order link)
	// is folded with the queue so conservation never depends on timing.
	queue = append(queue, coll.residual()...)
	if rank != 0 {
		return lockstepWorkerFinish(link, ds, cfg, users, local, md, queue, cum, total, rank, W)
	}
	// The coordinator sends nothing after the stop directive, so it
	// ends its stream up front — the sim backend's network shutdown
	// (and hence every drain) waits on all endpoints, this one included.
	link.CloseSend() //nolint:errcheck
	res, err := lockstepGather(link, coll, ds, cfg, users, local, md, queue, total, W, rec, root)
	if err != nil {
		return nil, err
	}
	return res, runErr
}

// lockstepWorkerFinish ships everything the coordinator needs — the
// fold tokens this machine still holds, its per-rating step counts and
// its user rows — then drains the link until every stream has ended.
func lockstepWorkerFinish(link cluster.Link, ds *dataset.Dataset, cfg train.Config,
	users *partition.Partition, local []*localRatings, md *factor.Model,
	queue []int32, cum, total int64, rank, W int) (*train.Result, error) {

	if err := shipTokens(link, md, 0, queue, cfg.BatchSize, foldRound); err != nil {
		return nil, err
	}
	var fold [16]byte
	binary.LittleEndian.PutUint64(fold[:], uint64(int64(len(queue))))
	binary.LittleEndian.PutUint64(fold[8:], uint64(cum))
	if err := link.SendCtl(0, ctlFold, fold[:]); err != nil {
		return nil, err
	}
	counts := exportCounts(ds.Train, users, local, rank*W)
	payload := make([]byte, 8+4*len(counts))
	binary.LittleEndian.PutUint64(payload, uint64(len(counts)))
	for i, c := range counts {
		binary.LittleEndian.PutUint32(payload[8+4*i:], uint32(c))
	}
	if err := link.SendCtl(0, ctlCounts, payload); err != nil {
		return nil, err
	}
	var rows []int32
	for w := 0; w < W; w++ {
		rows = append(rows, users.Part(rank*W+w)...)
	}
	for len(rows) > 0 { // 512 rows a frame
		chunk := rows[:min(len(rows), 512)]
		rows = rows[len(chunk):]
		if err := link.SendCtl(0, ctlUserRows, appendUserRows(nil, md, chunk)); err != nil {
			return nil, err
		}
	}
	link.CloseSend() //nolint:errcheck
	// Drain until every peer (the coordinator included) ends its
	// stream; nothing after our fold shipment is addressed to us, but
	// stray batches still carry pooled arenas that want recycling.
	recv, ctl := link.Recv(), link.Ctl()
	for recv != nil || ctl != nil {
		select {
		case inb, ok := <-recv:
			if !ok {
				recv = nil
				continue
			}
			inb.Batch.Release()
		case _, ok := <-ctl:
			if !ok {
				ctl = nil
			}
		}
	}
	link.Close() //nolint:errcheck
	if err := link.Err(); err != nil {
		return nil, err
	}
	st := link.Stats()
	return &train.Result{
		Algorithm:    "nomad",
		Model:        md,
		TestRMSE:     metrics.RMSE(md, ds.Test), // this rank keeps no trace
		Updates:      total,
		Elapsed:      0,
		BytesSent:    st.BytesSent,
		MessagesSent: st.MessagesSent,
		// Final deliberately nil: the coordinator owns the gathered
		// model and the resumable state.
	}, nil
}

// lockstepGather is the coordinator's teardown: collect every worker's
// fold tokens (coll writes their rows, as in a round), user rows and
// step counts, verify exact token conservation over them and the
// coordinator's own queue, and assemble the final model and resumable
// state.
func lockstepGather(link cluster.Link, coll *lockCollector, ds *dataset.Dataset, cfg train.Config,
	users *partition.Partition, local []*localRatings, md *factor.Model,
	queue []int32, total int64, W int,
	rec *train.Recorder, root *rng.Source) (*train.Result, error) {

	n := ds.Cols()
	declared := int64(len(queue))
	countsByRank := make(map[int][]int32)

	recv, ctl := link.Recv(), link.Ctl()
	for recv != nil || ctl != nil {
		select {
		case inb, ok := <-recv:
			if !ok {
				recv = nil
				continue
			}
			if err := coll.bin(inb); err != nil {
				return nil, err
			}
		case ct, ok := <-ctl:
			if !ok {
				ctl = nil
				continue
			}
			switch ct.Kind {
			case ctlFold:
				if len(ct.Payload) >= 16 {
					declared += int64(binary.LittleEndian.Uint64(ct.Payload))
				}
			case ctlCounts:
				if len(ct.Payload) < 8 {
					return nil, fmt.Errorf("core: short counts frame from machine %d", ct.From)
				}
				cnt := binary.LittleEndian.Uint64(ct.Payload)
				if uint64(len(ct.Payload)) != 8+4*cnt {
					return nil, fmt.Errorf("core: counts frame from machine %d declares %d entries in %d bytes", ct.From, cnt, len(ct.Payload))
				}
				counts := make([]int32, cnt)
				for i := range counts {
					counts[i] = int32(binary.LittleEndian.Uint32(ct.Payload[8+4*i:]))
				}
				countsByRank[ct.From] = counts
			case ctlUserRows:
				if err := decodeUserRows(ct.Payload, md.M, md.K, md.SetUserRowFrom64); err != nil {
					return nil, fmt.Errorf("core: user rows from machine %d: %w", ct.From, err)
				}
			case ctlAbort:
				return nil, &abortError{from: ct.From, reason: string(ct.Payload)}
			}
		}
	}
	link.Close() //nolint:errcheck
	if err := link.Err(); err != nil {
		return nil, err
	}
	items := append(queue, coll.residual()...)
	if err := forEachParked([][]int32{items}, n, nil); err != nil {
		return nil, fmt.Errorf("core: token conservation violated: %w", err)
	}
	if declared != int64(n) {
		return nil, fmt.Errorf("core: token conservation violated: %d tokens declared for %d items", declared, n)
	}
	counts, err := mergeCounts(ds.Train, users, local, countsByRank, W)
	if err != nil {
		return nil, err
	}

	rmse := rec.Sample(md, total)
	st := link.Stats()
	return &train.Result{
		Algorithm:    "nomad",
		Model:        md,
		TestRMSE:     rmse,
		Trace:        rec.Trace(),
		Updates:      total,
		Elapsed:      rec.Elapsed(),
		BytesSent:    st.BytesSent,
		MessagesSent: st.MessagesSent,
		Final: &train.State{
			Algorithm: "nomad",
			Seed:      cfg.Seed,
			Updates:   total,
			Model:     md,
			Counts:    counts,
			RNG:       train.CaptureStreams(root, nil),
			// Queues deliberately nil: tokens were folded back into the
			// model; a resume re-scatters them by the ownership map.
		},
	}, nil
}

// appendUserRows appends the wire form of users' factor rows to dst:
// count uint32 | count × (user int32 | K × float64), widened from md's
// precision.
func appendUserRows(dst []byte, md *factor.Model, users []int32) []byte {
	row := make([]float64, md.K)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(users)))
	for _, u := range users {
		md.CopyUserRowTo64(int(u), row)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(u))
		for _, v := range row {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// decodeUserRows calls put(user, row) for each row of an appendUserRows
// payload meant for a model of m users and rank k, in order; row is
// scratch, reused across calls. A payload whose length disagrees with
// its count, or that names a user outside [0, m), is an error and puts
// nothing.
func decodeUserRows(p []byte, m, k int, put func(u int, row []float64)) error {
	if len(p) < 4 {
		return fmt.Errorf("short user-row frame (%d bytes)", len(p))
	}
	count, per := binary.LittleEndian.Uint32(p), 4+8*k
	if p = p[4:]; uint64(len(p)) != uint64(count)*uint64(per) {
		return fmt.Errorf("user-row frame declares %d rank-%d rows in %d bytes", count, k, len(p)+4)
	}
	for x := 0; x < int(count); x++ {
		if u := int32(binary.LittleEndian.Uint32(p[x*per:])); u < 0 || int(u) >= m {
			return fmt.Errorf("user row %d out of range [0,%d)", u, m)
		}
	}
	row := make([]float64, k)
	for x := 0; x < int(count); x++ {
		rec := p[x*per:]
		for c := range row {
			row[c] = math.Float64frombits(binary.LittleEndian.Uint64(rec[4+8*c:]))
		}
		put(int(binary.LittleEndian.Uint32(rec)), row)
	}
	return nil
}

// mergeCounts assembles the canonical CSC-ordered global step counts
// from the coordinator's own worker shards (workers [0, W)) and each
// worker machine's exportCounts stream.
func mergeCounts(tr *sparse.Matrix, users *partition.Partition, local []*localRatings, byRank map[int][]int32, W int) ([]int32, error) {
	out := make([]int32, 0, tr.NNZ())
	cur := make([]int32, len(local))
	pos := make(map[int]int)
	for j := 0; j < tr.Cols(); j++ {
		rows, _ := tr.Col(j)
		for _, i := range rows {
			q := users.Owner(int(i))
			r := q / W
			if r == 0 {
				out = append(out, local[q].counts[cur[q]])
				cur[q]++
			} else {
				stream := byRank[r]
				if pos[r] >= len(stream) {
					return nil, fmt.Errorf("core: machine %d sent %d step counts, need more", r, len(stream))
				}
				out = append(out, stream[pos[r]])
				pos[r]++
			}
		}
	}
	for r, stream := range byRank {
		if pos[r] != len(stream) {
			return nil, fmt.Errorf("core: machine %d sent %d step counts, used %d", r, len(stream), pos[r])
		}
	}
	return out, nil
}

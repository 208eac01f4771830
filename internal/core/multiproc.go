package core

// Multi-process runs (DESIGN.md §7): each process is one machine of
// the asynchronous runner, started by runMachine over a private model,
// with only the link connecting it to its peers. Peers report progress
// to rank 0, whose train.Monitor decides stop; at stop every sender
// ends circulation with an in-band marker behind its last token, and
// once a rank holds every peer's marker it folds what it holds — tokens
// with their rows, user rows, step counts, visit log — to rank 0, which
// checks conservation and owns the gathered model and state. A
// cancelled worker or a peer breaking the protocol aborts the cluster
// (ctlAbort); a cancelled coordinator stops the run and keeps it.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/metrics"
	"nomad/internal/netlink"
	"nomad/internal/partition"
	"nomad/internal/rng"
	"nomad/internal/train"
)

// Multi-process control-frame kinds; failover's start at 16.
const (
	ctlProgress uint8 = 1 // peer → 0: its cumulative updates (appendTotal)
	ctlStop     uint8 = 2 // 0 → all: the cluster's updates at stop (appendTotal)
	ctlFold     uint8 = 3 // peer → 0: held tokens' item rows (appendRows)
	ctlCounts   uint8 = 4 // peer → 0: its exportCounts, nnz × int32
	ctlUserRows uint8 = 5 // peer → 0: its users' rows (appendRows)
	ctlAbort    uint8 = 6 // origin → all: reason bytes; every rank fails the run
	ctlLog      uint8 = 7 // peer → 0: one chunk of its visit log (appendLogChunk)
)

// progressEvery is how often a peer reports its update total.
const progressEvery = time.Millisecond

// errAborted marks an abort another rank broadcast: every rank hears
// the origin, so none relays it.
var errAborted = errors.New("core: the run was aborted")

// initialOwner is Algorithm 1's initial scatter (lines 6–10): the
// machine each item token starts at. It is a pure function of (seed,
// machines), so every process derives the same map; the coordinator's
// Welcome still carries it as the source of truth.
func initialOwner(seed uint64, n, machines int) []int32 {
	r := rng.New(seed).Split(7000 + uint64(machines))
	owner := make([]int32, n)
	for j := range owner {
		owner[j] = int32(r.Intn(machines))
	}
	return owner
}

// machineStreams derives every machine's sender and receiver streams
// from the (restored) root in rank order, so each process of a cluster
// derives the same ones.
func machineStreams(root *rng.Source, machines int) (send, recv []*rng.Source) {
	for r := 0; r < machines; r++ {
		send = append(send, root.Split(uint64(1000+r)))
		recv = append(recv, root.Split(uint64(2000+r)))
	}
	return send, recv
}

// trainMultiProcess is one rank of a real cluster: the rendezvous,
// then one machine over a private model, then the gather.
func trainMultiProcess(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks, vl *visitLog) (*train.Result, error) {
	digest, opts := configDigest(ds, cfg, vl != nil), netlinkOptions(cfg, hooks, nil)
	var link *netlink.TCP
	var owner []int32
	if cfg.Role == "coordinator" {
		owner = initialOwner(cfg.Seed, ds.Cols(), cfg.Machines)
		coord, err := netlink.NewCoordinator(cfg.Listen, cfg.Machines, digest, owner, cfg.Resume, opts)
		if err != nil {
			return nil, err
		}
		if link, err = coord.Run(ctx); err != nil {
			return nil, err
		}
	} else {
		l, hs, err := netlink.Join(ctx, cfg.Join, cfg.Listen, digest, opts)
		if err != nil {
			return nil, err
		}
		link, owner, cfg.Resume, cfg.Machines = l, hs.Owner, hs.State, l.Machines()
	}
	defer link.Close()
	if len(owner) != ds.Cols() {
		return nil, fmt.Errorf("core: coordinator ownership map covers %d items, dataset has %d", len(owner), ds.Cols())
	}
	st := cfg.Resume
	if err := st.Validate("nomad", ds.Rows(), ds.Cols(), cfg.K); err != nil {
		return nil, err
	}

	rank, M, W := link.Rank(), link.Machines(), cfg.Workers
	p, n := M*W, ds.Cols()
	users := partitionUsers(ds, cfg, p)
	local := buildShards(ds.Train, users, rank*W, rank*W+W, resumeCounts(st, ds)) // this rank's workers only
	root := rng.New(cfg.Seed)
	var md *factor.Model
	if st != nil {
		md = st.Model.Clone() // private, even with every rank in one process
		st.RestoreStreams(root, nil)
	} else {
		md = factor.NewInitP(ds.Rows(), n, cfg.K, cfg.Seed, cfg.Precision)
	}
	sendRNG, recvRNG := machineStreams(root, M)
	mc := newMeshMachine(rank, W, meshRingCap(n, p), M, md, cfg.Circulate)
	if vl != nil {
		mc.log = newMachineLog(n, W)
	}
	mc.place(owner, recvRNG[rank], nil)

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var stop atomic.Bool
	var failed atomic.Pointer[error]
	fail := func(err error) {
		if !failed.CompareAndSwap(nil, &err) {
			return
		}
		if !errors.Is(err, errAborted) {
			link.SendCtl(-1, ctlAbort, []byte(err.Error())) //nolint:errcheck // best effort: the link may be failing
		}
		stop.Store(true)
		cancelRun()
		link.Close() //nolint:errcheck // unblocks every thread of this rank
	}

	// Rank 0 counts peer r's updates in the shard of r's first worker,
	// which trains elsewhere.
	counter := train.NewCounter(p)
	var rec *train.Recorder
	if rank == 0 {
		counter = train.NewCounterFor(cfg, p)
		rec = train.NewRecorderFor(cfg, ds, md, hooks)
	}
	var stopTotal atomic.Int64
	var kept []cluster.Ctl
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		kept = controlLoop(link, counter, W, &stop, &stopTotal, cancelRun, fail)
	}()
	mr := &machineRun{cfg: cfg, counter: counter, stop: &stop, reject: fail,
		linkErr: func() { fail(link.Err()) }, markers: M - 1}
	mr.runMachine(mc, link, local, rank*W, sendRNG[rank], recvRNG[rank])

	var runErr error
	if rank == 0 {
		runErr = train.Monitor(runCtx, &stop, counter, cfg, rec, nil, hooks)
		if failed.Load() == nil {
			link.SendCtl(-1, ctlStop, appendTotal(nil, counter.Total())) //nolint:errcheck // a failure surfaces below
		}
	} else {
		<-runCtx.Done()
		if ctx.Err() != nil {
			fail(ctx.Err())
		}
	}
	stop.Store(true)
	joinMachines([]*meshMachine{mc})
	held := mc.held()
	var shipErr error
	if rank != 0 && failed.Load() == nil {
		shipErr = foldToCoordinator(link, ds, users, local, md, held, counter.Total(), rank, W, mc.log)
	}
	link.CloseSend() //nolint:errcheck
	<-ctlDone        // every peer has ended its stream
	link.Close()     //nolint:errcheck
	if f := failed.Load(); f != nil {
		return nil, *f
	}
	if err := link.Err(); err != nil {
		return nil, fmt.Errorf("core: distributed transport failed: %w", err)
	}
	if shipErr != nil {
		return nil, shipErr
	}
	bytesSent, msgsSent := link.Stats().BytesSent, link.Stats().MessagesSent
	if rank != 0 { // no trace and no Final: rank 0 owns the gathered model and state
		return &train.Result{Algorithm: "nomad", Model: md, TestRMSE: metrics.RMSE(md, ds.TestByUser()),
			Updates: stopTotal.Load(), BytesSent: bytesSent, MessagesSent: msgsSent}, nil
	}

	g := &gather{md: md, counts: exportCounts(ds.Train, users, local, 0)}
	if vl != nil {
		g.logs = []*machineLog{mc.log}
		for len(g.logs) < M {
			g.logs = append(g.logs, newMachineLog(n, W))
		}
		vl.machines = g.logs
	}
	for _, ct := range kept {
		if err := g.add(ct); err != nil {
			return nil, err
		}
	}
	if err := forEachParked(append(held, g.items), n, nil); err != nil {
		return nil, fmt.Errorf("core: token conservation violated: %w", err)
	}
	res := finalResult(cfg, md, rec, counter.Total(), g.counts, root, nil, nil)
	res.BytesSent, res.MessagesSent = bytesSent, msgsSent
	hooks.Emit(train.NetworkEvent{BytesSent: bytesSent, MessagesSent: msgsSent})
	return res, runErr
}

// controlLoop runs a rank's control plane until every peer has ended
// its stream, and returns the gather frames it kept. Rank 0 files peer
// r's progress into counter shard r·W; a peer reports its own progress
// and obeys stop, recording the cluster total it carries. An abort
// from a peer aborts this rank too.
func controlLoop(link cluster.Link, counter *train.Counter, W int, stop *atomic.Bool, stopTotal *atomic.Int64,
	halt context.CancelFunc, fail func(error)) []cluster.Ctl {

	var kept []cluster.Ctl
	last := make([]int64, link.Machines())
	tick := time.NewTicker(progressEvery)
	defer tick.Stop()
	ctl := link.Ctl()
	for {
		select {
		case ct, ok := <-ctl:
			if !ok {
				return kept
			}
			switch ct.Kind {
			case ctlProgress, ctlStop:
				v, err := decodeTotal(ct.Payload)
				switch {
				case err != nil:
					fail(fmt.Errorf("core: machine %d: %w", ct.From, err))
				case ct.Kind == ctlStop:
					stopTotal.Store(v)
					stop.Store(true)
					halt()
				case v > last[ct.From]: // the final report may overtake a periodic one
					counter.Add(ct.From*W, v-last[ct.From])
					last[ct.From] = v
				}
			case ctlAbort:
				fail(fmt.Errorf("%w by machine %d: %s", errAborted, ct.From, ct.Payload))
			default:
				kept = append(kept, ct)
			}
		case <-tick.C:
			if link.Rank() != 0 && !stop.Load() {
				link.SendCtl(0, ctlProgress, appendTotal(nil, counter.Total())) //nolint:errcheck // the final report is checked
			}
		}
	}
}

// foldToCoordinator ships what a stopped peer holds to rank 0: its
// exact update total, its tokens with their rows, its step counts, its
// user rows and its visit log (when kept).
func foldToCoordinator(link cluster.Link, ds *dataset.Dataset, users *partition.Partition, local []*localRatings,
	md *factor.Model, held [][]int32, total int64, rank, W int, lg *machineLog) error {

	err := link.SendCtl(0, ctlProgress, appendTotal(nil, total))
	send := func(kind uint8, ids []int32, row func(int, []float64)) {
		for ; err == nil && len(ids) > 0; ids = ids[min(len(ids), 512):] { // 512 rows a frame
			err = link.SendCtl(0, kind, appendRows(nil, ids[:min(len(ids), 512)], md.K, row))
		}
	}
	for _, toks := range held {
		send(ctlFold, toks, md.CopyItemRowTo64)
	}
	for w := 0; w < W; w++ {
		send(ctlUserRows, users.Part(rank*W+w), md.CopyUserRowTo64)
	}
	var counts []byte
	for _, c := range exportCounts(ds.Train, users, local, rank*W) {
		counts = binary.LittleEndian.AppendUint32(counts, uint32(c))
	}
	if err == nil {
		err = link.SendCtl(0, ctlCounts, counts)
	}
	for tag := 0; lg != nil && tag < len(lg.hops); tag++ {
		for hs := lg.hops[tag]; err == nil && len(hs) > 0; hs = hs[min(len(hs), logChunk):] {
			err = link.SendCtl(0, ctlLog, appendLogChunk(nil, uint32(tag), hs[:min(len(hs), logChunk)]))
		}
	}
	return err
}

// gather is rank 0's fold of the peers' teardown frames into its
// model, its step counts and, with the replay check on, the per-rank
// visit logs.
type gather struct {
	md     *factor.Model
	items  []int32 // folded tokens; their rows are in md
	counts []int32 // rank 0's exportCounts, to which the peers' add up
	logs   []*machineLog
}

// add folds one frame from a peer into the gather.
func (g *gather) add(ct cluster.Ctl) error {
	var err error
	switch ct.Kind {
	case ctlFold:
		err = decodeUserRows(ct.Payload, g.md.N, g.md.K, func(j int, row []float64) {
			g.md.SetItemRowFrom64(j, row)
			g.items = append(g.items, int32(j))
		})
	case ctlUserRows:
		err = decodeUserRows(ct.Payload, g.md.M, g.md.K, g.md.SetUserRowFrom64)
	case ctlCounts:
		if len(ct.Payload) != 4*len(g.counts) {
			return fmt.Errorf("core: machine %d sent %d bytes of step counts for %d ratings", ct.From, len(ct.Payload), len(g.counts))
		}
		for i := range g.counts {
			g.counts[i] += int32(binary.LittleEndian.Uint32(ct.Payload[4*i:]))
		}
	case ctlLog:
		if g.logs == nil {
			return fmt.Errorf("core: machine %d sent a visit log the run did not ask for", ct.From)
		}
		err = decodeLogChunk(ct.Payload, g.logs[ct.From], g.md.N, len(g.logs))
	default:
		return fmt.Errorf("core: unexpected control frame kind %d from machine %d", ct.Kind, ct.From)
	}
	if err != nil {
		return fmt.Errorf("core: gather from machine %d: %w", ct.From, err)
	}
	return nil
}

// appendTotal appends the payload of a progress or stop frame: one
// non-negative int64 update total.
func appendTotal(dst []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(dst, uint64(v)) }

// decodeTotal reads an appendTotal payload.
func decodeTotal(p []byte) (int64, error) {
	if len(p) != 8 || int64(binary.LittleEndian.Uint64(p)) < 0 {
		return 0, fmt.Errorf("malformed update total (%d bytes)", len(p))
	}
	return int64(binary.LittleEndian.Uint64(p)), nil
}

// appendRows appends the wire form of rows ids of one factor matrix —
// row(i, dst) copies row i, widened to float64 — to dst:
// count uint32 | count × (index int32 | k × float64).
func appendRows(dst []byte, ids []int32, k int, row func(int, []float64)) []byte {
	buf := make([]float64, k)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for _, i := range ids {
		row(int(i), buf)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		for _, v := range buf {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// decodeUserRows calls put(index, row) for each row of an appendRows
// payload meant for a matrix of m rows of rank k, in order; row is
// scratch, reused across calls. A payload whose length disagrees with
// its count, or that names a row outside [0, m), is an error and puts
// nothing.
func decodeUserRows(p []byte, m, k int, put func(u int, row []float64)) error {
	if len(p) < 4 {
		return fmt.Errorf("short row frame (%d bytes)", len(p))
	}
	count, per := binary.LittleEndian.Uint32(p), 4+8*k
	if p = p[4:]; uint64(len(p)) != uint64(count)*uint64(per) {
		return fmt.Errorf("row frame declares %d rank-%d rows in %d bytes", count, k, len(p)+4)
	}
	for x := 0; x < int(count); x++ {
		if u := int32(binary.LittleEndian.Uint32(p[x*per:])); u < 0 || int(u) >= m {
			return fmt.Errorf("row %d out of range [0,%d)", u, m)
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

// logChunk bounds the entries of one visit-log frame.
const logChunk = 1 << 15

// appendLogChunk appends a run of stream tag of a machine's log to dst:
// tag uint32 | count uint32 | count × (peer, item, seq) int32.
func appendLogChunk(dst []byte, tag uint32, hs []hop) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(le.AppendUint32(dst, tag), uint32(len(hs)))
	for _, h := range hs {
		dst = le.AppendUint32(le.AppendUint32(le.AppendUint32(dst, uint32(h.peer)), uint32(h.item)), uint32(h.seq))
	}
	return dst
}

// decodeLogChunk appends an appendLogChunk payload to lg, the log of a
// machine of a cluster of machines ranks over n items. A payload with
// a stream tag lg has not, a length that disagrees with its count, a
// peer outside [-1, machines), an item outside [0, n) or a negative
// seq is an error and appends nothing.
func decodeLogChunk(p []byte, lg *machineLog, n, machines int) error {
	le := binary.LittleEndian
	if len(p) < 8 || uint64(le.Uint32(p)) >= uint64(len(lg.hops)) || uint64(len(p)-8) != 12*uint64(le.Uint32(p[4:])) {
		return fmt.Errorf("malformed visit-log frame (%d bytes)", len(p))
	}
	hs := make([]hop, le.Uint32(p[4:]))
	for e := range hs {
		x := p[8+12*e:]
		h := hop{int32(le.Uint32(x)), int32(le.Uint32(x[4:])), int32(le.Uint32(x[8:]))}
		if h.peer < -1 || int(h.peer) >= machines || h.item < 0 || int(h.item) >= n || h.seq < 0 {
			return fmt.Errorf("visit-log entry %+v out of range", h)
		}
		hs[e] = h
	}
	tag := le.Uint32(p)
	lg.hops[tag] = append(lg.hops[tag], hs...)
	return nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nomad"
	"nomad/internal/cluster"
	"nomad/internal/factor"
	"nomad/internal/netlink"
	"nomad/internal/queue"
	"nomad/internal/sched"
	"nomad/internal/serve"
	"nomad/internal/sparse"
	"nomad/internal/topn"
	"nomad/internal/vecmath"
)

// layerDef is one per-layer metric; the layer is the part of the name
// before the first dot, a module of the repository.
type layerDef struct{ Name, Unit string }

// perLayer is every metric of the traced pass, in the order of
// BENCHMARK.json. Each workload's traced pass measures all of them over
// that workload's own inputs, so cache behaviour matches the workload.
var perLayer = []layerDef{
	{"dataset.synth_s", "s"},
	{"sparse.colwalk_ns_per_rating", "ns"},
	{"vecmath.itempass_ns_per_rating", "ns"},
	{"vecmath.itempass_ns_hot", "ns"},
	{"vecmath.dot_ns", "ns"},
	{"sched.table_step_ns", "ns"},
	{"metrics.rmse_eval_ms", "ms"},
	{"queue.mesh_ns_per_token", "ns"},
	{"queue.empty_poll_share", "share"},
	{"cluster.sender_ns_per_token", "ns"},
	{"netlink.encode_ns_per_token", "ns"},
	{"netlink.decode_ns_per_token", "ns"},
	{"netlink.loopback_tokens_per_s", "1/s"},
	{"netlink.bytes_per_token", "B"},
	{"netlink.frames_per_ktoken", "count"},
	{"core.worker_ns_per_update", "ns"},
	{"core.wire_bytes_per_update", "B"},
	{"core.wire_msgs_per_kupdate", "count"},
	{"core.unattributed_share", "share"},
	{"train.run_fixed_ms", "ms"},
	{"factor.load_ms", "ms"},
	{"serve.index_build_ms", "ms"},
	{"serve.load_epoch_ms", "ms"},
	{"serve.topn_us_p50", "us"},
	{"serve.topn_us_p98", "us"},
	{"serve.scanned_share", "share"},
	{"serve.scanned_share_p98", "share"},
	{"serve.store_acquire_ns", "ns"},
	{"serve.store_promote_us", "us"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_us_p98", "us"},
	{"topn.offer_ns", "ns"},
	{"topn.sorted_ns", "ns"},
	{"http.overhead_us_p50", "us"},
	{"serve.open250_p98_ms", "ms"},
	{"serve.open500_p98_ms", "ms"},
	{"serve.max_ok_rate", "1/s"},
	{"loadgen.late_ms_p98", "ms"},
	{"trace.updates_per_s", "1/s"},
	{"trace.http_p50_ms", "ms"},
	{"host.canary_ns", "ns"},
}

func layerUnit(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

const (
	probeBatches = 5    // timed batches per probe; the metric is their median
	probePasses  = 3    // passes over the user sequence for per-request distributions
	probeUsers   = 1200 // requests per pass: the open loop's request count at full scale
	wireBatch    = 100  // tokens per network batch, the trainer's default
	meshBlock    = 64   // tokens per mesh RecvBatch/flush, as the runner uses
)

// prober runs the traced pass: the workload's inputs replayed through
// each layer's exported functions under spans.
type prober struct {
	in   *inputs
	o    options
	r    *result
	tr   *tracer
	root int

	matrix *sparse.Matrix // the training matrix, rebuilt from the public Dataset
	nm     *nomad.Model   // in.model through the public API
}

// timed runs fn batches times, each under a span, and returns
// nanoseconds per unit of work for every batch. fn returns its units.
func (p *prober) timed(name string, batches int, fn func() int64) []float64 {
	out := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		id := p.tr.begin(name, p.root)
		t0 := time.Now()
		units := fn()
		ns := time.Since(t0).Nanoseconds()
		p.tr.end(id, units)
		out = append(out, float64(ns)/float64(max(units, 1)))
	}
	return out
}

func (p *prober) set(name string, perBatch []float64, scale float64) {
	scaled := make([]float64, len(perBatch))
	for i, v := range perBatch {
		scaled[i] = v * scale
	}
	p.r.PerLayer[name] = summarize(scaled)
}

func (p *prober) median(name string) float64 { return p.r.PerLayer[name].Median }

// runTraced is the per-layer pass of any workload.
func runTraced(w workload, o options) (*result, error) {
	r := newResult(w, o)
	r.CanaryBeforeNs = canary()
	tr := newTracer()
	root := tr.begin("workload:"+w.Name, 0)

	t0 := time.Now()
	in, err := makeInputs(w, o, o.tmp)
	if err != nil {
		return nil, err
	}
	r.GenS = time.Since(t0).Seconds() - in.synthS
	in.checkDigest(r)
	p := &prober{in: in, o: o, r: r, tr: tr, root: root}
	r.PerLayer["dataset.synth_s"] = single(in.synthS, 1)
	if err := p.rebuild(); err != nil {
		return nil, err
	}

	seg := p.sessionRun()
	p.kernelProbes()
	p.transportProbes()
	if err := p.wireProbes(); err != nil {
		return nil, err
	}
	if err := p.modelProbes(); err != nil {
		return nil, err
	}
	p.requestProbes()
	if err := p.httpProbes(); err != nil {
		return nil, err
	}
	r.canaryAfter()
	p.attribute(seg)

	tr.end(root, 0)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	return r, tr.write(fmt.Sprintf("%s/trace-%s.json", o.out, w.Name))
}

// rebuild recovers the layer-level views of the inputs from what the
// public API hands out: the sparse training matrix from UserRatings
// and the public Model from the saved model file.
func (p *prober) rebuild() error {
	ds := p.in.ds
	b := sparse.NewBuilder(ds.Users(), ds.Items(), ds.TrainSize())
	for u := 0; u < ds.Users(); u++ {
		for _, r := range ds.UserRatings(u) {
			b.Add(u, r.Item, r.Value)
		}
	}
	var err error
	if p.matrix, err = b.Build(); err != nil {
		return err
	}
	p.nm, err = loadNomadModel(p.in.modelPath)
	return err
}

// sessionRun trains one traced segment of the workload's own load
// (serving workloads: the default 2-worker load on their rating
// matrix), subscribed to the session's events, which become spans.
func (p *prober) sessionRun() segment {
	w := p.in.w
	if w.Serve {
		w.Options = func() []nomad.Option { return []nomad.Option{nomad.WithWorkers(2)} }
		w.Epochs, w.EvalPoints, w.Workers = 8, 4, 2
	}
	// Warm up as the end-to-end pass does, so that the traced and the
	// untraced updates/s differ by the tracing alone.
	if warm := runSegment(p.in.ds, w.sessionOptions(p.in.seed, warmEpochs), nil); warm.Err != nil {
		p.r.fail("warm-up segment: %v", warm.Err)
	}
	runID := p.tr.begin("core.session_run", p.root)
	done := make(chan struct{})
	var events sync.WaitGroup
	seg := runSegment(p.in.ds, w.sessionOptions(p.in.seed, w.Epochs), func(s *nomad.Session) {
		ch, cancel := s.Subscribe(256)
		events.Add(1)
		go func() {
			defer events.Done()
			defer cancel()
			epoch, last := p.tr.begin("core.epoch", runID), int64(0)
			for {
				select {
				case ev := <-ch:
					if e, ok := ev.(nomad.EpochEvent); ok {
						p.tr.end(epoch, e.Updates-last)
						epoch, last = p.tr.begin("core.epoch", runID), e.Updates
					}
				case <-done:
					p.tr.end(epoch, 0) // the tail after the last epoch boundary
					return
				}
			}
		}()
	})
	close(done)
	events.Wait()
	p.tr.end(runID, seg.Updates)
	p.r.Attempted++
	if err := seg.check(w.ceiling(p.o)); err != nil {
		p.r.wrong("traced segment: %v", err)
		seg.Updates, seg.Wall = 1, 1
		seg.Result = &nomad.Result{}
	}
	updates := float64(seg.Updates)
	p.r.PerLayer["trace.updates_per_s"] = single(updates/seg.Wall, 1)
	p.r.PerLayer["core.worker_ns_per_update"] = single(float64(w.Workers)*seg.Wall*1e9/updates, 1)
	p.r.PerLayer["core.wire_bytes_per_update"] = single(float64(seg.Result.BytesSent)/updates, 1)
	p.r.PerLayer["core.wire_msgs_per_kupdate"] = single(1e3*float64(seg.Result.MessagesSent)/updates, 1)

	fixed := append(w.Options(), nomad.WithSeed(p.in.seed), nomad.WithStopConditions(nomad.MaxUpdates(1)))
	p.set("train.run_fixed_ms", p.timed("train.run_fixed", probeBatches, func() int64 {
		if s := runSegment(p.in.ds, fixed, nil); s.Err != nil {
			p.r.fail("fixed-cost run: %v", s.Err)
		}
		return 1
	}), 1e-6)
	return seg
}

var sink float64

// kernelProbes replays the rating matrix through sparse, vecmath,
// sched and metrics.
func (p *prober) kernelProbes() {
	m, md := p.matrix, p.in.model.Clone()
	nnz := int64(m.NNZ())

	p.set("sparse.colwalk_ns_per_rating", p.timed("sparse.colwalk", probeBatches, func() int64 {
		var sum float64
		for j := 0; j < m.Cols(); j++ {
			_, pos := m.Col(j)
			for _, q := range pos {
				sum += m.ValAt(q)
			}
		}
		sink += sum
		return nnz
	}), 1)

	// The item-major copy of the ratings a single worker would hold.
	colPtr := make([]int, m.Cols()+1)
	users := make([]int32, 0, nnz)
	vals := make([]float64, 0, nnz)
	for j := 0; j < m.Cols(); j++ {
		rows, pos := m.Col(j)
		users = append(users, rows...)
		for _, q := range pos {
			vals = append(vals, m.ValAt(q))
		}
		colPtr[j+1] = len(users)
	}
	counts := make([]int32, nnz)
	table := sched.NewTable(sched.Power{Alpha: 0.05, Beta: 0.02}, 4096)
	steps, slow := table.Steps(), table.Fallback().Step
	kern := vecmath.KernelFor(rank)
	const lambda = 0.05
	wData := md.WData()
	// One serial epoch per batch, item by item, through the entry point
	// the runner calls: random user rows, so W misses are included.
	p.set("vecmath.itempass_ns_per_rating", p.timed("vecmath.itempass", probeBatches, func() int64 {
		for j := 0; j < m.Cols(); j++ {
			lo, hi := colPtr[j], colPtr[j+1]
			kern.ItemPass(wData, users[lo:hi], vals[lo:hi], counts[lo:hi], md.ItemRow(j), lambda, steps, slow)
		}
		return nnz
	}), 1)

	// The same call on one item whose 64 user rows stay in L1: the
	// arithmetic without the memory.
	const hot = 64
	hotUsers, hotVals, hotCounts := make([]int32, hot), make([]float64, hot), make([]int32, hot)
	for x := range hotUsers {
		hotUsers[x], hotVals[x] = int32(x%md.M), 3
	}
	p.set("vecmath.itempass_ns_hot", p.timed("vecmath.itempass_hot", probeBatches, func() int64 {
		const calls = 20000
		for c := 0; c < calls; c++ {
			if c%1024 == 0 {
				clear(hotCounts) // stay inside the tabulated steps
			}
			kern.ItemPass(wData, hotUsers, hotVals, hotCounts, md.ItemRow(0), lambda, steps, slow)
		}
		return calls * hot
	}), 1)

	dot := vecmath.DotKernel(rank)
	row := md.UserRow(0)
	p.set("vecmath.dot_ns", p.timed("vecmath.dot", probeBatches, func() int64 {
		var sum float64
		var n int64
		for n < 1<<20 {
			for j := 0; j < md.N; j++ {
				sum += dot(row, md.ItemRow(j))
			}
			n += int64(md.N)
		}
		sink += sum
		return n
	}), 1)

	p.set("sched.table_step_ns", p.timed("sched.table_step", probeBatches, func() int64 {
		const n = 1 << 22
		var sum float64
		for t := 0; t < n; t++ {
			sum += table.Step(t & 4095)
		}
		sink += sum
		return n
	}), 1)

	p.set("metrics.rmse_eval_ms", p.timed("metrics.rmse_eval", probeBatches, func() int64 {
		sink += p.in.ds.RMSE(p.nm)
		return 1
	}), 1e-6)
}

type meshToken struct{ item int32 }

// transportProbes measures the shared-memory token mesh and the
// sender's batching, without any SGD work between hops.
func (p *prober) transportProbes() {
	// 2 endpoints pass payload-free tokens to random destinations in
	// runner-sized blocks until hops token receives have happened.
	tokens := min(p.in.ds.Items(), 1<<16)
	ringCap := 1
	for ringCap < 2*tokens {
		ringCap *= 2
	}
	var polls, empty atomic.Int64
	mesh := p.timed("queue.mesh", probeBatches, func() int64 {
		const hops = 1 << 21
		m := queue.NewMesh[meshToken](2, ringCap)
		for j := 0; j < tokens; j++ {
			m.Send(j&1, j&1, meshToken{int32(j)})
		}
		var done atomic.Int64
		var wg sync.WaitGroup
		for q := 0; q < 2; q++ {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				var in [meshBlock]meshToken
				var out [2][]meshToken
				rnd := uint64(q + 1)
				var myPolls, myEmpty int64
				for done.Load() < hops {
					k := m.RecvBatch(q, in[:])
					myPolls++
					if k == 0 {
						myEmpty++
						runtime.Gosched()
						continue
					}
					for _, tok := range in[:k] {
						rnd = rnd*6364136223846793005 + 1442695040888963407
						d := int(rnd >> 63)
						out[d] = append(out[d], tok)
					}
					for d := range out {
						rest := copy(out[d], out[d][m.SendBatch(q, d, out[d]):])
						out[d] = out[d][:rest]
					}
					done.Add(int64(k))
				}
				polls.Add(myPolls)
				empty.Add(myEmpty)
			}(q)
		}
		wg.Wait()
		return done.Load() / 2 // two endpoints worked in parallel: ns per token per worker
	})
	p.set("queue.mesh_ns_per_token", mesh, 1)
	p.r.PerLayer["queue.empty_poll_share"] = single(float64(empty.Load())/float64(max(polls.Load(), 1)), int(polls.Load()))

	md := p.in.model
	sender := cluster.NewSender(discardLink{machines: 2}, wireBatch, nil)
	p.set("cluster.sender_ns_per_token", p.timed("cluster.sender", probeBatches, func() int64 {
		const n = 200000
		for i := 0; i < n; i++ {
			j := i % md.N
			sender.Add(1, cluster.Token{Item: int32(j), Vec: md.ItemRow(j)})
		}
		sender.FlushAll() //nolint:errcheck // the discarding link cannot fail
		return n
	}), 1)
}

// discardLink is a Link that accepts and drops every batch, so the
// sender's own work is all that is timed. The sender uses no other
// method of the interface.
type discardLink struct {
	cluster.Link
	machines int
}

func (l discardLink) Machines() int                      { return l.machines }
func (l discardLink) Send(int, cluster.TokenBatch) error { return nil }

// wireProbes measures the token codec alone and then two real TCP
// links over loopback.
func (p *prober) wireProbes() error {
	md := p.in.model
	buf := cluster.NewBatchBuf()
	for i := 0; i < wireBatch; i++ {
		buf.Add(int32(i%md.N), md.ItemRow(i%md.N))
	}
	batch := buf.Batch(0)
	var frame []byte
	var encodeErr error
	p.set("netlink.encode_ns_per_token", p.timed("netlink.encode", probeBatches, func() int64 {
		const frames = 2000
		for i := 0; i < frames; i++ {
			frame, encodeErr = netlink.AppendTokenFrame(frame[:0], 0, batch, rank)
		}
		return frames * wireBatch
	}), 1)
	if encodeErr != nil {
		return fmt.Errorf("encode: %w", encodeErr)
	}
	fr, err := netlink.ReadFrame(bytes.NewReader(frame))
	if err != nil {
		return fmt.Errorf("read back frame: %w", err)
	}
	arena := cluster.NewBatchBuf()
	var decodeErr error
	p.set("netlink.decode_ns_per_token", p.timed("netlink.decode", probeBatches, func() int64 {
		const frames = 2000
		for i := 0; i < frames; i++ {
			_, decodeErr = netlink.DecodeTokenBatchInto(fr.Payload, rank, arena)
		}
		return frames * wireBatch
	}), 1)
	if decodeErr != nil {
		return fmt.Errorf("decode: %w", decodeErr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	links, err := netlink.Loopback(ctx, 2, 1, make([]int32, md.N), nil, netlink.Options{K: rank})
	if err != nil {
		return fmt.Errorf("loopback links: %w", err)
	}
	var received atomic.Int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for in := range links[1].Recv() {
			received.Add(int64(len(in.Batch.Tokens)))
			in.Batch.Release()
		}
	}()
	before := links[0].Stats()
	var sent int64
	var sendErr error
	perToken := p.timed("netlink.loopback", probeBatches, func() int64 {
		const frames = 2000
		for i := 0; i < frames && sendErr == nil; i++ {
			sendErr = links[0].Send(1, batch)
		}
		sent += frames * wireBatch
		for received.Load() < sent && sendErr == nil && links[1].Err() == nil {
			runtime.Gosched()
		}
		return frames * wireBatch
	})
	after := links[0].Stats()
	for _, l := range links {
		l.CloseSend() //nolint:errcheck // teardown
	}
	<-drained
	for _, l := range links {
		l.Close() //nolint:errcheck // teardown
	}
	if sendErr != nil {
		return fmt.Errorf("loopback send: %w", sendErr)
	}
	rates := make([]float64, len(perToken))
	for i, ns := range perToken {
		rates[i] = 1e9 / ns
	}
	p.r.PerLayer["netlink.loopback_tokens_per_s"] = summarize(rates)
	p.r.PerLayer["netlink.bytes_per_token"] = single(float64(after.BytesSent-before.BytesSent)/float64(sent), int(sent))
	p.r.PerLayer["netlink.frames_per_ktoken"] = single(1e3*float64(after.MessagesSent-before.MessagesSent)/float64(sent), int(sent))
	return nil
}

// modelProbes times what a model swap does: read, index, load.
func (p *prober) modelProbes() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.set("factor.load_ms", p.timed("factor.load", probeBatches, func() int64 {
		f, err := os.Open(p.in.modelPath)
		if err != nil {
			keep(err)
			return 1
		}
		defer f.Close()
		_, err = factor.ReadBinary(f)
		keep(err)
		return 1
	}), 1e-6)
	p.set("serve.index_build_ms", p.timed("serve.index_build", probeBatches, func() int64 {
		serve.BuildIndex(p.in.model, nil)
		return 1
	}), 1e-6)
	p.set("serve.load_epoch_ms", p.timed("serve.load_epoch", probeBatches, func() int64 {
		_, err := serve.LoadEpoch(p.in.modelPath, 1, nil)
		keep(err)
		return 1
	}), 1e-6)
	return firstErr
}

// rated is the exclusion list the serving stack applies for a user:
// the training row on the serving workloads, none on the training
// workloads (their traced server starts without a matrix).
func (p *prober) rated(user int32) []int32 {
	if p.in.matrixPath == "" {
		return nil
	}
	return p.in.ds.RatedItems(int(user))
}

// memWriter is an http.ResponseWriter that keeps the body in memory.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) WriteHeader(status int)      { w.status = status }

// requestProbes replays the workload's exact user sequence through the
// read path in process: index scan, store, handler, heap.
func (p *prober) requestProbes() {
	md := p.in.model
	ix := serve.BuildIndex(md, nil)
	users := p.in.users[:min(probeUsers, len(p.in.users))]

	var p50, p98, share, share98 []float64
	heap := topn.NewHeap(serveTopN)
	for pass := 0; pass < probePasses; pass++ {
		id := p.tr.begin("serve.topn_pass", p.root)
		us := make([]float64, len(users))
		sh := make([]float64, len(users))
		for i, u := range users {
			heap.Reset(serveTopN)
			t0 := time.Now()
			st := ix.TopN(md.UserRow(int(u)), nil, md.UserNorm(int(u)), p.rated(u), heap)
			us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
			sh[i] = float64(st.Scanned) / float64(max(st.Scanned+st.Pruned, 1))
		}
		p.tr.end(id, int64(len(users)))
		p50, p98 = append(p50, percentile(us, 50)), append(p98, percentile(us, 98))
		var mean float64
		for _, s := range sh {
			mean += s / float64(len(sh))
		}
		share, share98 = append(share, mean), append(share98, percentile(sh, 98))
	}
	p.r.PerLayer["serve.topn_us_p50"] = summarize(p50)
	p.r.PerLayer["serve.topn_us_p98"] = summarize(p98)
	p.r.PerLayer["serve.scanned_share"] = summarize(share)
	p.r.PerLayer["serve.scanned_share_p98"] = summarize(share98)

	store := serve.NewStore()
	store.Promote(&serve.Epoch{Seq: 1, Model: md, Index: ix})
	p.set("serve.store_acquire_ns", p.timed("serve.store_acquire", probeBatches, func() int64 {
		const n = 1 << 20
		for i := 0; i < n; i++ {
			store.Acquire().Release()
		}
		return n
	}), 1)
	// Promote while one reader loops on Acquire/Release, as a request
	// would during a swap.
	var stop atomic.Bool
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for !stop.Load() {
			store.Acquire().Release()
		}
	}()
	seq := uint64(1)
	p.set("serve.store_promote_us", p.timed("serve.store_promote", probeBatches, func() int64 {
		const n = 1000
		for i := 0; i < n; i++ {
			seq++
			store.Promote(&serve.Epoch{Seq: seq, Model: md, Index: ix})
		}
		return n
	}), 1e-3)
	stop.Store(true)
	reader.Wait()

	handler := serve.NewServer(serve.Config{Store: store, Rated: p.ratedFunc()}).Handler()
	reqs := make([]*http.Request, len(users))
	for i, u := range users {
		reqs[i] = httptest.NewRequest("GET", fmt.Sprintf("/v1/recommend?user=%d&n=%d", u, serveTopN), nil)
	}
	p50, p98 = nil, nil
	w := &memWriter{header: http.Header{}}
	for pass := 0; pass < probePasses; pass++ {
		id := p.tr.begin("serve.handler_pass", p.root)
		us := make([]float64, len(users))
		for i, req := range reqs {
			w.body.Reset()
			t0 := time.Now()
			handler.ServeHTTP(w, req)
			us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		p.tr.end(id, int64(len(users)))
		p50, p98 = append(p50, percentile(us, 50)), append(p98, percentile(us, 98))
	}
	p.r.PerLayer["serve.handler_us_p50"] = summarize(p50)
	p.r.PerLayer["serve.handler_us_p98"] = summarize(p98)

	// The heap alone: the scores a scan would offer, for 100 users over
	// a fixed slice of the catalog.
	const sampled, perUser = 100, 2000
	dot := vecmath.DotKernel(rank)
	offers := make([][]topn.Rec, min(sampled, len(users)))
	for i := range offers {
		row := md.UserRow(int(users[i]))
		for j := 0; j < min(perUser, md.N); j++ {
			offers[i] = append(offers[i], topn.Rec{Item: int32(j), Score: dot(row, md.ItemRow(j))})
		}
	}
	heaps := make([]*topn.Heap, len(offers))
	for i := range heaps {
		heaps[i] = topn.NewHeap(serveTopN)
	}
	var sortedNs []float64
	p.set("topn.offer_ns", p.timed("topn.offer", probeBatches, func() int64 {
		var n int64
		for i, recs := range offers {
			heaps[i].Reset(serveTopN)
			for _, rec := range recs {
				heaps[i].Offer(rec)
			}
			n += int64(len(recs))
		}
		// Sorted consumes the heaps the offers just filled; it is timed
		// here, outside the span's unit count, once per batch.
		t0 := time.Now()
		for _, h := range heaps {
			sink += float64(len(h.Sorted()))
		}
		sortedNs = append(sortedNs, float64(time.Since(t0).Nanoseconds())/float64(len(heaps)))
		return n
	}), 1)
	p.r.PerLayer["topn.sorted_ns"] = summarize(sortedNs)
}

func (p *prober) ratedFunc() func(int32) []int32 {
	if p.in.matrixPath == "" {
		return nil
	}
	return p.rated
}

// httpProbes starts a nomad-serve child on the workload's model and
// measures what only shows over the wire: net/http overhead and the
// rate ladder.
func (p *prober) httpProbes() error {
	srv, err := startServer(p.o.serveBin, p.in.serverArgs("")...)
	if err != nil {
		return err
	}
	defer srv.stop()
	h := newHTTPConns(srv.base, loadConns)
	defer h.close()
	if _, err := untilOK(h, "/healthz", 30*time.Second); err != nil {
		return err
	}
	orc, err := newOracle(p.in)
	if err != nil {
		return err
	}
	user := func(slot int) int32 { return p.in.users[slot%len(p.in.users)] }
	// Every request of the traced pass is a span.
	phase := p.root
	recommend := func(conn, slot int) call {
		id := p.tr.begin("http.request", phase)
		c := h.recommend(conn, user(slot))
		p.tr.end(id, 1)
		return c
	}
	closedLoop(time.Minute, warmupReqs, loadConns, recommend)

	step := p.o.seconds / 10 // the ladder and the closed loop share under half the measuring time
	phase = p.tr.begin("http.closed_loop_1", p.root)
	var lat []float64
	for _, s := range closedLoop(time.Duration(step*float64(time.Second)), 0, 1, recommend) {
		if s.Status == 200 {
			lat = append(lat, s.latencyMs()*1e3)
		}
	}
	p.tr.end(phase, int64(len(lat)))
	p.r.PerLayer["http.overhead_us_p50"] = single(percentile(lat, 50)-p.median("serve.handler_us_p50"), len(lat))

	maxOK := 0.0
	for _, rate := range []float64{100, 250, 500} {
		phase = p.tr.begin(fmt.Sprintf("http.open_loop_%.0f", rate), p.root)
		slots := int(rate * step)
		samples := openLoop(rate, slots, loadConns, time.Second, recommend)
		p.tr.end(phase, int64(slots))
		_, latency, ok := p.r.account(samples, p.in.users, orc)
		var late []float64
		for _, s := range samples {
			if !s.Unsent {
				late = append(late, s.lateMs())
			}
		}
		if float64(ok)/float64(slots) >= 0.98 {
			maxOK = rate
		}
		switch rate {
		case 100:
			p.r.PerLayer["trace.http_p50_ms"] = single(percentile(latency, 50), len(latency))
			p.r.PerLayer["loadgen.late_ms_p98"] = single(percentile(late, 98), len(late))
		case 250:
			p.r.PerLayer["serve.open250_p98_ms"] = single(percentile(latency, 98), len(latency))
		case 500:
			p.r.PerLayer["serve.open500_p98_ms"] = single(percentile(latency, 98), len(latency))
		}
	}
	p.r.PerLayer["serve.max_ok_rate"] = single(maxOK, 3)
	return nil
}

// attribute prints where the traced segment's worker time and a
// request's time go, layer by layer, and records what is left over.
// The layer costs come from the replays above, so the remainder holds
// the runner's own loop, idle back-off and whatever replaying in
// isolation gets wrong; it is reported, not gated.
func (p *prober) attribute(seg segment) {
	out := p.o.stdout
	w := p.in.w
	workers := 2.0
	if !w.Serve {
		workers = float64(w.Workers)
	}
	total := workers * seg.Wall * 1e9
	updates := float64(seg.Updates)
	// Every item token is processed once per worker per epoch.
	visits := updates / float64(p.in.ds.TrainSize()) * float64(p.in.ds.Items()) * workers
	wireTokens := 0.0
	if bpt := p.median("netlink.bytes_per_token"); bpt > 0 {
		wireTokens = float64(seg.Result.BytesSent) / bpt
	}
	rows := []struct {
		name  string
		ns    float64
		count float64
	}{
		{"vecmath.itempass_ns_per_rating", p.median("vecmath.itempass_ns_per_rating"), updates},
		{"queue.mesh_ns_per_token", p.median("queue.mesh_ns_per_token"), visits},
		{"metrics.rmse_eval_ms", p.median("metrics.rmse_eval_ms") * 1e6, float64(len(seg.Result.Trace))},
		{"cluster.sender_ns_per_token", p.median("cluster.sender_ns_per_token"), wireTokens},
		{"netlink.encode_ns_per_token", p.median("netlink.encode_ns_per_token"), wireTokens},
		{"netlink.decode_ns_per_token", p.median("netlink.decode_ns_per_token"), wireTokens},
	}
	fmt.Fprintf(out, "%-13s attribution of the traced segment: %.0f workers x %.3f s = %.3g worker-ns, %.0f updates\n", w.Name, workers, seg.Wall, total, updates)
	attributed := 0.0
	for _, row := range rows {
		ns := row.ns * row.count
		attributed += ns
		fmt.Fprintf(out, "%-13s   %-32s %10.2f ns x %12.0f = %5.1f%%\n", w.Name, row.name, row.ns, row.count, 100*ns/total)
	}
	rest := 1 - attributed/total
	fmt.Fprintf(out, "%-13s   %-32s %41.1f%%\n", w.Name, "core.unattributed_share", 100*rest)
	p.r.PerLayer["core.unattributed_share"] = single(rest, 1)

	handler, scan := p.median("serve.handler_us_p50"), p.median("serve.topn_us_p50")
	fmt.Fprintf(out, "%-13s attribution of a request at p50: handler %.1f us = acquire %.3f + topn %.1f + sorted %.3f + parse/exclude/json %.1f; http p50 = handler + %.1f us of net/http and loopback\n",
		w.Name, handler, p.median("serve.store_acquire_ns")/1e3, scan, p.median("topn.sorted_ns")/1e3,
		handler-scan-p.median("serve.store_acquire_ns")/1e3-p.median("topn.sorted_ns")/1e3, p.median("http.overhead_us_p50"))
}

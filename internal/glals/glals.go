// Package glals emulates the GraphLab comparators of the paper's
// Appendix F: a distributed ALS in which every row update must acquire
// read access to remote neighbour rows over the network, and the
// "biassgd" bias-model SGD.
//
// GraphLab's distributed ALS updates wᵢ with eq. (3), which needs hⱼ
// for every j ∈ Ωᵢ. When those rows live on other machines, GraphLab
// read-locks and fetches them across the network (§4.2). This package
// reproduces that cost structure: factor rows are partitioned over
// machines, each machine runs a lock-manager goroutine that serializes
// access to its rows, and every row update by a worker requires one
// request/reply round trip per remote machine involved. A popular user
// therefore triggers wide fetches — the behaviour the paper blames for
// GraphLab being orders of magnitude slower than NOMAD (Figs 21–23),
// especially on commodity networks.
package glals

import (
	"context"
	"sync/atomic"
	"time"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/netsim"
	"nomad/internal/parallel"
	"nomad/internal/partition"
	"nomad/internal/train"
	"nomad/internal/vecmath"
)

// GLALS is the GraphLab-style distributed ALS solver.
type GLALS struct{}

// New returns a GraphLab-style ALS solver.
func New() *GLALS { return &GLALS{} }

// Name implements train.Algorithm.
func (*GLALS) Name() string { return "glals" }

// fetchReq asks a machine's lock manager for copies of factor rows.
type fetchReq struct {
	replyTo int  // requesting machine
	worker  int  // global worker id for reply routing
	items   bool // true: fetch item rows, false: fetch user rows
	ids     []int32
}

// fetchReply returns the requested rows, k floats each, concatenated.
type fetchReply struct {
	worker int
	data   []float64
}

// fabric is the request/reply plumbing shared by the solvers here.
type fabric struct {
	net      *netsim.Network
	md       *factor.Model
	k        int
	machines int
	replies  []chan fetchReply // per global worker
	pumpDone chan struct{}
}

// newFabric starts one lock-manager pump per machine. The pump owns
// all access to its machine's rows from the network side, which is the
// serialization point that stands in for GraphLab's lock manager.
func newFabric(net *netsim.Network, md *factor.Model, k, machines, workersPer int) *fabric {
	f := &fabric{
		net:      net,
		md:       md,
		k:        k,
		machines: machines,
		replies:  make([]chan fetchReply, machines*workersPer),
		pumpDone: make(chan struct{}),
	}
	for w := range f.replies {
		f.replies[w] = make(chan fetchReply, 4)
	}
	for mc := 0; mc < machines; mc++ {
		go f.pump(mc)
	}
	return f
}

// pump services fetch requests against local rows and routes replies
// back to the waiting worker.
func (f *fabric) pump(mc int) {
	for msg := range f.net.Recv(mc) {
		switch req := msg.Payload.(type) {
		case fetchReq:
			data := make([]float64, 0, len(req.ids)*f.k)
			for _, id := range req.ids {
				if req.items {
					data = append(data, f.md.ItemRow(int(id))...)
				} else {
					data = append(data, f.md.UserRow(int(id))...)
				}
			}
			f.net.Send(mc, req.replyTo, 16+8*len(data), fetchReply{worker: req.worker, data: data})
		case fetchReply:
			f.replies[req.worker] <- req
		}
	}
}

// fetch performs one blocking lock-and-read round trip: worker on
// machine `from` obtains copies of rows `ids` from machine `owner`.
func (f *fabric) fetch(from, owner, worker int, items bool, ids []int32) []float64 {
	f.net.Send(from, owner, 16+4*len(ids), fetchReq{replyTo: from, worker: worker, items: items, ids: ids})
	rep := <-f.replies[worker]
	return rep.data
}

// Train implements train.Algorithm: synchronous ALS sweeps where every
// remote row read pays a network round trip.
func (*GLALS) Train(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks) (*train.Result, error) {
	cfg, err := cfg.Normalize(ds)
	if err != nil {
		return nil, err
	}
	if err := cfg.RequireFloat64("glals"); err != nil {
		return nil, err
	}
	if err := cfg.Resume.Validate("glals", ds.Rows(), ds.Cols(), cfg.K); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	M, W := cfg.Machines, cfg.Workers
	p := M * W
	m, n := ds.Rows(), ds.Cols()
	k := cfg.K
	// Like plain ALS, the factors and update total are the whole
	// cross-sweep state.
	var md *factor.Model
	var resumed int64
	sweeps := 0
	if st := cfg.Resume; st != nil {
		md = st.Model
		resumed = st.Updates
		sweeps = int(st.Ring) // EpochEvent numbering continues
	} else {
		md = factor.NewInit(m, n, k, cfg.Seed)
	}
	tr := ds.Train
	userPart := partition.EqualRanges(m, M)
	itemPart := partition.EqualRanges(n, M)

	net := netsim.New(M, cfg.Profile)
	f := newFabric(net, md, k, M, W)
	defer net.Shutdown()

	counter := train.NewCounterFor(cfg, p)
	rec := train.NewRecorderFor(cfg, ds.Test, md, hooks)
	start := time.Now()
	var updates atomic.Int64
	updates.Store(resumed)

	// Scratch per worker.
	grams := make([][]float64, p)
	rhss := make([][]float64, p)
	rows := make([][]float64, p) // gathered neighbour rows
	for q := 0; q < p; q++ {
		grams[q] = make([]float64, k*k)
		rhss[q] = make([]float64, k)
	}

	for !train.StopCheck(ctx, cfg, start, updates.Load()) {
		// User sweep: machines update their own users in parallel;
		// remote item rows are fetched through the fabric.
		sweep(f, md, tr, userPart, itemPart, M, W, true, cfg.Lambda, k,
			grams, rhss, rows, counter, &updates)
		// Item sweep: symmetric.
		sweep(f, md, tr, itemPart, userPart, M, W, false, cfg.Lambda, k,
			grams, rhss, rows, counter, &updates)
		sweeps++
		hooks.EmitEpoch(train.EpochEvent{Epoch: sweeps, Updates: updates.Load()})
		if M > 1 {
			hooks.EmitNetwork(train.NetworkEvent{BytesSent: net.BytesSent(), MessagesSent: net.MessagesSent()})
		}
		if rec.Due(updates.Load()) {
			rec.Sample(md, updates.Load())
		}
	}
	rmse := rec.Sample(md, updates.Load())

	return &train.Result{
		Algorithm:    "glals",
		Model:        md,
		TestRMSE:     rmse,
		Trace:        rec.Trace(),
		Updates:      updates.Load(),
		Elapsed:      rec.Elapsed(),
		BytesSent:    net.BytesSent(),
		MessagesSent: net.MessagesSent(),
		Final: &train.State{
			Algorithm: "glals",
			Seed:      cfg.Seed,
			Updates:   updates.Load(),
			Ring:      int64(sweeps),
			Model:     md,
		},
	}, ctx.Err()
}

// sweep updates one side's rows (users if userSide, else items) with
// the ALS normal equations, paying a fetch round trip to every remote
// machine whose rows the update reads.
func sweep(f *fabric, md *factor.Model, tr interface {
	Row(int) ([]int32, []float64)
	Col(int) ([]int32, []int64)
	ValAt(int64) float64
}, ownPart, otherPart *partition.Partition, M, W int, userSide bool,
	lambda float64, k int, grams, rhss, gathered [][]float64,
	counter *train.Counter, updates *atomic.Int64) {

	parallel.For(M, M, func(_, mcLo, mcHi int) {
		for mc := mcLo; mc < mcHi; mc++ {
			own := ownPart.Part(mc)
			parallel.For(W, len(own), func(lw, lo, hi int) {
				worker := mc*W + lw
				var touched int64
				for x := lo; x < hi; x++ {
					id := int(own[x])
					var neighbors []int32
					var values []float64
					if userSide {
						cols, vals := tr.Row(id)
						neighbors, values = cols, vals
					} else {
						rws, pos := tr.Col(id)
						neighbors = rws
						values = make([]float64, len(pos))
						for y, pp := range pos {
							values[y] = tr.ValAt(pp)
						}
					}
					if len(neighbors) == 0 {
						continue
					}
					// A user update reads item rows and vice versa.
					nb := gatherRows(f, md, mc, worker, neighbors, otherPart, userSide, k)
					gram := grams[worker]
					rhs := rhss[worker]
					for y := range gram {
						gram[y] = 0
					}
					for y := range rhs {
						rhs[y] = 0
					}
					for y := range neighbors {
						row := nb[y*k : y*k+k]
						vecmath.AddOuterScaled(gram, row, 1, k)
						vecmath.Axpy(values[y], row, rhs)
					}
					for l := 0; l < k; l++ {
						gram[l*k+l] += lambda * float64(len(neighbors))
					}
					if err := vecmath.CholeskySolve(gram, rhs, k); err == nil {
						if userSide {
							copy(md.UserRow(id), rhs)
						} else {
							copy(md.ItemRow(id), rhs)
						}
					}
					touched += int64(len(neighbors))
				}
				counter.Add(worker, touched)
				updates.Add(touched)
				_ = gathered
			})
		}
	})
}

// gatherRows collects the factor rows of the given neighbour ids in
// order: local rows are read directly, remote rows cost one fetch
// round trip per owning machine.
func gatherRows(f *fabric, md *factor.Model, mc, worker int, ids []int32,
	owners *partition.Partition, itemsSide bool, k int) []float64 {

	out := make([]float64, len(ids)*k)
	// Group remote ids by owner.
	var remote map[int][]int32
	var remoteSlot map[int][]int
	for x, id := range ids {
		owner := owners.Owner(int(id))
		if owner == mc {
			if itemsSide {
				copy(out[x*k:], md.ItemRow(int(id)))
			} else {
				copy(out[x*k:], md.UserRow(int(id)))
			}
			continue
		}
		if remote == nil {
			remote = make(map[int][]int32)
			remoteSlot = make(map[int][]int)
		}
		remote[owner] = append(remote[owner], id)
		remoteSlot[owner] = append(remoteSlot[owner], x)
	}
	for owner, rids := range remote {
		data := f.fetch(mc, owner, worker, itemsSide, rids)
		for y, slot := range remoteSlot[owner] {
			copy(out[slot*k:slot*k+k], data[y*k:y*k+k])
		}
	}
	return out
}

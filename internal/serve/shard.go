package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/factor"
	"nomad/internal/topn"
)

// Control-frame kinds for the serving scatter/gather plane. The
// trainer's multi-process runner owns 1-7 and failover owns 16+, so
// serving takes a disjoint high block.
const (
	ctlServeReq  uint8 = 0x40 // gateway → shard: top-N query
	ctlServeResp uint8 = 0x41 // shard → gateway: scored part
)

// Shard response status bytes.
const (
	shardOK      uint8 = 0 // payload carries (item,score) pairs
	shardEmpty   uint8 = 1 // shard has no epoch loaded yet
	shardBadReq  uint8 = 2 // malformed or shape-mismatched request
	shardRefused uint8 = 3 // shard is shutting down
)

// shardReq is one scatter query. The user's factor row travels with
// the request (as float64 — exact for float32 rows, which round-trip
// the widening without loss), so shards never need the user matrix;
// the sorted rated list travels too, so shards exclude before filling
// their heaps and the per-shard top-N merge stays exact.
type shardReq struct {
	id    uint64
	user  int32
	n     int32
	row   []float64
	rated []int32
}

// encodeShardReq appends the wire form of r: little-endian
// id u64 | user i32 | n i32 | k u32 | rated u32 | k×f64 | rated×i32.
func encodeShardReq(buf []byte, r shardReq) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.id)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.user))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.row)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.rated)))
	for _, v := range r.row {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, j := range r.rated {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(j))
	}
	return buf
}

func decodeShardReq(p []byte) (shardReq, error) {
	var r shardReq
	if len(p) < 20 {
		return r, fmt.Errorf("serve: short shard request (%d bytes)", len(p))
	}
	r.id = binary.LittleEndian.Uint64(p)
	r.user = int32(binary.LittleEndian.Uint32(p[8:]))
	r.n = int32(binary.LittleEndian.Uint32(p[12:]))
	k := int(binary.LittleEndian.Uint32(p[16:]))
	if len(p) < 24 {
		return r, fmt.Errorf("serve: short shard request (%d bytes)", len(p))
	}
	nr := int(binary.LittleEndian.Uint32(p[20:]))
	need := 24 + 8*k + 4*nr
	if k < 0 || nr < 0 || k > 1<<16 || len(p) != need {
		return r, fmt.Errorf("serve: shard request length %d != %d (k=%d rated=%d)", len(p), need, k, nr)
	}
	r.row = make([]float64, k)
	off := 24
	for i := range r.row {
		r.row[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
		off += 8
	}
	r.rated = make([]int32, nr)
	for i := range r.rated {
		r.rated[i] = int32(binary.LittleEndian.Uint32(p[off:]))
		off += 4
	}
	return r, nil
}

// shardResp is one gathered part: the shard's local top-N (already
// exclusion-filtered) plus the epoch it was scored against.
type shardResp struct {
	id     uint64
	status uint8
	epoch  uint64
	recs   []topn.Rec
	stats  ScanStats
}

// encodeShardResp appends the wire form: id u64 | status u8 | epoch
// u64 | scanned u32 | pruned u32 | count u32 | count×(item i32 +
// score f64).
func encodeShardResp(buf []byte, r shardResp) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.id)
	buf = append(buf, r.status)
	buf = binary.LittleEndian.AppendUint64(buf, r.epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.stats.Scanned))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.stats.Pruned))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.recs)))
	for _, rec := range r.recs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Item))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Score))
	}
	return buf
}

func decodeShardResp(p []byte) (shardResp, error) {
	var r shardResp
	if len(p) < 29 {
		return r, fmt.Errorf("serve: short shard response (%d bytes)", len(p))
	}
	r.id = binary.LittleEndian.Uint64(p)
	r.status = p[8]
	r.epoch = binary.LittleEndian.Uint64(p[9:])
	r.stats.Scanned = int(binary.LittleEndian.Uint32(p[17:]))
	r.stats.Pruned = int(binary.LittleEndian.Uint32(p[21:]))
	count := int(binary.LittleEndian.Uint32(p[25:]))
	if count < 0 || len(p) != 29+12*count {
		return r, fmt.Errorf("serve: shard response length %d != %d (count=%d)", len(p), 29+12*count, count)
	}
	r.recs = make([]topn.Rec, count)
	off := 29
	for i := range r.recs {
		r.recs[i].Item = int32(binary.LittleEndian.Uint32(p[off:]))
		r.recs[i].Score = math.Float64frombits(binary.LittleEndian.Uint64(p[off+4:]))
		off += 12
	}
	return r, nil
}

// GatherResult is one completed scatter/gather query.
type GatherResult struct {
	// Recs is the exact merged top-N in the shared deterministic order.
	Recs []topn.Rec
	// Epoch is the highest epoch any answering shard scored with (shards
	// may briefly disagree mid-swap; each part is internally consistent
	// because a shard holds one epoch reference per request).
	Epoch uint64
	// Shards is how many shard parts (including the gateway's own local
	// part, when it serves one) went into the merge.
	Shards int
	// Partial reports that one or more shard parts are missing because a
	// peer is down and the gateway was configured to degrade gracefully
	// (SetAllowPartial) instead of failing the query.
	Partial bool
	// Stats sums the candidate-scan accounting across shards.
	Stats ScanStats
}

// ErrGatherTimeout reports that one or more shards missed the gather
// deadline; the request fails rather than returning a silently
// partial (wrong) top-N.
var ErrGatherTimeout = fmt.Errorf("serve: shard gather timed out")

// errShardEmpty reports that a shard has no epoch loaded.
var errShardEmpty = fmt.Errorf("serve: shard has no model loaded")

// Gateway scatters top-N queries to every peer shard over a
// cluster.Link and gathers the exact merge. It owns the link's
// control-frame receive side; run Dispatch in a goroutine for the
// gateway's lifetime.
type Gateway struct {
	link    cluster.Link
	local   *Store // gateway's own shard (nil when it serves none)
	timeout time.Duration

	// allowPartial degrades instead of failing when a shard peer is
	// down: queries merge the parts that did answer and are flagged
	// Partial. Set before traffic flows (SetAllowPartial).
	allowPartial bool

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan shardResp

	timeouts atomic.Int64
	peerDown atomic.Int64
	partials atomic.Int64
}

// NewGateway builds a gateway over link. local, when non-nil, is the
// gateway's own item shard, scanned in-process instead of over the
// wire. timeout bounds each gather (default 2s).
func NewGateway(link cluster.Link, local *Store, timeout time.Duration) *Gateway {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &Gateway{
		link:    link,
		local:   local,
		timeout: timeout,
		pending: make(map[uint64]chan shardResp),
	}
}

// Timeouts returns how many gathers have missed the deadline.
func (g *Gateway) Timeouts() int64 { return g.timeouts.Load() }

// SetAllowPartial selects the degraded-serving policy for dead shard
// peers: merge and flag the parts that answered rather than failing
// the query. Call before traffic flows.
func (g *Gateway) SetAllowPartial(v bool) { g.allowPartial = v }

// Degraded returns the peer-failure accounting: queries that saw a
// dead shard peer, and queries answered with a partial merge.
func (g *Gateway) Degraded() (peerDown, partial int64) {
	return g.peerDown.Load(), g.partials.Load()
}

// Dispatch routes inbound shard responses to their waiting gathers
// until the link's control channel closes. Run it in one goroutine.
func (g *Gateway) Dispatch() {
	for ct := range g.link.Ctl() {
		if ct.Kind != ctlServeResp {
			continue
		}
		resp, err := decodeShardResp(ct.Payload)
		if err != nil {
			continue // corrupt frame; the gather times out and reports
		}
		g.mu.Lock()
		ch := g.pending[resp.id]
		g.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// Gather answers one top-N query: scatter to every peer shard,
// scan the local shard (if any) while responses stream in, and merge
// the disjoint parts exactly. rated must be ascending-sorted.
func (g *Gateway) Gather(user int32, n int, row []float64, rated []int32) (GatherResult, error) {
	var res GatherResult
	peers := g.link.Machines() - 1
	id := g.nextID.Add(1)
	ch := make(chan shardResp, peers)
	g.mu.Lock()
	g.pending[id] = ch
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.pending, id)
		g.mu.Unlock()
	}()

	req := shardReq{id: id, user: user, n: int32(n), row: row, rated: rated}
	if peers > 0 {
		if err := g.link.SendCtl(-1, ctlServeReq, encodeShardReq(nil, req)); err != nil {
			var pd *cluster.PeerDownError
			if !errors.As(err, &pd) {
				return res, fmt.Errorf("serve: scatter: %w", err)
			}
			// A shard machine is down. Without the degraded policy the
			// typed error propagates (the HTTP layer maps it to 503 +
			// Retry-After); with it, the query is answered from whatever
			// parts remain — only the gateway's own shard here, since a
			// failed whole-link scatter reached no peer.
			g.peerDown.Add(1)
			if !g.allowPartial || g.local == nil {
				return res, err
			}
			peers = 0
			res.Partial = true
		}
	}

	parts := make([][]topn.Rec, 0, peers+1)
	if g.local != nil {
		sc := localPool.Get().(*localScratch)
		defer localPool.Put(sc) // part.recs is read until the merge
		part, err := answerLocal(g.local, req, sc)
		if err != nil {
			return res, err
		}
		parts = append(parts, part.recs)
		res.Shards++
		res.Stats.Scanned += part.stats.Scanned
		res.Stats.Pruned += part.stats.Pruned
		if part.epoch > res.Epoch {
			res.Epoch = part.epoch
		}
	}

	deadline := time.NewTimer(g.timeout)
	defer deadline.Stop()
gather:
	for got := 0; got < peers; got++ {
		select {
		case resp := <-ch:
			switch resp.status {
			case shardOK:
			case shardEmpty:
				return res, errShardEmpty
			default:
				return res, fmt.Errorf("serve: shard rejected query (status %d)", resp.status)
			}
			parts = append(parts, resp.recs)
			res.Shards++
			res.Stats.Scanned += resp.stats.Scanned
			res.Stats.Pruned += resp.stats.Pruned
			if resp.epoch > res.Epoch {
				res.Epoch = resp.epoch
			}
		case <-deadline.C:
			g.timeouts.Add(1)
			var pd *cluster.PeerDownError
			if lerr := g.link.Err(); errors.As(lerr, &pd) {
				// The deadline exposed a peer death the failure detector
				// had already confirmed: degrade or fail typed, never
				// report a bare timeout for a known-dead shard.
				g.peerDown.Add(1)
				if !g.allowPartial || len(parts) == 0 {
					return res, lerr
				}
				res.Partial = true
				break gather
			}
			return res, ErrGatherTimeout
		}
	}
	if res.Partial {
		g.partials.Add(1)
	}
	res.Recs = topn.Merge(n, parts...)
	return res, nil
}

// localScratch is the per-query state answerLocal reuses: the top-N
// heap, whose storage the answer's recs alias, and the narrowed query
// row of float32 epochs.
type localScratch struct {
	heap  *topn.Heap
	row32 []float32
}

// localPool serves the gateway's own shard scans, which run on every
// HTTP handler goroutine at once.
var localPool = sync.Pool{New: func() any { return &localScratch{heap: topn.NewHeap(0)} }}

// answerLocal scans one store's shard for a request. The epoch
// reference is held across the scan, so a concurrent promotion never
// yanks the index mid-read. The answer's recs live in sc and are valid
// until sc is reused.
func answerLocal(store *Store, req shardReq, sc *localScratch) (shardResp, error) {
	resp := shardResp{id: req.id}
	ep := store.Acquire()
	if ep == nil {
		resp.status = shardEmpty
		return resp, errShardEmpty
	}
	defer ep.Release()
	if len(req.row) != ep.Index.K() || req.n < 0 {
		resp.status = shardBadReq
		return resp, fmt.Errorf("serve: query rank %d does not match epoch rank %d", len(req.row), ep.Index.K())
	}
	resp.epoch = ep.Seq
	sc.heap.Reset(int(req.n))
	var row32 []float32
	if ep.Index.Precision() == factor.Float32 {
		// The row was widened float32→float64 for the wire, which is
		// exact, so narrowing recovers the original bits.
		sc.row32 = sc.row32[:0]
		for _, v := range req.row {
			sc.row32 = append(sc.row32, float32(v))
		}
		row32 = sc.row32
	}
	resp.stats = ep.Index.TopN(req.row, row32, norm64(req.row), req.rated, sc.heap)
	resp.recs = sc.heap.Sorted()
	resp.status = shardOK
	return resp, nil
}

// ServeShard answers scatter queries on link until ctx is cancelled
// or the link's control channel closes. Each shard process runs one.
func ServeShard(ctx context.Context, link cluster.Link, store *Store) error {
	sc := localScratch{heap: topn.NewHeap(0)}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case ct, ok := <-link.Ctl():
			if !ok {
				return link.Err()
			}
			if ct.Kind != ctlServeReq {
				continue
			}
			req, err := decodeShardReq(ct.Payload)
			if err != nil {
				// Can't even recover the id; nothing to NACK.
				continue
			}
			resp, err := answerLocal(store, req, &sc)
			_ = err // status byte carries the failure to the gateway
			if err := link.SendCtl(ct.From, ctlServeResp, encodeShardResp(nil, resp)); err != nil {
				return fmt.Errorf("serve: shard reply: %w", err)
			}
		}
	}
}

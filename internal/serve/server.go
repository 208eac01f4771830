package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"nomad/internal/cluster"
	"nomad/internal/factor"
	"nomad/internal/topn"
)

// Config wires a Server.
type Config struct {
	// Store holds the serving epochs (required).
	Store *Store
	// Gateway, when non-nil, scatters queries across shard peers
	// instead of scanning Store locally.
	Gateway *Gateway
	// Rated returns the user's ascending-sorted rated item list for
	// training-set exclusion (nil = no exclusion).
	Rated func(user int32) []int32
	// Watcher, when non-nil, contributes rejection counters to /v1/stats.
	Watcher *Watcher
	// MaxN caps the n query parameter (default 1000).
	MaxN int
}

// Server is the HTTP face of the serving stack:
//
//	GET /v1/recommend?user=U&n=N  → top-N JSON
//	GET /healthz                  → 200 once a model is loaded
//	GET /v1/stats                 → counters and epoch info
//
// Handlers are lock-free on the request path: epoch access goes
// through Store.Acquire, counters are atomics.
type Server struct {
	cfg Config

	requests atomic.Int64
	rejects  atomic.Int64 // non-200 responses
	scanned  atomic.Int64
	pruned   atomic.Int64
}

// NewServer builds a Server over cfg.
func NewServer(cfg Config) *Server {
	if cfg.MaxN <= 0 {
		cfg.MaxN = 1000
	}
	return &Server{cfg: cfg}
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/recommend", s.handleRecommend)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// RecItem is one scored recommendation on the wire.
type RecItem struct {
	Item  int32   `json:"item"`
	Score float64 `json:"score"`
}

// RecResponse is the /v1/recommend payload.
type RecResponse struct {
	User  int32  `json:"user"`
	N     int    `json:"n"`
	Epoch uint64 `json:"epoch"`
	// Shards is how many item shards contributed (1 for local serving).
	Shards int       `json:"shards"`
	Items  []RecItem `json:"items"`
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.rejects.Add(1)
	http.Error(w, msg, code)
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	query := r.URL.Query()
	user64, err := strconv.ParseInt(query.Get("user"), 10, 32)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad or missing user parameter")
		return
	}
	user := int32(user64)
	n := 10
	if v := query.Get("n"); v != "" {
		n, err = strconv.Atoi(v)
		if err != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, "bad n parameter")
			return
		}
	}
	if n > s.cfg.MaxN {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("n exceeds limit %d", s.cfg.MaxN))
		return
	}

	ep := s.cfg.Store.Acquire()
	if ep == nil {
		s.fail(w, http.StatusServiceUnavailable, "no model loaded yet")
		return
	}
	md := ep.Model
	if user < 0 || int(user) >= md.M {
		ep.Release()
		s.fail(w, http.StatusNotFound, fmt.Sprintf("user %d outside model rows [0,%d)", user, md.M))
		return
	}

	var rated []int32
	if s.cfg.Rated != nil {
		rated = s.cfg.Rated(user)
	}

	resp := RecResponse{User: user, N: n}
	sc := respPool.Get().(*respScratch)
	defer respPool.Put(sc)
	if s.cfg.Gateway != nil {
		// Sharded: widen the user row for the wire (exact for float32)
		// and scatter. The gateway holds its own epoch references; ours
		// only pinned the user row.
		row := wireUserRow(md, int(user))
		ep.Release()
		res, err := s.cfg.Gateway.Gather(user, n, row, rated)
		if err != nil {
			var pd *cluster.PeerDownError
			if errors.As(err, &pd) {
				// A shard machine is down, not the query: tell the client
				// when to come back instead of letting it hammer a
				// degraded cluster.
				w.Header().Set("Retry-After", "1")
				s.fail(w, http.StatusServiceUnavailable,
					fmt.Sprintf("shard machine %d is down; retry shortly", pd.Rank))
				return
			}
			s.fail(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		if res.Partial {
			w.Header().Set("X-Nomad-Partial", "true")
		}
		resp.Epoch = res.Epoch
		resp.Shards = res.Shards
		resp.Items = sc.recItems(res.Recs)
		s.scanned.Add(int64(res.Stats.Scanned))
		s.pruned.Add(int64(res.Stats.Pruned))
	} else {
		h := sc.heap
		h.Reset(n)
		var st ScanStats
		if md.Precision() == factor.Float32 {
			st = ep.Index.TopN(nil, md.UserRow32(int(user)), md.UserNorm(int(user)), rated, h)
		} else {
			st = ep.Index.TopN(md.UserRow(int(user)), nil, md.UserNorm(int(user)), rated, h)
		}
		resp.Epoch = ep.Seq
		resp.Shards = 1
		resp.Items = sc.recItems(h.Sorted())
		ep.Release()
		s.scanned.Add(int64(st.Scanned))
		s.pruned.Add(int64(st.Pruned))
	}

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // client gone
}

// wireUserRow widens the user's factor row to float64 for the scatter
// wire format. Widening float32 is exact, so the shard recovers the
// original bits by narrowing.
func wireUserRow(md *factor.Model, user int) []float64 {
	if md.Precision() == factor.Float32 {
		r32 := md.UserRow32(user)
		row := make([]float64, len(r32))
		for i, v := range r32 {
			row[i] = float64(v)
		}
		return row
	}
	return append([]float64(nil), md.UserRow(user)...)
}

// respScratch is the per-request state handleRecommend reuses: the
// top-N heap and the wire form of its result. Both are bounded by
// Config.MaxN. items is never nil, so an empty result encodes as [].
type respScratch struct {
	heap  *topn.Heap
	items []RecItem
}

var respPool = sync.Pool{New: func() any {
	return &respScratch{heap: topn.NewHeap(0), items: []RecItem{}}
}}

// recItems converts recs to their wire form in sc's buffer, which is
// valid until sc goes back to the pool.
func (sc *respScratch) recItems(recs []topn.Rec) []RecItem {
	sc.items = sc.items[:0]
	for _, r := range recs {
		sc.items = append(sc.items, RecItem{Item: r.Item, Score: r.Score})
	}
	return sc.items
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ep := s.cfg.Store.Acquire()
	if ep == nil {
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
		return
	}
	ep.Release()
	fmt.Fprintln(w, "ok")
}

// Stats is the /v1/stats payload.
type Stats struct {
	Epoch     uint64     `json:"epoch"`
	Users     int        `json:"users"`
	Items     int        `json:"items"`
	Rank      int        `json:"rank"`
	Precision string     `json:"precision"`
	IndexLen  int        `json:"index_len"`
	Requests  int64      `json:"requests"`
	Rejects   int64      `json:"rejects"`
	Scanned   int64      `json:"scanned"`
	Pruned    int64      `json:"pruned"`
	Store     StoreStats `json:"store"`
	// WatchRejects counts checkpoint files the watcher refused to
	// promote; WatchLastReject is the most recent reason.
	WatchRejects    int64  `json:"watch_rejects"`
	WatchLastReject string `json:"watch_last_reject,omitempty"`
	// GatherTimeouts counts sharded queries that missed the deadline.
	GatherTimeouts int64 `json:"gather_timeouts,omitempty"`
	// PeerDown counts sharded queries that hit a dead shard peer;
	// PartialResults counts those answered with a degraded partial
	// merge (gateway -allow-partial) instead of an error.
	PeerDown       int64 `json:"peer_down,omitempty"`
	PartialResults int64 `json:"partial_results,omitempty"`
}

// Snapshot collects the server's counters (also used by tests and the
// load generator's user-range discovery).
func (s *Server) Snapshot() Stats {
	st := Stats{
		Requests: s.requests.Load(),
		Rejects:  s.rejects.Load(),
		Scanned:  s.scanned.Load(),
		Pruned:   s.pruned.Load(),
		Store:    s.cfg.Store.Stats(),
	}
	if ep := s.cfg.Store.Acquire(); ep != nil {
		st.Epoch = ep.Seq
		st.Users = ep.Model.M
		st.Items = ep.Model.N
		st.Rank = ep.Model.K
		st.Precision = ep.Model.Precision().String()
		st.IndexLen = ep.Index.Len()
		ep.Release()
	}
	if s.cfg.Watcher != nil {
		st.WatchRejects, st.WatchLastReject = s.cfg.Watcher.Rejects()
	}
	if s.cfg.Gateway != nil {
		st.GatherTimeouts = s.cfg.Gateway.Timeouts()
		st.PeerDown, st.PartialResults = s.cfg.Gateway.Degraded()
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Snapshot()) //nolint:errcheck // client gone
}

package serve

// Graceful degradation under shard failure: a dead shard peer turns
// into 503 + Retry-After by default, or a flagged partial merge with
// SetAllowPartial — never a hang, never a silently wrong full top-N.

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/factor"
)

// downLink is a cluster.Link whose peer is already confirmed dead:
// every scatter fails with a typed *cluster.PeerDownError, as the
// netlink TCP link does in whole-link mode after a heartbeat timeout.
type downLink struct {
	machines int
	err      error
	ctl      chan cluster.Ctl
}

func newDownLink(machines, deadRank int) *downLink {
	return &downLink{
		machines: machines,
		err:      &cluster.PeerDownError{Rank: deadRank, Cause: fmt.Errorf("heartbeat timeout")},
		ctl:      make(chan cluster.Ctl),
	}
}

func (l *downLink) Rank() int                          { return 0 }
func (l *downLink) Machines() int                      { return l.machines }
func (l *downLink) Send(int, cluster.TokenBatch) error { return l.err }
func (l *downLink) Recv() <-chan cluster.Inbound       { return nil }
func (l *downLink) SendCtl(int, uint8, []byte) error   { return l.err }
func (l *downLink) Ctl() <-chan cluster.Ctl            { return l.ctl }
func (l *downLink) CloseSend() error                   { return nil }
func (l *downLink) Close() error                       { return nil }
func (l *downLink) Abort()                             {}
func (l *downLink) Err() error                         { return l.err }
func (l *downLink) Stats() cluster.LinkStats           { return cluster.LinkStats{} }

// degradedServer builds a 2-shard gateway whose peer shard is dead,
// backed by a local store over md's full index.
func degradedServer(md *factor.Model, allowPartial bool) (*Server, *Gateway) {
	store := NewStore()
	store.Promote(&Epoch{Seq: 1, Model: md, Index: BuildIndex(md, nil)})
	gw := NewGateway(newDownLink(2, 1), store, 100*time.Millisecond)
	gw.SetAllowPartial(allowPartial)
	return NewServer(Config{Store: store, Gateway: gw}), gw
}

func TestGatherPeerDownFailsTyped(t *testing.T) {
	md := factor.NewInitP(6, 80, 4, 11, factor.Float64)
	_, gw := degradedServer(md, false)
	_, err := gw.Gather(0, 5, wireUserRow(md, 0), nil)
	var pd *cluster.PeerDownError
	if !errors.As(err, &pd) || pd.Rank != 1 {
		t.Fatalf("want *cluster.PeerDownError for rank 1, got %v", err)
	}
	if down, partial := gw.Degraded(); down != 1 || partial != 0 {
		t.Fatalf("degraded counters (down=%d, partial=%d), want (1, 0)", down, partial)
	}
}

func TestGatherPeerDownPartial(t *testing.T) {
	md := factor.NewInitP(6, 80, 4, 11, factor.Float64)
	_, gw := degradedServer(md, true)
	res, err := gw.Gather(0, 5, wireUserRow(md, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Shards != 1 {
		t.Fatalf("want partial single-shard result, got %+v", res)
	}
	if len(res.Recs) != 5 {
		t.Fatalf("partial merge returned %d recs, want 5", len(res.Recs))
	}
	if down, partial := gw.Degraded(); down != 1 || partial != 1 {
		t.Fatalf("degraded counters (down=%d, partial=%d), want (1, 1)", down, partial)
	}
}

func TestRecommendPeerDownHTTP(t *testing.T) {
	md := factor.NewInitP(6, 80, 4, 11, factor.Float64)

	// Default policy: 503 with a Retry-After hint, counted in stats.
	srv, _ := degradedServer(md, false)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/recommend?user=0&n=5", nil))
	if rec.Code != 503 {
		t.Fatalf("peer-down recommend returned %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After header")
	}
	st := srv.Snapshot()
	if st.PeerDown != 1 || st.Rejects != 1 {
		t.Fatalf("stats after 503: peer_down=%d rejects=%d, want 1 1", st.PeerDown, st.Rejects)
	}

	// Degraded policy: 200, flagged partial, counted in stats.
	srv, _ = degradedServer(md, true)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/recommend?user=0&n=5", nil))
	if rec.Code != 200 {
		t.Fatalf("allow-partial recommend returned %d, want 200", rec.Code)
	}
	if rec.Header().Get("X-Nomad-Partial") != "true" {
		t.Fatal("partial response without X-Nomad-Partial: true")
	}
	st = srv.Snapshot()
	if st.PartialResults != 1 || st.Rejects != 0 {
		t.Fatalf("stats after partial: partial_results=%d rejects=%d, want 1 0", st.PartialResults, st.Rejects)
	}
}

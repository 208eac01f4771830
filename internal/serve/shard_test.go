package serve

import (
	"context"
	"testing"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/factor"
	"nomad/internal/netlink"
	"nomad/internal/netsim"
	"nomad/internal/partition"
	"nomad/internal/topn"
)

func TestShardWireRoundTrip(t *testing.T) {
	req := shardReq{
		id:    77,
		user:  5,
		n:     12,
		row:   []float64{1.5, -2.25, 0.0078125, 3e-9},
		rated: []int32{1, 9, 200},
	}
	got, err := decodeShardReq(encodeShardReq(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	if got.id != req.id || got.user != req.user || got.n != req.n ||
		len(got.row) != len(req.row) || len(got.rated) != len(req.rated) {
		t.Fatalf("req round trip: %+v", got)
	}
	for i := range req.row {
		if got.row[i] != req.row[i] {
			t.Fatalf("row[%d] = %v", i, got.row[i])
		}
	}
	resp := shardResp{
		id:     77,
		status: shardOK,
		epoch:  3,
		recs:   []topn.Rec{{Item: 4, Score: 1.25}, {Item: 2, Score: -0.5}},
		stats:  ScanStats{Scanned: 100, Pruned: 900},
	}
	rgot, err := decodeShardResp(encodeShardResp(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if rgot.id != resp.id || rgot.epoch != resp.epoch || rgot.stats != resp.stats ||
		len(rgot.recs) != 2 || rgot.recs[0] != resp.recs[0] || rgot.recs[1] != resp.recs[1] {
		t.Fatalf("resp round trip: %+v", rgot)
	}
	if _, err := decodeShardReq([]byte{1, 2, 3}); err == nil {
		t.Fatal("short request accepted")
	}
	if _, err := decodeShardResp(encodeShardResp(nil, resp)[:20]); err == nil {
		t.Fatal("short response accepted")
	}
}

// pipeLinks is a cluster of links over in-memory connections.
func pipeLinks(machines, k int) []cluster.Link {
	return netlink.Pipe(machines, netsim.Instant(), netlink.Options{K: k})
}

// closeAll closes every link of a cluster.
func closeAll(links []cluster.Link) {
	for _, l := range links {
		l.Close() //nolint:errcheck
	}
}

// gatherHarness boots a gateway plus shards-1 peer shard servers over
// an in-process cluster, each owning one contiguous item range of md —
// the same partition.EqualRanges split training uses.
func gatherHarness(t *testing.T, md *factor.Model, shards int) (*Gateway, func()) {
	t.Helper()
	links := pipeLinks(shards, md.K)
	parts := partition.EqualRanges(md.N, shards)
	localStore := NewStore()
	localStore.Promote(&Epoch{Seq: 1, Model: md, Index: BuildIndex(md, parts.Part(0))})
	gw := NewGateway(links[0], localStore, 5*time.Second)
	go gw.Dispatch()

	ctx, cancel := context.WithCancel(context.Background())
	for rank := 1; rank < shards; rank++ {
		st := NewStore()
		st.Promote(&Epoch{Seq: 1, Model: md, Index: BuildIndex(md, parts.Part(rank))})
		go ServeShard(ctx, links[rank], st) //nolint:errcheck // torn down by cancel
	}
	return gw, func() {
		cancel()
		closeAll(links)
	}
}

func TestGatherMatchesSingleShard(t *testing.T) {
	for _, prec := range []factor.Precision{factor.Float64, factor.Float32} {
		md := factor.NewInitP(10, 400, 8, 21, prec)
		full := BuildIndex(md, nil)
		gw, done := gatherHarness(t, md, 3)
		for user := 0; user < 10; user++ {
			rated := []int32{int32(user), int32(user + 100), int32(user + 350)}
			want, _ := indexQuery(full, md, user, 20, rated)
			res, err := gw.Gather(int32(user), 20, wireUserRow(md, user), rated)
			if err != nil {
				t.Fatal(err)
			}
			if res.Shards != 3 || res.Epoch != 1 {
				t.Fatalf("gather meta: %+v", res)
			}
			sameRecs(t, res.Recs, want)
		}
		done()
	}
}

func TestGatherEmptyShard(t *testing.T) {
	md := factor.NewInitP(4, 60, 4, 2, factor.Float64)
	links := pipeLinks(2, md.K)
	defer closeAll(links)
	localStore := NewStore()
	localStore.Promote(&Epoch{Seq: 1, Model: md, Index: BuildIndex(md, nil)})
	gw := NewGateway(links[0], localStore, time.Second)
	go gw.Dispatch()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ServeShard(ctx, links[1], NewStore()) //nolint:errcheck // torn down by cancel
	if _, err := gw.Gather(0, 5, wireUserRow(md, 0), nil); err == nil {
		t.Fatal("gather over an empty shard succeeded")
	}
}

// TestAnswerLocalAllocCeiling: a shard scan through a pooled scratch
// allocates nothing in steady state — not the top-N heap, and not the
// narrowed query row of a float32 epoch — and its answer matches a
// fresh heap's bit for bit.
func TestAnswerLocalAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops sync.Pool entries on purpose; the ceiling is the plain build's")
	}
	for _, prec := range []factor.Precision{factor.Float64, factor.Float32} {
		md := longTailModel(5000, 16, prec)
		store := NewStore()
		store.Promote(&Epoch{Seq: 1, Model: md, Index: BuildIndex(md, nil)})
		rated := heavyTailRated(md.M, md.N)
		req := shardReq{id: 1, user: 7, n: 10, row: wireUserRow(md, 7), rated: rated[7]}
		want, err := answerLocal(store, req, &localScratch{heap: topn.NewHeap(0)})
		if err != nil {
			t.Fatal(err)
		}
		var got shardResp
		allocs := testing.AllocsPerRun(200, func() {
			sc := localPool.Get().(*localScratch)
			got, err = answerLocal(store, req, sc)
			localPool.Put(sc)
		})
		if err != nil || len(got.recs) != len(want.recs) || len(want.recs) != 10 {
			t.Fatalf("%v: answer %+v (%v), want %+v", prec, got, err, want)
		}
		for i := range want.recs {
			if got.recs[i] != want.recs[i] {
				t.Fatalf("%v: rec %d = %+v, want %+v", prec, i, got.recs[i], want.recs[i])
			}
		}
		if allocs > 0 {
			t.Errorf("%v: %v allocations per shard scan, ceiling 0", prec, allocs)
		}
	}
}

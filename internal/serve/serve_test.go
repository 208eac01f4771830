package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"nomad/internal/factor"
	"nomad/internal/topn"
	"nomad/internal/train"
)

// naiveTopN is the unpruned oracle over the whole catalog: score every
// item with Model.Predict, exclude rated, sort, keep the top n.
func naiveTopN(md *factor.Model, user, n int, rated []int32) []topn.Rec {
	all := make([]int32, md.N)
	for j := range all {
		all[j] = int32(j)
	}
	return bruteForceTopN(md, all, user, n, rated)
}

func sameRecs(t *testing.T, got, want []topn.Rec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d recs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rec %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func indexQuery(ix *Index, md *factor.Model, user, n int, rated []int32) ([]topn.Rec, ScanStats) {
	h := topn.NewHeap(n)
	var st ScanStats
	if md.Precision() == factor.Float32 {
		st = ix.TopN(nil, md.UserRow32(user), md.UserNorm(user), rated, h)
	} else {
		st = ix.TopN(md.UserRow(user), nil, md.UserNorm(user), rated, h)
	}
	return h.Sorted(), st
}

func TestIndexMatchesNaiveScan(t *testing.T) {
	for _, prec := range []factor.Precision{factor.Float64, factor.Float32} {
		md := factor.NewInitP(40, 500, 8, 11, prec)
		if prec == factor.Float32 {
			// Duplicate rows to force exact score ties across item ids.
			copy(md.ItemRow32(10), md.ItemRow32(200))
			copy(md.ItemRow32(11), md.ItemRow32(200))
		} else {
			copy(md.HData()[10*8:11*8], md.HData()[200*8:201*8])
			copy(md.HData()[11*8:12*8], md.HData()[200*8:201*8])
		}
		ix := BuildIndex(md, nil)
		rng := rand.New(rand.NewSource(5))
		for user := 0; user < 40; user++ {
			var rated []int32
			for j := int32(0); j < 500; j++ {
				if rng.Intn(10) == 0 {
					rated = append(rated, j)
				}
			}
			for _, n := range []int{1, 10, 100} {
				got, _ := indexQuery(ix, md, user, n, rated)
				sameRecs(t, got, naiveTopN(md, user, n, rated))
			}
		}
	}
}

func TestIndexPrunesLongTail(t *testing.T) {
	// With a heavy-tailed norm distribution most items must be pruned,
	// otherwise the "single-digit ms at 600K items" budget is fiction.
	md := longTailModel(20000, 8, factor.Float64)
	ix := BuildIndex(md, nil)
	recs, st := indexQuery(ix, md, 0, 10, nil)
	sameRecs(t, recs, naiveTopN(md, 0, 10, nil))
	if st.Pruned == 0 || st.Scanned > 20000/2 {
		t.Fatalf("no meaningful pruning: scanned %d pruned %d", st.Scanned, st.Pruned)
	}
}

func TestIndexShardEquivalence(t *testing.T) {
	// Union of disjoint shard top-Ns merged == full-catalog top-N.
	md := factor.NewInitP(8, 300, 4, 7, factor.Float64)
	full := BuildIndex(md, nil)
	var shards []*Index
	for lo := 0; lo < 300; lo += 100 {
		owned := make([]int32, 100)
		for i := range owned {
			owned[i] = int32(lo + i)
		}
		shards = append(shards, BuildIndex(md, owned))
	}
	for user := 0; user < 8; user++ {
		want, _ := indexQuery(full, md, user, 15, nil)
		var parts [][]topn.Rec
		for _, ix := range shards {
			part, _ := indexQuery(ix, md, user, 15, nil)
			parts = append(parts, part)
		}
		sameRecs(t, topn.Merge(15, parts...), want)
	}
}

func TestStoreSwapAndDrain(t *testing.T) {
	s := NewStore()
	if s.Acquire() != nil {
		t.Fatal("empty store returned an epoch")
	}
	md := factor.NewInitP(2, 10, 4, 1, factor.Float64)
	e1 := &Epoch{Seq: 1, Model: md, Index: BuildIndex(md, nil)}
	s.Promote(e1)
	held := s.Acquire()
	if held == nil || held.Seq != 1 {
		t.Fatalf("acquire after promote: %+v", held)
	}
	e2 := &Epoch{Seq: 2, Model: md, Index: BuildIndex(md, nil)}
	s.Promote(e2)
	// e1 is retired but still referenced: not drained yet.
	if st := s.Stats(); st.Swaps != 2 || st.Drains != 0 {
		t.Fatalf("stats before release: %+v", st)
	}
	if got := s.Acquire(); got == nil || got.Seq != 2 {
		t.Fatalf("current epoch after swap: %+v", got)
	} else {
		got.Release()
	}
	held.Release()
	if st := s.Stats(); st.Drains != 1 {
		t.Fatalf("stats after release: %+v", st)
	}
	// A drained epoch can never be re-acquired.
	if e1.acquire() {
		t.Fatal("drained epoch re-acquired")
	}
}

// TestStoreConcurrentSwap hammers Acquire/scan/Release from many
// goroutines while epochs are promoted underneath them — the
// hot-swap-drops-zero-requests property, run under -race in CI.
func TestStoreConcurrentSwap(t *testing.T) {
	s := NewStore()
	models := make([]*factor.Model, 4)
	for i := range models {
		models[i] = factor.NewInitP(8, 200, 4, uint64(i+1), factor.Float64)
	}
	s.Promote(&Epoch{Seq: 1, Model: models[0], Index: BuildIndex(models[0], nil)})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ep := s.Acquire()
				if ep == nil {
					t.Error("acquire returned nil while serving")
					return
				}
				h := topn.NewHeap(5)
				user := (w + i) % ep.Model.M
				ep.Index.TopN(ep.Model.UserRow(user), nil, ep.Model.UserNorm(user), nil, h)
				if len(h.Sorted()) != 5 {
					t.Error("short result during swap")
					ep.Release()
					return
				}
				ep.Release()
			}
		}(w)
	}
	for seq := uint64(2); seq <= 40; seq++ {
		md := models[seq%4]
		s.Promote(&Epoch{Seq: seq, Model: md, Index: BuildIndex(md, nil)})
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	st := s.Stats()
	if st.Swaps != 40 {
		t.Fatalf("swaps = %d", st.Swaps)
	}
	// Every retired epoch must eventually drain (39 retired, the 40th
	// is still current and holds the store reference).
	if st.Drains != 39 {
		t.Fatalf("drains = %d, want 39", st.Drains)
	}
}

func writeModelFile(t *testing.T, path string, md *factor.Model) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := md.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWatcherPromotesAndRejects(t *testing.T) {
	dir := t.TempDir()
	md := factor.NewInitP(6, 50, 4, 3, factor.Float64)
	store := NewStore()
	w := NewWatcher(store, dir, nil, time.Millisecond, nil)

	// Empty directory: no promotion, no error.
	if promoted, err := w.ScanOnce(); err != nil || promoted {
		t.Fatalf("empty dir: promoted=%v err=%v", promoted, err)
	}

	// Ignored files: no digits, dotfile, in-progress extension.
	writeModelFile(t, filepath.Join(dir, "model.bin"), md)
	writeModelFile(t, filepath.Join(dir, ".model-9.bin"), md)
	writeModelFile(t, filepath.Join(dir, "model-9.bin.tmp"), md)
	if promoted, _ := w.ScanOnce(); promoted {
		t.Fatal("promoted from an ignored file")
	}

	writeModelFile(t, filepath.Join(dir, "model-1.bin"), md)
	if promoted, err := w.ScanOnce(); err != nil || !promoted {
		t.Fatalf("valid file: promoted=%v err=%v", promoted, err)
	}
	if store.Seq() != 1 {
		t.Fatalf("seq = %d", store.Seq())
	}

	// Truncated file: rejected, and the same bytes are not retried.
	writeModelFile(t, filepath.Join(dir, "model-2.bin"), md)
	full, err := os.ReadFile(filepath.Join(dir, "model-2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "model-2.bin"), full[:len(full)-17], 0o644); err != nil {
		t.Fatal(err)
	}
	if promoted, _ := w.ScanOnce(); promoted {
		t.Fatal("promoted a truncated file")
	}
	if n, msg := w.Rejects(); n != 1 || msg == "" {
		t.Fatalf("rejects = %d (%q)", n, msg)
	}
	if promoted, _ := w.ScanOnce(); promoted {
		t.Fatal("re-promoted an unchanged bad file")
	}
	if n, _ := w.Rejects(); n != 1 {
		t.Fatalf("unchanged bad file re-rejected: %d", n)
	}

	// Precision mismatch: a float32 file in a float64 serving dir.
	writeModelFile(t, filepath.Join(dir, "model-3.bin"), md.Convert(factor.Float32))
	if promoted, _ := w.ScanOnce(); promoted {
		t.Fatal("promoted a precision-mismatched file")
	}

	// Shape mismatch.
	writeModelFile(t, filepath.Join(dir, "model-4.bin"), factor.NewInitP(6, 51, 4, 3, factor.Float64))
	if promoted, _ := w.ScanOnce(); promoted {
		t.Fatal("promoted a shape-mismatched file")
	}

	// A valid higher epoch still goes through after all that.
	writeModelFile(t, filepath.Join(dir, "model-5.bin"), md)
	if promoted, _ := w.ScanOnce(); !promoted {
		t.Fatal("valid successor not promoted")
	}
	if store.Seq() != 5 {
		t.Fatalf("seq = %d", store.Seq())
	}

	// Lower or equal epochs are never revisited.
	if promoted, _ := w.ScanOnce(); promoted {
		t.Fatal("re-promoted an old epoch")
	}
}

func TestWatcherReadsCheckpointFormat(t *testing.T) {
	dir := t.TempDir()
	md := factor.NewInitP(5, 30, 4, 8, factor.Float64)
	st := &train.State{Algorithm: "nomad", Model: md}
	f, err := os.Create(filepath.Join(dir, "run-7.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	store := NewStore()
	w := NewWatcher(store, dir, nil, time.Millisecond, nil)
	if promoted, err := w.ScanOnce(); err != nil || !promoted {
		t.Fatalf("checkpoint: promoted=%v err=%v", promoted, err)
	}
	ep := store.Acquire()
	defer ep.Release()
	if ep.Seq != 7 || ep.Model.N != 30 {
		t.Fatalf("epoch %+v", ep)
	}
}

func TestSourceOpenStatic(t *testing.T) {
	dir := t.TempDir()
	md := factor.NewInitP(4, 20, 4, 2, factor.Float64)
	path := filepath.Join(dir, "model.bin")
	writeModelFile(t, path, md)
	store, watcher, err := Source{Path: path}.Open(nil, nil)
	if err != nil || watcher != nil {
		t.Fatalf("static open: watcher=%v err=%v", watcher, err)
	}
	ep := store.Acquire()
	defer ep.Release()
	if ep.Model.M != 4 || ep.Index.Len() != 20 {
		t.Fatalf("epoch %+v", ep)
	}
	if _, _, err := (Source{}).Open(nil, nil); err == nil {
		t.Fatal("empty source accepted")
	}
	if _, _, err := (Source{Path: path, WatchDir: dir}).Open(nil, nil); err == nil {
		t.Fatal("ambiguous source accepted")
	}
}

func TestEpochSeqParsing(t *testing.T) {
	cases := []struct {
		name string
		seq  uint64
		ok   bool
	}{
		{"model-12.bin", 12, true},
		{"epoch_003.ckpt", 3, true},
		{"model-2-final.bin", 2, true}, // trailing word after digits
		{"model.bin", 0, false},
		{"9.model", 9, true},
		{"model-18446744073709551615.bin", 0, false}, // overflow guard
	}
	for _, c := range cases {
		seq, ok := epochSeq(c.name)
		if ok != c.ok || (ok && seq != c.seq) {
			t.Fatalf("epochSeq(%q) = %d,%v want %d,%v", c.name, seq, ok, c.seq, c.ok)
		}
	}
}

// FuzzRecommendQuery drives /v1/recommend with arbitrary user and n
// parameters, against a server with no model yet and one with a model.
// The handler must never panic, must answer 400, 404 or 503 exactly
// where strconv's reading of the parameters says, and a 200 must carry
// the oracle's top-n for a parsed n no larger than MaxN.
func FuzzRecommendQuery(f *testing.F) {
	const maxN = 25
	md := factor.NewInitP(20, 50, 4, 3, factor.Float64)
	loaded := NewStore()
	loaded.Promote(&Epoch{Seq: 1, Model: md, Index: BuildIndex(md, nil)})
	servers := []struct {
		handler http.Handler
		model   bool
	}{
		{NewServer(Config{Store: NewStore(), MaxN: maxN}).Handler(), false},
		{NewServer(Config{Store: loaded, MaxN: maxN}).Handler(), true},
	}
	for _, seed := range [][2]string{
		{"7", "10"}, {"7", ""}, {"-1", "3"}, {"20", "1"}, {"19", "25"}, {"0", "26"},
		{"abc", "5"}, {"3", "-2"}, {"3", "x"}, {"2147483648", "1"}, {"-2147483649", "1"},
		{" 1", "1"}, {"+3", "+3"}, {"0x10", "1"}, {"3", "1e3"}, {"", ""}, {"3", "0"},
		{"3", "99999999999999999999"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, user, n string) {
		u64, userErr := strconv.ParseInt(user, 10, 32)
		want, nWant := http.StatusOK, 10
		if n != "" {
			var err error
			if nWant, err = strconv.Atoi(n); err != nil || nWant < 0 {
				want = http.StatusBadRequest
			}
		}
		switch {
		case userErr != nil, nWant > maxN:
			want = http.StatusBadRequest
		}
		target := "/v1/recommend?" + url.Values{"user": {user}, "n": {n}}.Encode()
		for _, srv := range servers {
			code := want
			switch {
			case code != http.StatusOK:
			case !srv.model:
				code = http.StatusServiceUnavailable
			case u64 < 0 || u64 >= int64(md.M):
				code = http.StatusNotFound
			}
			rec := httptest.NewRecorder()
			srv.handler.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
			if rec.Code != code {
				t.Fatalf("%s (model %v): status %d, want %d: %s", target, srv.model, rec.Code, code, rec.Body.Bytes())
			}
			if code != http.StatusOK {
				continue
			}
			var resp RecResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: body %q: %v", target, rec.Body.Bytes(), err)
			}
			if resp.N != nWant || resp.N > maxN || resp.User != int32(u64) {
				t.Fatalf("%s: answered user %d n %d, want user %d n %d ≤ %d", target, resp.User, resp.N, u64, nWant, maxN)
			}
			oracle := naiveTopN(md, int(u64), nWant, nil)
			got := make([]topn.Rec, len(resp.Items))
			for i, it := range resp.Items {
				got[i] = topn.Rec{Item: it.Item, Score: it.Score}
			}
			sameRecs(t, got, oracle)
		}
	})
}

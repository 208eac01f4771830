package serve

// Differential, accounting, allocation and throughput checks of the
// blocked top-N scan. The oracles here are deliberately naive and live
// only in this file: they share no pruning, no blocks and no admission
// filter with Index.TopN.

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"nomad/internal/factor"
	"nomad/internal/topn"
)

func ratedSet(rated []int32) map[int32]bool {
	set := make(map[int32]bool, len(rated))
	for _, j := range rated {
		set[j] = true
	}
	return set
}

// bruteForceTopN scores every owned, unrated item with Model.Predict,
// sorts all of them (higher score first, lower item id on ties) and
// truncates to n. Only meaningful when every score is finite.
func bruteForceTopN(md *factor.Model, owned []int32, user, n int, rated []int32) []topn.Rec {
	isRated := ratedSet(rated)
	recs := []topn.Rec{}
	for _, j := range owned {
		if !isRated[j] {
			recs = append(recs, topn.Rec{Item: j, Score: md.Predict(user, int(j))})
		}
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].Score != recs[b].Score {
			return recs[a].Score > recs[b].Score
		}
		return recs[a].Item < recs[b].Item
	})
	return recs[:min(n, len(recs))]
}

// unprunedHeapScan is the oracle for NaN scores, which no sort can
// rank: what the heap holds after every unrated item is offered in
// index order. That is the "unpruned full scan" Index.TopN promises to
// equal, NaN or not.
func unprunedHeapScan(ix *Index, md *factor.Model, user, n int, rated []int32) []topn.Rec {
	isRated := ratedSet(rated)
	h := topn.NewHeap(n)
	for _, j := range ix.items {
		if !isRated[j] {
			h.Offer(topn.Rec{Item: j, Score: md.Predict(user, int(j))})
		}
	}
	return h.Sorted()
}

// Shapes a fuzz case can combine (bits of its shape argument).
const (
	shapeShard     = 1 << iota // index owns a subset of a larger model
	shapeDupRows               // runs of identical rows: exact score ties
	shapeEqualNorm             // every row has the same norm: the bound never prunes
	shapeZeroUser              // all-zero user rows: every score ties at 0 (under shapeAniso, all e₀)
	shapeNaNScore              // one row of ±Inf: norm +Inf, score NaN
	shapeNaNRow                // one NaN row: norm NaN, index order undefined
	shapeAniso                 // lead coordinate ±1, the rest decaying; its sign flips per block of the norm order
	shapeRotated               // every row turned by one seeded rotation: no axis follows the spectrum
)

// Exclusion lists a fuzz case picks from.
const (
	ratedNil = iota
	ratedEmpty
	ratedAll
	ratedTopN       // exactly the items an exclusion-free query returns
	ratedFirstBlock // the whole first scan block
	ratedRandom
	ratedModes
)

func setRow(md *factor.Model, item int, row []float64) {
	if md.Precision() == factor.Float32 {
		for c, v := range row {
			md.ItemRow32(item)[c] = float32(v)
		}
		return
	}
	copy(md.ItemRow(item), row)
}

// fuzzModel builds a 3-user model with heavy-tailed item norms (so the
// bound prunes) and applies the shapes.
func fuzzModel(r *rand.Rand, items, k int, prec factor.Precision, shape uint8) *factor.Model {
	md := factor.NewP(3, items, k, prec)
	row := make([]float64, k)
	base := make([]float64, k)
	for c := range base {
		base[c] = r.NormFloat64()
	}
	var rot []float64
	if shape&shapeRotated != 0 {
		rot = randomOrthonormal(r, k)
	}
	// shaped applies the anisotropic scales and the rotation: the
	// leading coordinate becomes ±1 and coordinate c > 0 is scaled by
	// decay^c.
	shaped := func(row []float64, decay float64) {
		if shape&shapeAniso != 0 {
			row[0] = math.Copysign(1, row[0])
			scale := 1.0
			for c := 1; c < len(row); c++ {
				scale *= decay
				row[c] *= scale
			}
		}
		if rot != nil {
			turned := make([]float64, k)
			for a := range turned {
				for c, v := range row {
					turned[a] += rot[a*k+c] * v
				}
			}
			copy(row, turned)
		}
	}
	for j := 0; j < items; j++ {
		if shape&shapeDupRows != 0 && j%4 != 0 {
			setRow(md, j, row) // items 4i..4i+3 share one row
			continue
		}
		scale := 1 / float64(1+r.Intn(50))
		if shape&shapeAniso != 0 {
			scale = 1 // no norm tail: later blocks stay in reach
		}
		for c := range row {
			row[c] = scale * r.NormFloat64()
			if shape&shapeEqualNorm != 0 {
				// Sign flips of one vector: the squares, and so the
				// norms, are equal bit for bit (unless rotated).
				row[c] = math.Copysign(base[c], row[c])
			}
		}
		shaped(row, 0.4)
		setRow(md, j, row)
	}
	if shape&shapeAniso != 0 {
		bandBlocks(md, rot)
	}
	if shape&shapeNaNScore != 0 {
		for c := range row {
			row[c] = math.Inf(1 - 2*(c%2))
		}
		row[0] = math.Inf(1)
		setRow(md, r.Intn(items), row)
	}
	if shape&shapeNaNRow != 0 {
		for c := range row {
			row[c] = math.NaN()
		}
		setRow(md, r.Intn(items), row)
	}
	for u := 0; u < md.M; u++ {
		for c := range row {
			row[c] = r.NormFloat64()
			if shape&shapeZeroUser != 0 {
				row[c] = 0
			}
		}
		shaped(row, 0.5)
		if prec == factor.Float32 {
			for c, v := range row {
				md.UserRow32(u)[c] = float32(v)
			}
		} else {
			copy(md.UserRow(u), row)
		}
	}
	return md
}

// bandBlocks flips item rows (h → −h, which keeps every norm bit for
// bit) so that along the model's leading direction — e₀, or its image
// under rot — the rows of even scan blocks of the norm order point one
// way and those of odd blocks the other. To a user along that
// direction every other block then scores low although its norms are
// high: the block the spectral bound skips and the norm bound cannot.
func bandBlocks(md *factor.Model, rot []float64) {
	k := md.K
	order := make([]int, md.N)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return md.ItemNorm(order[a]) > md.ItemNorm(order[b]) })
	row := make([]float64, k)
	for rank, j := range order {
		lead := 0.0
		for c := range row {
			if md.Precision() == factor.Float32 {
				row[c] = float64(md.ItemRow32(j)[c])
			} else {
				row[c] = md.ItemRow(j)[c]
			}
			if rot != nil {
				lead += rot[c*k] * row[c]
			}
		}
		if rot == nil {
			lead = row[0]
		}
		if (lead < 0) == (rank/scanBlock%2 == 0) {
			for c := range row {
				row[c] = -row[c]
			}
			setRow(md, j, row)
		}
	}
}

// FuzzIndexTopNMatchesBruteForce pins Index.TopN to the oracles above
// over both precisions, ranks on both sides of every kernel boundary,
// table lengths around the block size, shards, the exclusion lists
// and degenerate rows that stress the admit-before-exclude order, and
// anisotropic (optionally rotated) models on which the spectral bound
// skips blocks and stops scans the norm bound would not.
func FuzzIndexTopNMatchesBruteForce(f *testing.F) {
	ranks := []uint8{1, 3, 4, 8, 15, 16, 17, 32, 50}
	lengths := []uint16{0, scanBlock - 1, scanBlock, scanBlock + 1, 3*scanBlock + 7}
	ns := []uint8{0, 1, 10, 255}
	shapes := []uint8{0, shapeShard, shapeDupRows, shapeEqualNorm, shapeZeroUser, shapeNaNScore,
		shapeShard | shapeDupRows, shapeDupRows | shapeEqualNorm, shapeNaNRow,
		shapeAniso, shapeAniso | shapeRotated, shapeAniso | shapeShard, shapeAniso | shapeDupRows | shapeRotated,
		shapeAniso | shapeNaNScore, shapeAniso | shapeEqualNorm | shapeRotated}
	i := 0
	for _, k := range ranks {
		for _, length := range lengths {
			for mode := uint8(0); mode < ratedModes; mode++ {
				for _, f32 := range []bool{false, true} {
					f.Add(uint64(i), f32, k-1, ns[i%len(ns)], length, mode, shapes[i%len(shapes)])
					i++
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, f32 bool, k, n uint8, length uint16, ratedMode, shape uint8) {
		r := rand.New(rand.NewSource(int64(seed)))
		rank := 1 + int(k)%50
		size := int(length) % (4 * scanBlock)
		prec := factor.Float64
		if f32 {
			prec = factor.Float32
		}
		items := size
		if shape&shapeShard != 0 || size == 0 {
			items += size/2 + 3
		}
		md := fuzzModel(r, items, rank, prec, shape)
		var owned []int32 // nil = the whole catalog
		if items != size {
			owned = []int32{}
			for _, j := range r.Perm(items)[:size] {
				owned = append(owned, int32(j))
			}
		}
		ix := BuildIndex(md, owned)
		if ix.Len() != size {
			t.Fatalf("index holds %d items, want %d", ix.Len(), size)
		}
		if owned == nil {
			owned = append(owned, ix.items...)
		}
		want := int(n) // 255 stands for "more than the index holds"
		if n == 255 {
			want = size + 5
		}
		nonFinite := shape&(shapeNaNScore|shapeNaNRow) != 0

		for user := 0; user < md.M; user++ {
			var rated []int32
			switch ratedMode % ratedModes {
			case ratedEmpty:
				rated = []int32{}
			case ratedAll:
				rated = append(rated, owned...)
			case ratedTopN:
				for _, rec := range bruteForceTopN(md, owned, user, want, nil) {
					rated = append(rated, rec.Item)
				}
			case ratedFirstBlock:
				rated = append(rated, ix.items[:min(scanBlock, size)]...)
			case ratedRandom:
				for _, j := range owned {
					if r.Intn(8) == 0 {
						rated = append(rated, j)
					}
				}
			}
			sort.Slice(rated, func(a, b int) bool { return rated[a] < rated[b] })

			got, st := indexQuery(ix, md, user, want, rated)
			if st.Scanned+st.Pruned != size {
				t.Fatalf("scanned %d + pruned %d != len %d", st.Scanned, st.Pruned, size)
			}
			// Rows are skipped in whole scan blocks; only the last,
			// short block can leave a remainder, on one side or the
			// other.
			if st.Scanned%scanBlock != 0 && st.Pruned%scanBlock != 0 {
				t.Fatalf("pruned mid-block: scanned %d, pruned %d", st.Scanned, st.Pruned)
			}
			switch {
			case shape&shapeNaNRow != 0:
				// A NaN norm has no place in the norm order, so the
				// index makes no promise beyond not failing.
			case nonFinite:
				wantRecs := unprunedHeapScan(ix, md, user, want, rated)
				if len(got) != len(wantRecs) {
					t.Fatalf("got %d recs, want %d", len(got), len(wantRecs))
				}
				for i := range got {
					same := got[i] == wantRecs[i] || (got[i].Item == wantRecs[i].Item &&
						math.IsNaN(got[i].Score) && math.IsNaN(wantRecs[i].Score))
					if !same {
						t.Fatalf("rec %d: got %+v want %+v", i, got[i], wantRecs[i])
					}
				}
			default:
				sameRecs(t, got, bruteForceTopN(md, owned, user, want, rated))
			}
		}
	})
}

// TestScanStatsAccountForEveryRow: Scanned counts rows scored (rated
// ones included), Pruned the rows the bound skipped; together they are
// the table. The blocked scan may score past the exact cut, but by
// less than one block plus the excluded rows it now scores.
func TestScanStatsAccountForEveryRow(t *testing.T) {
	md := longTailModel(20000, 8, factor.Float64)
	ix := BuildIndex(md, nil)
	rated := make([]int32, 0, 300)
	for j := int32(0); j < 20000; j += 67 {
		rated = append(rated, j)
	}
	for user := 0; user < md.M; user++ {
		for _, rt := range [][]int32{nil, rated} {
			recs, st := indexQuery(ix, md, user, 10, rt)
			sameRecs(t, recs, naiveTopN(md, user, 10, rt))
			if st.Scanned+st.Pruned != ix.Len() {
				t.Fatalf("scanned %d + pruned %d != len %d", st.Scanned, st.Pruned, ix.Len())
			}
			// The exact cut: the first row whose bound falls below
			// the final threshold.
			worst := recs[len(recs)-1].Score
			cut := sort.Search(ix.Len(), func(i int) bool {
				return md.UserNorm(user)*ix.norms[i]*ix.slack < worst
			})
			if st.Scanned > cut+scanBlock {
				t.Fatalf("scanned %d rows, exact cut at %d: more than one block past it", st.Scanned, cut)
			}
		}
	}
}

// longTailModel is a catalog whose item norms fall off steeply, the
// shape the norm bound prunes well.
func longTailModel(items, k int, prec factor.Precision) *factor.Model {
	md := factor.NewInitP(64, items, k, 3, factor.Float64)
	h := md.HData()
	r := rand.New(rand.NewSource(9))
	for j := 0; j < items; j++ {
		scale := 1 / float64(1+r.Intn(1000))
		for c := 0; c < k; c++ {
			h[j*k+c] *= scale
		}
	}
	return md.Convert(prec)
}

// heavyTailRated gives every user an ascending exclusion list whose
// length is Pareto-distributed: most users rated a handful of items, a
// few rated thousands.
func heavyTailRated(users, items int) [][]int32 {
	r := rand.New(rand.NewSource(17))
	lists := make([][]int32, users)
	for u := range lists {
		n := min(int(4/math.Pow(1-r.Float64(), 0.8)), items/10)
		seen := make(map[int32]bool, n)
		for len(seen) < n {
			seen[int32(r.Intn(items))] = true
		}
		for j := range seen {
			lists[u] = append(lists[u], j)
		}
		sort.Slice(lists[u], func(a, b int) bool { return lists[u][a] < lists[u][b] })
	}
	return lists
}

// TestTopNAllocFree: with a reused heap a scan allocates nothing, on
// either precision.
func TestTopNAllocFree(t *testing.T) {
	for _, prec := range []factor.Precision{factor.Float64, factor.Float32} {
		md := longTailModel(5000, 16, prec)
		ix := BuildIndex(md, nil)
		rated := heavyTailRated(md.M, md.N)
		h := topn.NewHeap(10)
		user := 0
		allocs := testing.AllocsPerRun(200, func() {
			h.Reset(10)
			if prec == factor.Float32 {
				ix.TopN(nil, md.UserRow32(user), md.UserNorm(user), rated[user], h)
			} else {
				ix.TopN(md.UserRow(user), nil, md.UserNorm(user), rated[user], h)
			}
			user = (user + 1) % md.M
		})
		if allocs != 0 {
			t.Fatalf("%v: %v allocations per TopN, want 0", prec, allocs)
		}
	}
}

// bodyWriter is an http.ResponseWriter that keeps the body in memory.
type bodyWriter struct {
	header http.Header
	body   bytes.Buffer
}

func (w *bodyWriter) Header() http.Header         { return w.header }
func (w *bodyWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *bodyWriter) WriteHeader(int)             {}

// TestRecommendHandlerAllocCeiling bounds what one /v1/recommend costs
// the allocator. Measured 7 on go1.24 (routing, one query parse, the
// JSON encoder, the Content-Type header); it was 12 with a second
// query parse and a fresh heap and item slice per request, so the
// ceiling sits between the two with room for toolchain drift.
func TestRecommendHandlerAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates per request on its own (11 measured); the ceiling is the plain build's")
	}
	md := longTailModel(5000, 16, factor.Float64)
	store := NewStore()
	store.Promote(&Epoch{Seq: 1, Model: md, Index: BuildIndex(md, nil)})
	rated := heavyTailRated(md.M, md.N)
	handler := NewServer(Config{Store: store, Rated: func(u int32) []int32 { return rated[u] }}).Handler()
	req := httptest.NewRequest("GET", "/v1/recommend?user=7&n=10", nil)
	w := &bodyWriter{header: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() {
		w.body.Reset()
		handler.ServeHTTP(w, req)
	})
	if w.body.Len() == 0 {
		t.Fatal("empty response")
	}
	const ceiling = 9
	if allocs > ceiling {
		t.Fatalf("%v allocations per request, ceiling %d", allocs, ceiling)
	}
	t.Logf("%v allocations per request", allocs)
}

// TestRecommendEmptyItemsEncodeAsArray: n=0 answers "items":[] (not
// null) although the item slice now comes from a pool.
func TestRecommendEmptyItemsEncodeAsArray(t *testing.T) {
	md := factor.NewInitP(4, 50, 4, 2, factor.Float64)
	store := NewStore()
	store.Promote(&Epoch{Seq: 1, Model: md, Index: BuildIndex(md, nil)})
	rec := httptest.NewRecorder()
	NewServer(Config{Store: store}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/recommend?user=1&n=0", nil))
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"items":[]`)) {
		t.Fatalf("body %s", rec.Body.Bytes())
	}
}

// BenchmarkIndexTopN is the serving scan on the benchmark's shape: a
// 300K × K16 table with decaying norms, 64 users with heavy-tailed
// exclusion lists, one reused heap; and the same model under a seeded
// rotation ("rotated/…"), which the spectral bound must prune alike.
// ns/query is the figure to compare: ns/row rises as the bounds leave
// fewer, harder-won rows to score.
func BenchmarkIndexTopN(b *testing.B) {
	const items, k = 300000, 16
	axis := decayModel(rand.New(rand.NewSource(7)), 64, items, k)
	rotated := axis.Clone()
	rotateModel(rotated, randomOrthonormal(rand.New(rand.NewSource(8)), k))
	lists := heavyTailRated(axis.M, items)
	for _, model := range []struct {
		prefix string
		md     *factor.Model
	}{{"", axis}, {"rotated/", rotated}} {
		for _, prec := range []factor.Precision{factor.Float64, factor.Float32} {
			md := model.md.Convert(prec)
			ix := BuildIndex(md, nil)
			for _, withRated := range []bool{true, false} {
				name := model.prefix + "f64/"
				if prec == factor.Float32 {
					name = model.prefix + "f32/"
				}
				if withRated {
					name += "rated"
				} else {
					name += "norated"
				}
				b.Run(name, func(b *testing.B) {
					h := topn.NewHeap(10)
					scanned := 0
					for i := 0; i < b.N; i++ {
						user := i % md.M
						var rated []int32
						if withRated {
							rated = lists[user]
						}
						h.Reset(10)
						var st ScanStats
						if prec == factor.Float32 {
							st = ix.TopN(nil, md.UserRow32(user), md.UserNorm(user), rated, h)
						} else {
							st = ix.TopN(md.UserRow(user), nil, md.UserNorm(user), rated, h)
						}
						scanned += st.Scanned
					}
					ns := float64(b.Elapsed().Nanoseconds())
					b.ReportMetric(ns/float64(b.N), "ns/query")
					b.ReportMetric(ns/float64(max(scanned, 1)), "ns/row")
				})
			}
		}
	}
}

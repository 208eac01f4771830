package nomad

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"nomad/internal/vecmath"
)

// TestSingleWorkerModelDigest pins the benchmark's own shape end to
// end: one worker on Synthesize("netflix", 0.05, 7), and the saved
// model must hash to what was recorded with this same test — the
// float64/avx2/k16 row before the two-lane schedule, every other row at
// the commit before the two precisions shared one body per kernel. One
// worker pops its tokens in FIFO order and stops on a deterministic
// token, so any reordering of updates that is not exact — inside a
// list, between the lanes, or at the stop — changes the digest. The
// table crosses both precisions with both dispatches and two ranks:
// K = 16 runs the whole-list and two-list assembly, K = 12 the generic
// portable item pass and the per-rating assembly loop. A SIMD row runs
// only where SIMD is enabled at test start; a portable row forces the
// portable kernels, and runs on amd64 only, because off amd64 the Go
// compiler may fuse multiply-adds.
func TestSingleWorkerModelDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes 4.5 M ratings")
	}
	simd := vecmath.SIMDEnabled()
	rows := []struct {
		prec    Precision
		simd    bool
		k       int
		epochs  int
		updates int64
		digest  string
	}{
		{Float64, true, 16, 3, 13375920, "410deabd4f390baedb8081ff0e778627096c499200d0575fa552a8e199fd98bf"},
		{Float64, true, 12, 1, 4458640, "40daf88949b967665e5d88475b67ba1f1758eabc95729c29f09747037da4cb76"},
		{Float64, false, 16, 1, 4458640, "cb6c361b2c0c8a5028ffc32e22e306a28c2df7476fd3231e1a3bc38d1c728d3c"},
		{Float64, false, 12, 1, 4458640, "48063c872be39d9c473418350cfa7af535a1e15ee2414ed310d67d8a28f8e3c0"},
		{Float32, true, 16, 1, 4458640, "424eab9765e54ec64c21822818a16b503a464f3031c8e27b85e9ee878e37474e"},
		{Float32, true, 12, 1, 4458640, "3088bf034a0e4721ae30d5bd188fe8fcf29b225e4b817b2544f3ab1d2bf3ff9d"},
		{Float32, false, 16, 1, 4458640, "17ea915ad0155a467990eebc72890bffd2b508769441930aad1b4c5eb99bbe5d"},
		{Float32, false, 12, 1, 4458640, "30d3a60d95b2eb2aaa748ed18d70ac6f4a3740333c45ca0c91ecf88fce748d36"},
	}
	d, err := Synthesize("netflix", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		dispatch := "avx2"
		if !row.simd {
			dispatch = "portable"
		}
		t.Run(fmt.Sprintf("%s/%s/k%d", row.prec, dispatch, row.k), func(t *testing.T) {
			switch {
			case row.simd && !simd:
				t.Skip("the digest is the AVX2/FMA kernels'; SIMD is off here")
			case !row.simd && runtime.GOARCH != "amd64":
				t.Skip("the Go compiler may fuse multiply-adds off amd64")
			case !row.simd:
				vecmath.SetSIMD(false)
				t.Cleanup(func() { vecmath.SetSIMD(simd) })
			}
			s, err := NewSession(d, WithWorkers(1), WithSeed(7), WithRank(row.k), WithPrecision(row.prec),
				WithEvalPoints(1), WithStopConditions(MaxEpochs(row.epochs)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := res.Model.Save(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != row.digest || res.Updates != row.updates {
				t.Fatalf("model sha256 %s after %d updates, want %s after %d", got, res.Updates, row.digest, row.updates)
			}
		})
	}
}

// TestDSGDFamilyModelDigest pins DSGD and DSGD++ bit for bit at one
// and at four logical workers (two machines × two threads). Strata
// are disjoint and each worker draws its visiting order from its own
// stream, so these runs are deterministic for any p; the digest covers
// the saved model, the update count, the resumable ring position and
// bold-driver state, and the simulated network's byte and message
// counts.
func TestDSGDFamilyModelDigest(t *testing.T) {
	if !vecmath.SIMDEnabled() {
		t.Skip("the digest is the AVX2/FMA kernels'; other dispatches round differently")
	}
	want := map[string]string{
		"dsgd/1x1":   "b9bf2a53da04d7629434385476b9570f011100ca68fef91159ea9580971ce0f7",
		"dsgd/2x2":   "72acf105ef3fcdfcef8b3f7dbb7bbcfb8ead525d73d0cdcbbd46ee5b580a46d2",
		"dsgdpp/1x1": "bad9b0d3fb7bb8b4ece716491627e3dbeab64b6bebbb123d6a48817f265c739f",
		"dsgdpp/2x2": "212a41c48e0bcf5940fdd0d7245f28d562ba6dc3658cab5cb78cc8748ed0802d",
	}
	d, err := Synthesize("netflix", 0.005, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"dsgd", "dsgdpp"} {
		for _, mw := range [][2]int{{1, 1}, {2, 2}} {
			name := fmt.Sprintf("%s/%dx%d", algo, mw[0], mw[1])
			t.Run(name, func(t *testing.T) {
				s, err := NewSession(d, WithAlgorithm(algo), WithCluster(mw[0], "instant"), WithWorkers(mw[1]),
					WithSeed(7), WithEvalPoints(1), WithStopConditions(MaxEpochs(3)))
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				if err := res.Model.Save(h); err != nil {
					t.Fatal(err)
				}
				st := s.state
				fmt.Fprintf(h, "|%d|%d|%x|%x|%t|%d|%d", res.Updates, st.Ring,
					math.Float64bits(st.Bold.Step), math.Float64bits(st.Bold.Prev), st.Bold.Primed,
					res.BytesSent, res.MessagesSent)
				if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
					t.Fatalf("digest %s (updates %d, ring %d, bytes %d, messages %d), want %s",
						got, res.Updates, st.Ring, res.BytesSent, res.MessagesSent, want[name])
				}
			})
		}
	}
}

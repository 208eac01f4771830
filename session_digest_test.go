package nomad

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"nomad/internal/vecmath"
)

// TestSingleWorkerModelDigest pins the benchmark's own shape end to
// end: one worker, three epochs of Synthesize("netflix", 0.05, 7), and
// the saved model must hash to what the commit before the two-lane
// schedule produced (recorded there with this same test). One worker
// pops its tokens in FIFO order and stops on a deterministic token, so
// any reordering of updates that is not exact — inside a list, between
// the lanes, or at the stop — changes the digest.
func TestSingleWorkerModelDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes 4.5 M ratings")
	}
	if !vecmath.SIMDEnabled() {
		t.Skip("the digest is the AVX2/FMA kernels'; other dispatches round differently")
	}
	const (
		wantUpdates = 13375920
		wantDigest  = "410deabd4f390baedb8081ff0e778627096c499200d0575fa552a8e199fd98bf"
	)
	d, err := Synthesize("netflix", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d, WithWorkers(1), WithSeed(7), WithEvalPoints(1), WithStopConditions(MaxEpochs(3)))
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
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest || res.Updates != wantUpdates {
		t.Fatalf("model sha256 %s after %d updates, want %s after %d", got, res.Updates, wantDigest, wantUpdates)
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

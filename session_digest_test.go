package nomad

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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
	if !vecmath.SIMDEnabled() || vecmath.ReferenceOnly() {
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

package nomad

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

func synthSmall(t *testing.T) *Dataset {
	t.Helper()
	d, err := Synthesize("netflix", 0.0002, 9)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runSession trains d to completion with the given options.
func runSession(d *Dataset, opts ...Option) (*Result, error) {
	s, err := NewSession(d, opts...)
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background())
}

func TestSynthesizeShapes(t *testing.T) {
	d := synthSmall(t)
	if d.Users() <= 0 || d.Items() <= 0 || d.TrainSize() == 0 || d.TestSize() == 0 {
		t.Fatalf("degenerate dataset: %d users %d items %d train %d test",
			d.Users(), d.Items(), d.TrainSize(), d.TestSize())
	}
}

func TestSynthesizeUnknownProfile(t *testing.T) {
	if _, err := Synthesize("ml-100k", 1, 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestTrainDefaultAlgorithm(t *testing.T) {
	d := synthSmall(t)
	res, err := runSession(d, WithStopConditions(MaxEpochs(8)), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "nomad" {
		t.Fatalf("default algorithm = %q", res.Algorithm)
	}
	if math.IsNaN(res.TestRMSE) || res.TestRMSE <= 0 {
		t.Fatalf("TestRMSE = %v", res.TestRMSE)
	}
	if len(res.Trace) < 2 {
		t.Fatalf("trace has %d points", len(res.Trace))
	}
	if res.Trace[0].RMSE <= res.TestRMSE {
		t.Fatalf("no improvement: init %.4f final %.4f", res.Trace[0].RMSE, res.TestRMSE)
	}
}

func TestTrainEveryAlgorithm(t *testing.T) {
	d := synthSmall(t)
	for _, name := range Algorithms() {
		res, err := runSession(d, WithAlgorithm(name), WithStopConditions(MaxEpochs(3)), WithSeed(3), WithWorkers(2))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Updates == 0 {
			t.Errorf("%s: no work performed", name)
		}
	}
}

func TestTrainDistributedNetworkNames(t *testing.T) {
	d := synthSmall(t)
	for _, network := range []string{"instant", "hpc", "commodity"} {
		res, err := runSession(d, WithCluster(2, network), WithStopConditions(MaxEpochs(2)), WithSeed(1))
		if err != nil {
			t.Fatalf("%s: %v", network, err)
		}
		if res.MessagesSent == 0 {
			t.Errorf("%s: no messages sent", network)
		}
	}
	if _, err := runSession(d, WithCluster(1, "carrier-pigeon")); err == nil {
		t.Fatal("bad network name accepted")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := runSession(nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
	d := synthSmall(t)
	if _, err := runSession(d, WithAlgorithm("quantum")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestNewDatasetAndPredictRoundTrip(t *testing.T) {
	trainR := []Rating{
		{0, 0, 5}, {0, 1, 3}, {1, 0, 4}, {1, 2, 1}, {2, 1, 2}, {2, 2, 5},
	}
	testR := []Rating{{0, 2, 4}}
	d, err := NewDataset(3, 3, trainR, testR)
	if err != nil {
		t.Fatal(err)
	}
	if d.TrainSize() != 6 || d.TestSize() != 1 {
		t.Fatalf("sizes: %d/%d", d.TrainSize(), d.TestSize())
	}
	if !d.Rated(0, 0) || d.Rated(0, 2) {
		t.Fatal("Rated wrong")
	}
	got := d.UserRatings(0)
	if len(got) != 2 || got[0].Value != 5 {
		t.Fatalf("UserRatings = %+v", got)
	}
}

func TestNewDatasetRejectsBadTest(t *testing.T) {
	if _, err := NewDataset(2, 2, []Rating{{0, 0, 1}}, []Rating{{5, 0, 1}}); err == nil {
		t.Fatal("out-of-range test rating accepted")
	}
}

func TestSplitConserves(t *testing.T) {
	var ratings []Rating
	for u := 0; u < 30; u++ {
		for i := 0; i < 10; i++ {
			if (u+i)%2 == 0 {
				ratings = append(ratings, Rating{u, i, float64(i)})
			}
		}
	}
	d, err := Split(30, 10, ratings, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.TrainSize()+d.TestSize() != len(ratings) {
		t.Fatal("split lost ratings")
	}
	if d.TestSize() == 0 {
		t.Fatal("empty test split")
	}
}

func TestRecommendExcludesRated(t *testing.T) {
	d := synthSmall(t)
	res, err := runSession(d, WithStopConditions(MaxEpochs(5)), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	user := 0
	recs := res.Model.Recommend(d, user, 5)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	for _, r := range recs {
		if d.Rated(user, r.Item) {
			t.Errorf("recommended already-rated item %d", r.Item)
		}
	}
	// Scores must be sorted descending.
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Fatal("recommendations not sorted")
		}
	}
}

func TestModelSaveLoad(t *testing.T) {
	d := synthSmall(t)
	res, err := runSession(d, WithStopConditions(MaxEpochs(3)), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Predict(1, 1) != res.Model.Predict(1, 1) {
		t.Fatal("loaded model predicts differently")
	}
	if got := d.RMSE(loaded); math.Abs(got-res.TestRMSE) > 1e-12 {
		t.Fatalf("loaded RMSE %v != %v", got, res.TestRMSE)
	}
}

func TestDatasetTextRoundTrip(t *testing.T) {
	d := synthSmall(t)
	var buf bytes.Buffer
	if err := d.WriteTrainMatrix(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDataset(strings.NewReader(buf.String()), 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d2.TrainSize()+d2.TestSize() != d.TrainSize() {
		t.Fatal("text round trip changed rating count")
	}
}

func TestRankingQuality(t *testing.T) {
	d := synthSmall(t)
	res, err := runSession(d, WithStopConditions(MaxEpochs(8)), WithSeed(2), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	rq := d.Ranking(res.Model, 5, 4.0)
	if rq.Users == 0 {
		t.Fatal("no users evaluated")
	}
	if rq.K != 5 {
		t.Fatalf("K = %d", rq.K)
	}
	for name, v := range map[string]float64{
		"precision": rq.PrecisionK, "recall": rq.RecallK, "ndcg": rq.NDCGK,
	} {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Errorf("%s@K = %v out of [0,1]", name, v)
		}
	}
	// A trained model must rank far better than random: with 17 items
	// and several relevant per user, random recall@5 ≈ 5/17; demand
	// meaningfully more.
	if rq.RecallK < 0.4 {
		t.Errorf("recall@5 = %.3f, suspiciously low for a trained model", rq.RecallK)
	}
}

func TestLossConfig(t *testing.T) {
	d := synthSmall(t)
	for _, l := range []string{"square", "absolute", "logistic"} {
		if _, err := runSession(d, WithLoss(l), WithStopConditions(MaxEpochs(2)), WithSeed(1)); err != nil {
			t.Errorf("loss %q: %v", l, err)
		}
	}
	if _, err := runSession(d, WithLoss("hinge")); err == nil {
		t.Error("unknown loss accepted")
	}
}

func TestAlgorithmsListMatchesRegistry(t *testing.T) {
	d := synthSmall(t)
	_ = d
	names := Algorithms()
	if len(names) != 9 {
		t.Fatalf("expected 9 algorithms, got %d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate algorithm %q", n)
		}
		seen[n] = true
	}
}

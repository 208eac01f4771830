package core

import (
	"context"
	"testing"

	"nomad/internal/dataset"
	"nomad/internal/netsim"
	"nomad/internal/partition"
	"nomad/internal/sparse"
	"nomad/internal/train"
)

// testData builds a small, learnable synthetic dataset.
func testData(t testing.TB) *dataset.Dataset {
	t.Helper()
	spec := dataset.Spec{
		Name: "test", Rows: 300, Cols: 60, NNZ: 8000,
		RowSkew: 0.8, ColSkew: 0.8, TrueRank: 4, NoiseSD: 0.1,
		TestFrac: 0.15, Seed: 7,
	}
	ds, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func baseConfig() train.Config {
	return train.Config{
		K: 8, Lambda: 0.02, Alpha: 0.08, Beta: 0.01,
		Workers: 1, Machines: 1, Epochs: 20, EvalPoints: 5, Seed: 3,
	}
}

func runNomad(t testing.TB, ds *dataset.Dataset, cfg train.Config) *train.Result {
	t.Helper()
	res, err := New().Train(context.Background(), ds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireConverged asserts the run improved markedly over its first
// trace sample and reached a sane absolute level for this dataset.
func requireConverged(t *testing.T, res *train.Result) {
	t.Helper()
	tr := res.Trace
	if len(tr.Points) < 2 {
		t.Fatalf("trace too short: %d points", len(tr.Points))
	}
	first, final := tr.Points[0].RMSE, tr.Final().RMSE
	if final > 0.6 {
		t.Errorf("final RMSE %.4f too high (first sample %.4f)", final, first)
	}
	if final >= first {
		t.Errorf("no improvement: first %.4f, final %.4f", first, final)
	}
}

func TestSharedSingleWorkerConverges(t *testing.T) {
	ds := testData(t)
	res := runNomad(t, ds, baseConfig())
	requireConverged(t, res)
	if res.Updates < int64(ds.Train.NNZ()) {
		t.Errorf("only %d updates for %d ratings", res.Updates, ds.Train.NNZ())
	}
	if res.BytesSent != 0 {
		t.Errorf("shared-memory run reported %d network bytes", res.BytesSent)
	}
}

func TestSharedMultiWorkerConverges(t *testing.T) {
	ds := testData(t)
	cfg := baseConfig()
	cfg.Workers = 4
	res := runNomad(t, ds, cfg)
	requireConverged(t, res)
}

func TestSharedLoadBalanceConverges(t *testing.T) {
	ds := testData(t)
	cfg := baseConfig()
	cfg.Workers = 4
	cfg.LoadBalance = true
	requireConverged(t, runNomad(t, ds, cfg))
}

func TestUpdatesRespectCap(t *testing.T) {
	ds := testData(t)
	cfg := baseConfig()
	cfg.Workers = 2
	cfg.Epochs = 0
	cfg.MaxUpdates = 5000
	res := runNomad(t, ds, cfg)
	// The stop is asynchronous: workers keep updating while the monitor
	// notices the crossed threshold (and may be mid-evaluation), so the
	// count overshoots. The guarantees are (a) at least the requested
	// work happened and (b) the run ended promptly rather than running
	// unbounded (Epochs=0 means nothing else would stop it).
	if res.Updates < 5000 {
		t.Errorf("stopped at %d updates, below cap 5000", res.Updates)
	}
	if res.Elapsed.Seconds() > 5 {
		t.Errorf("run did not stop promptly: %v elapsed", res.Elapsed)
	}
}

func TestDistributedConverges(t *testing.T) {
	ds := testData(t)
	cfg := baseConfig()
	cfg.Machines = 2
	cfg.Workers = 2
	cfg.Profile = netsim.Instant()
	res := runNomad(t, ds, cfg)
	requireConverged(t, res)
	if res.MessagesSent == 0 || res.BytesSent == 0 {
		t.Error("distributed run sent no network traffic")
	}
}

func TestDistributedHPCProfile(t *testing.T) {
	ds := testData(t)
	cfg := baseConfig()
	cfg.Machines = 2
	cfg.Workers = 1
	cfg.Epochs = 8
	cfg.Profile = netsim.HPC()
	requireConverged(t, runNomad(t, ds, cfg))
}

func TestDistributedLoadBalance(t *testing.T) {
	ds := testData(t)
	cfg := baseConfig()
	cfg.Machines = 3
	cfg.Workers = 1
	cfg.Epochs = 8
	cfg.LoadBalance = true
	requireConverged(t, runNomad(t, ds, cfg))
}

func TestDistributedCirculateTwice(t *testing.T) {
	ds := testData(t)
	cfg := baseConfig()
	cfg.Machines = 2
	cfg.Workers = 2
	cfg.Epochs = 8
	cfg.Circulate = 2
	requireConverged(t, runNomad(t, ds, cfg))
}

func TestDistributedSmallBatch(t *testing.T) {
	ds := testData(t)
	cfg := baseConfig()
	cfg.Machines = 2
	cfg.Workers = 1
	cfg.Epochs = 5
	cfg.BatchSize = 1
	res := runNomad(t, ds, cfg)
	// With batch size 1, message count must be at least token moves.
	if res.MessagesSent < 10 {
		t.Errorf("suspiciously few messages: %d", res.MessagesSent)
	}
}

func TestDeadlineStopsRun(t *testing.T) {
	ds := testData(t)
	cfg := baseConfig()
	cfg.Epochs = 0
	cfg.MaxUpdates = 1 << 60
	cfg.Deadline = 150 * 1e6 // 150ms in nanoseconds
	res := runNomad(t, ds, cfg)
	if res.Elapsed.Seconds() > 5 {
		t.Errorf("deadline ignored: ran %v", res.Elapsed)
	}
}

func TestTrainRejectsEmptyDataset(t *testing.T) {
	if _, err := New().Train(context.Background(), nil, baseConfig(), nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

func TestLocalRatingsPartition(t *testing.T) {
	ds := testData(t)
	p := 4
	users := partition.EqualRanges(ds.Rows(), p)
	local := buildShards(ds.Train, users, 0, p, nil)

	// Conservation: every rating appears in exactly one worker's store.
	total := 0
	for _, lr := range local {
		total += lr.nnz()
	}
	if total != ds.Train.NNZ() {
		t.Fatalf("local stores hold %d ratings, train has %d", total, ds.Train.NNZ())
	}

	// Ownership: each stored rating's user belongs to that worker, and
	// the value matches the training matrix.
	for q, lr := range local {
		for j := 0; j < ds.Cols(); j++ {
			usersJ, vals, _ := lr.itemRatings(j)
			for x, u := range usersJ {
				if users.Owner(int(u)) != q {
					t.Fatalf("worker %d stores rating of user %d owned by %d", q, u, users.Owner(int(u)))
				}
				want, ok := ds.Train.At(int(u), j)
				if !ok || want != vals[x] {
					t.Fatalf("rating (%d,%d) mismatch: %v vs %v (ok=%v)", u, j, vals[x], want, ok)
				}
			}
		}
	}
}

func TestLocalRatingsSingleWorkerMatchesCSC(t *testing.T) {
	b := sparse.NewBuilder(4, 3, 0)
	b.Add(0, 0, 1)
	b.Add(1, 0, 2)
	b.Add(2, 1, 3)
	b.Add(3, 2, 4)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	local := buildShards(m, partition.EqualRanges(4, 1), 0, 1, nil)
	if len(local) != 1 || local[0].nnz() != 4 {
		t.Fatalf("unexpected local store: %d stores", len(local))
	}
	usersJ, vals, _ := local[0].itemRatings(0)
	if len(usersJ) != 2 || usersJ[0] != 0 || usersJ[1] != 1 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("item 0 local ratings wrong: %v %v", usersJ, vals)
	}
}

func TestMoreWorkersStillCountUpdates(t *testing.T) {
	// Degenerate: more workers than items. Tokens are scarce; the run
	// must still terminate and count updates.
	ds := testData(t)
	cfg := baseConfig()
	cfg.Workers = 8
	cfg.Epochs = 2
	res := runNomad(t, ds, cfg)
	if res.Updates == 0 {
		t.Fatal("no updates with worker oversubscription")
	}
}

package core

import (
	"context"
	"fmt"
	"testing"

	"nomad/internal/queue"
	"nomad/internal/rng"
	"nomad/internal/train"
)

// assertOwnershipMap checks the checkpointed token-ownership map holds
// every item exactly once — the no-loss/no-duplication half of NOMAD's
// serializability discipline that the in-run drain also enforces.
func assertOwnershipMap(t *testing.T, label string, res *train.Result, n int) {
	t.Helper()
	if res.Final == nil {
		t.Fatalf("%s: no final state", label)
	}
	seen := make([]bool, n)
	parked := 0
	for _, items := range res.Final.Queues {
		for _, j := range items {
			if j < 0 || int(j) >= n {
				t.Fatalf("%s: parked token %d out of range [0,%d)", label, j, n)
			}
			if seen[j] {
				t.Fatalf("%s: token %d parked twice", label, j)
			}
			seen[j] = true
			parked++
		}
	}
	if parked != n {
		t.Fatalf("%s: %d tokens parked for %d items", label, parked, n)
	}
}

// TestTokenConservationRandomizedStop is the transport property test:
// for every worker count up to 4, with load balancing both off and on,
// stop runs at randomized update budgets — so workers are interrupted
// at arbitrary points with tokens in rings, out-buffers and in-flight
// blocks — and demand an exact ownership map every time.
func TestTokenConservationRandomizedStop(t *testing.T) {
	ds := testData(t)
	n := ds.Cols()
	r := rng.New(99)
	for workers := 1; workers <= 4; workers++ {
		for _, lb := range []bool{false, true} {
			for rep := 0; rep < 3; rep++ {
				cfg := baseConfig()
				cfg.Workers = workers
				cfg.LoadBalance = lb
				cfg.Epochs = 0
				cfg.MaxUpdates = 1000 + int64(r.Intn(20000))
				label := fmt.Sprintf("p=%d lb=%v rep %d (budget %d)", workers, lb, rep, cfg.MaxUpdates)
				res, err := New().Train(context.Background(), ds, cfg, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertOwnershipMap(t, label, res, n)
			}
		}
	}
}

// TestMeshTokenConservationDistributed covers the same invariant on
// the distributed runner over both link backends, where conservation
// is checked by the fold-into-model collection (an error return on
// violation), at randomized update budgets.
func TestMeshTokenConservationDistributed(t *testing.T) {
	ds := testData(t)
	r := rng.New(98)
	for _, backend := range []string{"sim", "tcp"} {
		for _, lb := range []bool{false, true} {
			for rep := 0; rep < 3; rep++ {
				cfg := baseConfig()
				cfg.Machines = 2
				cfg.Workers = 2
				cfg.Backend = backend
				cfg.LoadBalance = lb
				cfg.Epochs = 0
				cfg.MaxUpdates = 1000 + int64(r.Intn(20000))
				label := fmt.Sprintf("%s lb=%v rep %d (budget %d)", backend, lb, rep, cfg.MaxUpdates)
				res, err := New().Train(context.Background(), ds, cfg, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Updates < cfg.MaxUpdates {
					t.Errorf("%s: stopped at %d updates, below budget", label, res.Updates)
				}
			}
		}
	}
}

// TestMeshSingleWorkerDeterministic: two identical single-worker runs
// on the batched transport must produce byte-identical models and the
// same parked-token order — the determinism that checkpoint/resume
// bit-compatibility is built on.
func TestMeshSingleWorkerDeterministic(t *testing.T) {
	ds := testData(t)
	run := func() *train.Result {
		cfg := baseConfig()
		cfg.Epochs = 3
		return runNomad(t, ds, cfg)
	}
	a, b := run(), run()
	if a.Updates != b.Updates {
		t.Fatalf("update counts diverge: %d vs %d", a.Updates, b.Updates)
	}
	am, bm := a.Model.HData(), b.Model.HData()
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("item factors diverge at %d: %v vs %v", i, am[i], bm[i])
		}
	}
	qa, qb := a.Final.Queues, b.Final.Queues
	if len(qa) != 1 || len(qb) != 1 || len(qa[0]) != len(qb[0]) {
		t.Fatalf("parked queue shapes diverge: %d/%d", len(qa[0]), len(qb[0]))
	}
	for i := range qa[0] {
		if qa[0][i] != qb[0][i] {
			t.Fatalf("parked token order diverges at %d: %d vs %d", i, qa[0][i], qb[0][i])
		}
	}
}

// TestMeshRestoreOverflow: a mesh checkpoint with more tokens
// than one lane holds must still restore without loss (overflow goes
// through the worker's preload buffer).
func TestMeshRestoreOverflow(t *testing.T) {
	n := 2000
	mesh := queue.NewMesh[sharedToken](2, 8) // lane capacity 8 ≪ n/2
	preload := make([][]sharedToken, 2)
	saved := make([][]int32, 2)
	for j := 0; j < n; j++ {
		saved[j%2] = append(saved[j%2], int32(j))
	}
	if err := restoreMesh(mesh, preload, saved, n, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	got := 0
	for q := 0; q < 2; q++ {
		mesh.Drain(q, func(sharedToken) { got++ })
		got += len(preload[q])
	}
	if got != n {
		t.Fatalf("restored %d tokens, want %d", got, n)
	}
	// Duplicate detection must survive the overflow path too.
	saved[0][0] = saved[1][0]
	if err := restoreMesh(queue.NewMesh[sharedToken](2, 8), make([][]sharedToken, 2), saved, n, rng.New(1)); err == nil {
		t.Fatal("duplicate parked token accepted")
	}
}

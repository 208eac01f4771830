package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"nomad/internal/dataset"
	"nomad/internal/factor"
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
// the distributed runner over both link backends, where the teardown's
// exact check (an error return on violation) sees every token, at
// randomized update budgets. The K=16 shapes run the lanes: testData's
// per-worker lists are mostly ≥ laneMin, so the paired path, the visit
// plans (W = 2) and the float32 wire conversion all run on the
// distributed loop.
func TestMeshTokenConservationDistributed(t *testing.T) {
	ds := testData(t)
	r := rng.New(98)
	run := func(label string, cfg train.Config) {
		t.Helper()
		cfg.Machines = 2
		cfg.Epochs = 0
		cfg.MaxUpdates = 1000 + int64(r.Intn(20000))
		label = fmt.Sprintf("%s (budget %d)", label, cfg.MaxUpdates)
		res, err := New().Train(context.Background(), ds, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Updates < cfg.MaxUpdates {
			t.Errorf("%s: stopped at %d updates, below budget", label, res.Updates)
		}
	}
	for _, backend := range []string{"sim", "tcp"} {
		for _, lb := range []bool{false, true} {
			for rep := 0; rep < 3; rep++ {
				cfg := baseConfig()
				cfg.Workers, cfg.Backend, cfg.LoadBalance = 2, backend, lb
				run(fmt.Sprintf("%s lb=%v rep %d", backend, lb, rep), cfg)
			}
		}
		for _, prec := range []factor.Precision{factor.Float64, factor.Float32} {
			for _, workers := range []int{1, 2} {
				cfg := baseConfig()
				cfg.K, cfg.Precision, cfg.Workers, cfg.Backend = 16, prec, workers, backend
				if long := longLists(ds, 2*workers); long < 0.75 {
					t.Fatalf("W=%d: only %.2f of the per-worker lists reach laneMin", workers, long)
				}
				run(fmt.Sprintf("%s K=16 %v W=%d", backend, prec, workers), cfg)
			}
		}
	}
}

// longLists is the share of nonempty per-worker rating lists, over p
// workers, that are at least laneMin long.
func longLists(ds *dataset.Dataset, p int) float64 {
	long, lists := 0, 0
	for _, lr := range buildLocalRatings(ds.Train, partitionUsers(ds, train.Config{}, p)) {
		for j := 0; j < ds.Cols(); j++ {
			if l := lr.colPtr[j+1] - lr.colPtr[j]; l > 0 {
				lists++
				if l >= laneMin {
					long++
				}
			}
		}
	}
	return float64(long) / float64(lists)
}

// TestConservationCheckIsExact: the teardown's check must catch a
// holding with one item twice and another missing — as many tokens as
// items, so a count alone would pass it — wherever in the mesh, the
// block remainders or the out-buffers the two tokens sit.
func TestConservationCheckIsExact(t *testing.T) {
	const n = 10
	held := func(last int32) [][]int32 {
		mesh := queue.NewMesh[itemToken](2, 16)
		for j := int32(0); j < 6; j++ {
			mesh.Send(0, int(j/3), itemToken{item: j})
		}
		workers := []worker{{mesh: mesh, q: 0}, {mesh: mesh, q: 1}}
		workers[0].res.in = []itemToken{{item: 6}, {item: 7}}
		workers[1].res.out = [][]itemToken{{{item: 8}}, {{item: last}}}
		queues := make([][]int32, 2)
		collectParked(queues, mesh, workers)
		return queues
	}
	exact := held(9)
	if err := forEachParked(exact, n, nil); err != nil {
		t.Fatalf("exact holding rejected: %v", err)
	}
	if want := [][]int32{{6, 7, 0, 1, 2, 8}, {3, 4, 5, 9}}; !slices.EqualFunc(exact, want, slices.Equal) {
		t.Fatalf("collected %v, want front residual, lanes, then out-buffers: %v", exact, want)
	}
	if err := forEachParked(held(3), n, nil); err == nil || !strings.Contains(err.Error(), "item token 3 held twice") {
		t.Fatalf("item 3 twice and item 9 missing: got %v", err)
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
	mesh := queue.NewMesh[itemToken](2, 8) // lane capacity 8 ≪ n/2
	preload := make([][]itemToken, 2)
	saved := make([][]int32, 2)
	for j := 0; j < n; j++ {
		saved[j%2] = append(saved[j%2], int32(j))
	}
	if err := restoreMesh(mesh, preload, saved, n, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	got := 0
	for q := 0; q < 2; q++ {
		mesh.Drain(q, func(itemToken) { got++ })
		got += len(preload[q])
	}
	if got != n {
		t.Fatalf("restored %d tokens, want %d", got, n)
	}
	// Duplicate detection must survive the overflow path too.
	saved[0][0] = saved[1][0]
	if err := restoreMesh(queue.NewMesh[itemToken](2, 8), make([][]itemToken, 2), saved, n, rng.New(1)); err == nil {
		t.Fatal("duplicate parked token accepted")
	}
}

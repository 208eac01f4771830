package nomad

// Cross-algorithm integration tests: every solver in the repository
// optimizes objective (1) on the same data, so given enough budget all
// of them must land in the same quality neighbourhood. This is the
// repository-level consistency check behind every comparison figure —
// if one solver's implementation drifted (wrong gradient, wrong
// regularizer, broken partition), it would fail here long before a
// benchmark looked "slow".

import (
	"math"
	"testing"
	"time"
)

// qualityDataset is large enough that converged quality is stable but
// small enough that every solver converges within the test budget.
func qualityDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := Synthesize("yahoo", 0.0002, 17)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAllSolversReachComparableQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-solver convergence test")
	}
	d := qualityDataset(t)
	finals := map[string]float64{}
	// biassgd optimizes a different model (bias terms) and is compared
	// in its own Appendix F figure; hogwild and glals are included.
	solvers := []string{"nomad", "dsgd", "dsgdpp", "fpsgd", "ccd", "als", "glals", "hogwild"}
	for _, name := range solvers {
		// Equal wall-clock budgets: update budgets would be unfair to
		// CCD++/ALS, whose work units differ (a CCD++ outer iteration
		// touches each rating 2k times).
		res, err := runSession(d, WithAlgorithm(name), WithWorkers(2),
			WithStopConditions(MaxDuration(1500*time.Millisecond)), WithLambda(0.05), WithSeed(4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		finals[name] = res.TestRMSE
	}
	// All solvers must improve decisively on the untrained baseline
	// (≈1.0 for unit-variance ratings)...
	for name, rmse := range finals {
		if math.IsNaN(rmse) || rmse > 0.8 {
			t.Errorf("%s: final RMSE %.4f did not converge", name, rmse)
		}
	}
	// ...and the spread between the best and worst converged solver
	// must be modest: they optimize the same objective.
	best, worst := math.Inf(1), math.Inf(-1)
	for _, rmse := range finals {
		best = math.Min(best, rmse)
		worst = math.Max(worst, rmse)
	}
	if worst > best*1.6 {
		t.Errorf("solver quality spread too wide: best %.4f worst %.4f (%+v)", best, worst, finals)
	}
}

func TestNomadDistributedMatchesSharedQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed convergence test")
	}
	d := qualityDataset(t)
	run := func(machines int) float64 {
		res, err := runSession(d, WithCluster(machines, "hpc"), WithWorkers(2),
			WithStopConditions(MaxEpochs(30)), WithSeed(6), WithLambda(0.05))
		if err != nil {
			t.Fatal(err)
		}
		return res.TestRMSE
	}
	shared := run(1)
	distributed := run(4)
	// Distribution must not change what NOMAD converges to.
	if distributed > shared*1.25 && distributed-shared > 0.05 {
		t.Errorf("distributed RMSE %.4f far from shared %.4f", distributed, shared)
	}
}

func TestLoadBalanceNeverLosesTokens(t *testing.T) {
	// Stress the routing paths: straggler + load balancing + tiny
	// batches + commodity latency, all at once. The run's internal
	// token-conservation check fails the run if any token is lost or
	// duplicated.
	d := qualityDataset(t)
	_, err := runSession(d, WithCluster(3, "commodity"), WithWorkers(2),
		WithLoadBalance(), WithStraggler(3), WithBatchSize(1),
		WithStopConditions(MaxEpochs(1000000), MaxDuration(time.Second)), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
}

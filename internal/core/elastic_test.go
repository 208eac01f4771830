package core

// The elasticity matrix: a 4-machine asynchronous run (one provisioned
// spare) survives a chaos schedule that kills one machine, joins the
// spare and drains a member — on both link backends — conserving all n
// item tokens across every resize and
// converging to the undisturbed noise floor. Plus arbiter succession
// (the coordinator itself dies) and the fence-timeout abort path.

import (
	"math"
	"strings"
	"testing"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/train"
)

// elasticConfig is the shared 4-machine + 1-spare elastic run.
func elasticConfig(backend string) train.Config {
	cfg := failoverConfig(backend)
	cfg.ElasticSpares = 1
	return cfg
}

// runElastic is runFailover plus typed resize-event capture.
func runElastic(t *testing.T, cfg train.Config, chaos string) (*train.Result, []train.PeerRecoveredEvent, []train.ResizeEvent) {
	t.Helper()
	spec, err := cluster.ParseChaos(chaos)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = spec
	var recovs []train.PeerRecoveredEvent
	var resizes []train.ResizeEvent
	res, err := New().Train(t.Context(), testData(t), cfg, membershipHooks(&recovs, &resizes))
	if err != nil {
		t.Fatalf("elastic run failed: %v", err)
	}
	return res, recovs, resizes
}

// membershipHooks appends the recoveries and resizes a run emits.
func membershipHooks(recovs *[]train.PeerRecoveredEvent, resizes *[]train.ResizeEvent) *train.Hooks {
	return &train.Hooks{Sink: func(e train.Event) {
		switch e := e.(type) {
		case train.PeerRecoveredEvent:
			*recovs = append(*recovs, e)
		case train.ResizeEvent:
			*resizes = append(*resizes, e)
		}
	}}
}

// requireResized asserts one committed resize of the given kind and
// subject rank, with a plausible request→commit latency.
func requireResized(t *testing.T, resizes []train.ResizeEvent, kind string, rank int) train.ResizeEvent {
	t.Helper()
	for _, e := range resizes {
		if e.Kind != kind {
			continue
		}
		if e.Rank != rank {
			t.Fatalf("%s resize names rank %d, want %d", kind, e.Rank, rank)
		}
		if e.Seconds < 0 || e.Seconds > 30 {
			t.Fatalf("implausible %s latency %v s", kind, e.Seconds)
		}
		return e
	}
	t.Fatalf("no %q ResizeEvent emitted (got %v)", kind, resizes)
	return train.ResizeEvent{}
}

// TestElasticKillJoinDrain runs the full multi-fault schedule — kill a
// machine mid-epoch, activate the provisioned spare, then drain a
// member — on both link backends. The run must
// survive all three membership changes, conserve every item token
// (checked by the runner's teardown) and converge to within 1e-2 of
// the undisturbed run's final RMSE. A second run requests a join and a
// drain back to back; every resize of both runs must be timed from its
// own request.
func TestElasticKillJoinDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second elasticity matrix")
	}
	// The undisturbed reference: same provisioned topology, no faults.
	base, _, _ := runFailover(t, elasticConfig("sim"), "")
	baseline := base.Trace.Final().RMSE
	for _, backend := range []string{"sim", "tcp"} {
		// The subtest suffix names the token transport, the SPSC mesh.
		t.Run(backend+"_spsc", func(t *testing.T) {
			// Auto-resolved subjects: kill the highest selectable rank (3),
			// join the lowest unclaimed spare (4), drain the highest
			// selectable member that did not just join (2).
			res, recovs, resizes := runElastic(t, elasticConfig(backend),
				"kill@mid-epoch;join@mid-epoch;drain@mid-epoch")
			if len(recovs) != 1 || recovs[0].Rank != 3 {
				t.Fatalf("want one recovery of rank 3, got %v", recovs)
			}
			j := requireResized(t, resizes, "join", 4)
			if j.Machines != 4 {
				t.Errorf("post-join working set %d, want 4", j.Machines)
			}
			d := requireResized(t, resizes, "drain", 2)
			if d.Machines != 3 {
				t.Errorf("post-drain working set %d, want 3", d.Machines)
			}
			requireConverged(t, res)
			if drift := math.Abs(res.Trace.Final().RMSE - baseline); drift > 1e-2 {
				t.Errorf("final RMSE %.4f drifted %.4f from undisturbed %.4f (> 1e-2)",
					res.Trace.Final().RMSE, drift, baseline)
			}
			requireTimed(t, resizes)

			// A join and a drain requested back to back, the drain
			// before the join commits: each resize is timed from its
			// own request.
			res, _, resizes = runElastic(t, elasticConfig(backend), "join@mid-epoch;drain@mid-epoch")
			requireResized(t, resizes, "join", 4)
			requireResized(t, resizes, "drain", 3)
			requireTimed(t, resizes)
			requireConverged(t, res)
		})
	}
}

// requireTimed asserts that every resize reports a positive
// request→commit latency.
func requireTimed(t *testing.T, resizes []train.ResizeEvent) {
	t.Helper()
	for _, e := range resizes {
		if e.Seconds <= 0 {
			t.Errorf("%s of rank %d reports %v s since its request, want > 0", e.Kind, e.Rank, e.Seconds)
		}
	}
}

// TestElasticArbiterSuccession kills rank 0 — the arbiter — and then
// requests a join: the next-lowest live rank must take over as
// coordinator and drive both rounds to completion without restarting
// the epoch (a restart would lose the budget and show as divergence).
func TestElasticArbiterSuccession(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second elasticity run")
	}
	res, recovs, resizes := runElastic(t, elasticConfig("sim"),
		"kill:rank=0,at=mid-epoch;join@mid-epoch")
	if len(recovs) != 1 || recovs[0].Rank != 0 {
		t.Fatalf("want one recovery of rank 0 (the arbiter), got %v", recovs)
	}
	requireResized(t, resizes, "join", 4)
	requireConverged(t, res)
}

// TestElasticDrainOnly: a lone graceful leave loses zero updates — the
// leaver's state is moved, not reconstructed — so no PeerDown or
// recovery events may appear at all.
func TestElasticDrainOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second elasticity run")
	}
	cfg := failoverConfig("sim")
	res, recovs, resizes := runElastic(t, cfg, "drain@mid-epoch")
	if len(recovs) != 0 {
		t.Fatalf("a graceful drain produced %d recovery events", len(recovs))
	}
	requireResized(t, resizes, "drain", 3)
	requireConverged(t, res)
}

// TestElasticFenceTimeout: a peer whose outbound control plane stalls
// past the fence deadline must abort the round with the typed fence
// error instead of hanging the run.
func TestElasticFenceTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second timeout run")
	}
	orig := foFenceTimeout
	foFenceTimeout = 150 * time.Millisecond
	defer func() { foFenceTimeout = orig }()

	cfg := elasticConfig("sim")
	// Rank 2's sends (data and control alike) stall for far longer than
	// the fence timeout; the join round that starts mid-stall can never
	// quiesce.
	spec, err := cluster.ParseChaos("partition:rank=2,at=mid-epoch,window=1200ms;join@+30ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = spec
	_, err = New().Train(t.Context(), testData(t), cfg, nil)
	if err == nil {
		t.Fatal("stalled fence did not abort the run")
	}
	if !strings.Contains(err.Error(), "fence timed out") {
		t.Fatalf("want typed fence-timeout error, got: %v", err)
	}
}

// TestElasticRequestValidation: bad membership requests are rejected
// with typed errors, at config time and at run time.
func TestElasticRequestValidation(t *testing.T) {
	ds := testData(t)

	neg := elasticConfig("sim")
	neg.ElasticSpares = -1
	if _, err := neg.Normalize(ds); err == nil {
		t.Error("negative ElasticSpares accepted")
	}

	// A chaos join naming an initial member is rejected up front.
	member := failoverConfig("sim")
	spec, err := cluster.ParseChaos("join:rank=1,at=mid-epoch")
	if err != nil {
		t.Fatal(err)
	}
	member.Chaos = spec
	if _, err := member.Normalize(ds); err == nil {
		t.Error("chaos join naming an initial member accepted")
	}

	// A shorthand join implies one provisioned spare and failover.
	implied := baseConfig()
	implied.Machines, implied.Workers = 4, 2
	spec, err = cluster.ParseChaos("join@+1s")
	if err != nil {
		t.Fatal(err)
	}
	implied.Chaos = spec
	norm, err := implied.Normalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	if norm.ElasticSpares != 1 || !norm.Failover {
		t.Errorf("join chaos implied spares=%d failover=%t, want 1 true",
			norm.ElasticSpares, norm.Failover)
	}

	// An unbound ElasticControl reports that no run is active.
	var ec train.ElasticControl
	if err := ec.Join(-1); err == nil {
		t.Error("unbound ElasticControl.Join returned nil")
	}
	if err := ec.Drain(-1); err == nil {
		t.Error("unbound ElasticControl.Drain returned nil")
	}
}

// TestRequestDrainCountsPendingLeavers: a drain still pending is one
// whose leaver has neither parted nor died, so completed drains and a
// leaver killed before its round stop counting against the two-machine
// floor. On five members: drains of 4 and 3 commit (4 parts) or die (3
// is killed before its round); a drain of 2 then leaves 0 and 1, and is
// accepted; a drain of 1 on top of it would leave one, and is refused.
func TestRequestDrainCountsPendingLeavers(t *testing.T) {
	cfg := failoverConfig("sim")
	cfg.Machines = 5
	fo := newFailoverRuntime(cfg, nil, 64, idleMachines(cfg, 64))
	if err := fo.requestDrain(4); err != nil {
		t.Fatal(err)
	}
	fo.parted[4].Store(true) // its round committed
	if err := fo.requestDrain(3); err != nil {
		t.Fatal(err)
	}
	fo.noteDeath(3, "test") // killed before its round
	if err := fo.requestDrain(2); err != nil {
		t.Fatalf("drain of rank 2 with no other drain pending: %v", err)
	}
	if err := fo.requestDrain(1); err == nil {
		t.Fatal("drain of rank 1 accepted while rank 2's is pending: it would leave one machine")
	}
}

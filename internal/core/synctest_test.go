//go:build goexperiment.synctest

package core

// Failure schedules in bulk, in virtual time. Every run happens inside
// a testing/synctest bubble over the sim backend — the production TCP
// link over paced in-memory connections — so heartbeats and fence
// timeouts cost no wall time. Every wait in the runtime blocks on the
// event that ends it, so no machine sleeps through the tokens sent to
// it. The sweep covers every kill point (mid-epoch, rendezvous,
// snapshot) × every victim rank, rank 0 being the arbiter, × seeds,
// plus every order of a kill, a join and a drain on an elastic
// cluster, each with load balancing off and on.
// Build and run with
//
//	GOEXPERIMENT=synctest go test -run Synctest ./internal/core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/netsim"
	"nomad/internal/train"
)

// synctestSeeds is how many seeds every schedule runs over.
const synctestSeeds = 24

// synctestMaxDrift bounds a disturbed run's final RMSE against the same
// seed's undisturbed run.
const synctestMaxDrift = 2e-2

// bubbleRun is one training run inside a synctest bubble, with the
// failover and resize events it emitted.
type bubbleRun struct {
	res     *train.Result
	err     error
	recovs  []train.PeerRecoveredEvent
	resizes []train.ResizeEvent
}

func runInBubble(t *testing.T, cfg train.Config, chaos string) bubbleRun {
	t.Helper()
	if chaos != "" {
		spec, err := cluster.ParseChaos(chaos)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chaos = spec
	}
	var r bubbleRun
	hooks := membershipHooks(&r.recovs, &r.resizes)
	ds := testData(t)
	synctest.Run(func() {
		r.res, r.err = New().Train(context.Background(), ds, cfg, hooks)
	})
	return r
}

// balancedProfile carries the load-balanced half of the sweep. In
// virtual time compute is free, so over an instant network no hop
// advances the clock, and which machine trains when is left to the
// Go scheduler, as in wall time. §3.3's least-loaded routing, which
// follows the last queue length each peer sent, then lands the fixed
// update budget unevenly across user shards (ROADMAP item 19): over
// the instant network one balanced schedule in a few hundred to a
// thousand drifts past the bound (up to 0.04), so about every second
// sweep fails, as wall-clock runs can. A hop that costs
// virtual time lets every machine train what it holds before the next
// hop lands, so the budget follows the tokens.
var balancedProfile = netsim.Profile{Name: "lagged", Latency: 200 * time.Microsecond}

// TestSynctestFailureSchedules runs every schedule at every seed, with
// §3.3 load balancing off and on, and requires, of each run: no error —
// the runner's teardown checks exact token conservation over every
// surviving machine's holdings and fails the run otherwise — exactly
// one recovery per kill, every requested resize committed, and a final
// RMSE within synctestMaxDrift of the same seed's undisturbed run.
func TestSynctestFailureSchedules(t *testing.T) {
	// Every order of the three membership changes, with the victim and
	// the leaver named, plus one order that leaves both to the runtime.
	// A kill left to pick its own victim while a drain is in flight
	// must not pick the leaver: the protocol survives faults one at a
	// time (DESIGN.md §11). It picks the joiner once the join has
	// committed, rank 2 before.
	const kill, join, drain = "kill:rank=1,at=mid-epoch", "join@mid-epoch", "drain:rank=3,at=mid-epoch"
	type order struct {
		events  [3]string
		victims []int
	}
	orders := []order{
		{[3]string{kill, join, drain}, []int{1}}, {[3]string{kill, drain, join}, []int{1}},
		{[3]string{join, kill, drain}, []int{1}}, {[3]string{join, drain, kill}, []int{1}},
		{[3]string{drain, kill, join}, []int{1}}, {[3]string{drain, join, kill}, []int{1}},
		{[3]string{"drain@mid-epoch", join, "kill@mid-epoch"}, []int{2, 4}},
	}
	// Every seed of either half shares nothing with the others, so
	// they run side by side; the totals are logged once all are done.
	var mu sync.Mutex
	schedules, worst := 0, 0.0
	start := time.Now()
	t.Cleanup(func() {
		t.Logf("%d failure schedules in %v of wall time; largest final-RMSE drift %.4f",
			schedules, time.Since(start).Round(time.Millisecond), worst)
	})
	for _, balance := range []bool{false, true} {
		for seed := uint64(1); seed <= synctestSeeds; seed++ {
			t.Run(fmt.Sprintf("balance=%v/seed=%d", balance, seed), func(t *testing.T) {
				t.Parallel()
				// check asserts one run: the one rank a recovery names is
				// among victims, resizes the resizes committed, as kind →
				// rank.
				check := func(label string, r bubbleRun, baseline float64, victims []int, resizes map[string]int) {
					t.Helper()
					if r.err != nil {
						t.Errorf("%s: %v", label, r.err)
						return
					}
					if len(r.recovs) != 1 || !slices.Contains(victims, r.recovs[0].Rank) {
						t.Errorf("%s: recoveries %v, want exactly one of a rank in %v", label, r.recovs, victims)
					}
					got := map[string]int{}
					for _, e := range r.resizes {
						got[e.Kind] = e.Rank
					}
					if !maps.Equal(got, resizes) {
						t.Errorf("%s: resizes %v, want %v", label, r.resizes, resizes)
					}
					drift := math.Abs(r.res.Trace.Final().RMSE - baseline)
					mu.Lock()
					schedules++
					worst = max(worst, drift)
					mu.Unlock()
					if drift > synctestMaxDrift {
						t.Errorf("%s: final RMSE drifted %.4f from the undisturbed run (> %g)", label, drift, synctestMaxDrift)
					}
				}
				cfg := failoverConfig("sim")
				cfg.Seed, cfg.LoadBalance = seed, balance
				if balance {
					cfg.Profile = balancedProfile
				}
				base := runInBubble(t, cfg, "")
				if base.err != nil {
					t.Fatalf("undisturbed run: %v", base.err)
				}
				for _, at := range []string{"mid-epoch", "rendezvous", "snapshot"} {
					for rank := 0; rank < cfg.Machines; rank++ {
						chaos := fmt.Sprintf("kill:rank=%d,at=%s", rank, at)
						check(chaos, runInBubble(t, cfg, chaos), base.res.Trace.Final().RMSE, []int{rank}, map[string]int{})
					}
				}
				ecfg := elasticConfig("sim")
				ecfg.Seed, ecfg.LoadBalance, ecfg.Profile = seed, balance, cfg.Profile
				ebase := runInBubble(t, ecfg, "")
				if ebase.err != nil {
					t.Fatalf("undisturbed elastic run: %v", ebase.err)
				}
				for _, o := range orders {
					chaos := strings.Join(o.events[:], ";")
					check(chaos, runInBubble(t, ecfg, chaos), ebase.res.Trace.Final().RMSE, o.victims,
						map[string]int{"join": 4, "drain": 3})
				}
			})
		}
	}
}

// TestSynctestFenceTimeout is TestElasticFenceTimeout in virtual time,
// with the unmodified foFenceTimeout. Rank 2's sends stall from the
// partition on, so the join round that starts 30 ms later cannot fence
// until they heal. Healed half a heartbeat interval before the timeout
// is due, the round commits; healed half an interval after it, the run
// has already taken the typed abort. So the abort fires at
// foFenceTimeout of virtual time, within one heartbeat interval.
func TestSynctestFenceTimeout(t *testing.T) {
	const join, heartbeat = 30 * time.Millisecond, 500 * time.Millisecond
	due := join + foFenceTimeout // counted from the partition
	for _, heal := range []time.Duration{due - heartbeat/2, due + heartbeat/2} {
		cfg := elasticConfig("sim")
		cfg.HeartbeatInterval = heartbeat
		chaos := fmt.Sprintf("partition:rank=2,at=mid-epoch,window=%v;join@+%v", heal, join)
		r := runInBubble(t, cfg, chaos)
		switch {
		case heal < due && r.err != nil:
			t.Errorf("%s: healed before the fence timeout, yet the run failed: %v", chaos, r.err)
		case heal < due && len(r.resizes) != 1:
			t.Errorf("%s: resizes %v, want the join", chaos, r.resizes)
		case heal > due && (r.err == nil || !strings.Contains(r.err.Error(), "fence timed out")):
			t.Errorf("%s: healed after the fence timeout; want the typed fence-timeout abort, got %v", chaos, r.err)
		}
	}
}

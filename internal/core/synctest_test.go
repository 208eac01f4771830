//go:build goexperiment.synctest

package core

// Failure schedules in bulk, in virtual time. Every run happens inside
// a testing/synctest bubble over the sim backend — the production TCP
// link over paced in-memory connections — so heartbeats, fence polls
// and backoff sleeps cost no wall time. The sweep covers every kill
// point (mid-epoch, rendezvous, snapshot) × every victim rank, rank 0
// being the arbiter, × seeds, plus every order of a kill, a join and a
// drain on an elastic cluster, each with load balancing off and on.
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
// virtual time compute is free, so over an instant network §3.3's
// least-loaded routing lets two machines trade tokens without ever
// blocking. The clock then stops, and a third machine's workers,
// asleep in their idle backoff (at most 128 µs), never wake: the run
// spends its update budget on two machines' users (final RMSE drifted
// by up to 0.8), and a chaos trigger that counts the sleeper's sends
// never fires. A hop that costs more virtual time than the longest
// sleep wakes every sleeper in time, as wall time does.
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

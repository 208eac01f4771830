//go:build goexperiment.synctest

package core

// Failure schedules in bulk, in virtual time. Every run happens inside
// a testing/synctest bubble over the sim backend — the production TCP
// link over paced in-memory connections — so heartbeats, fence polls
// and backoff sleeps cost no wall time. The sweep covers every kill
// point (mid-epoch, rendezvous, snapshot) × every victim rank, rank 0
// being the arbiter, × seeds, plus every order of a kill, a join and a
// drain on an elastic cluster. Build and run with
//
//	GOEXPERIMENT=synctest go test -run Synctest ./internal/core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"
	"testing/synctest"
	"time"

	"nomad/internal/cluster"
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
	hooks := &train.Hooks{
		PeerRecovered: func(e train.PeerRecoveredEvent) { r.recovs = append(r.recovs, e) },
		Resize:        func(e train.ResizeEvent) { r.resizes = append(r.resizes, e) },
	}
	ds := testData(t)
	synctest.Run(func() {
		r.res, r.err = New().Train(context.Background(), ds, cfg, hooks)
	})
	return r
}

// TestSynctestFailureSchedules runs every schedule at every seed and
// requires, of each run: no error — the runner's teardown checks exact
// token conservation over every surviving machine's holdings and fails
// the run otherwise — exactly one recovery per kill, every requested
// resize committed, and a final RMSE within synctestMaxDrift of the
// same seed's undisturbed run.
func TestSynctestFailureSchedules(t *testing.T) {
	// Every order of the three membership changes. The victim and the
	// leaver are named: the protocol survives faults one at a time
	// (DESIGN.md §11), and a kill left to pick its own victim while a
	// drain is in flight picks the leaver itself — a second fault inside
	// the drain's round, which ends in the typed fence-timeout abort.
	const kill, join, drain = "kill:rank=1,at=mid-epoch", "join@mid-epoch", "drain:rank=3,at=mid-epoch"
	orders := [][3]string{
		{kill, join, drain}, {kill, drain, join}, {join, kill, drain},
		{join, drain, kill}, {drain, kill, join}, {drain, join, kill},
	}
	start := time.Now()
	schedules, worst := 0, 0.0
	// check asserts one run: victim is the one rank a recovery names,
	// resizes the resizes committed, as kind → rank.
	check := func(label string, r bubbleRun, baseline float64, victim int, resizes map[string]int) {
		t.Helper()
		schedules++
		if r.err != nil {
			t.Errorf("%s: %v", label, r.err)
			return
		}
		if len(r.recovs) != 1 || r.recovs[0].Rank != victim {
			t.Errorf("%s: recoveries %v, want exactly one of rank %d", label, r.recovs, victim)
		}
		got := map[string]int{}
		for _, e := range r.resizes {
			got[e.Kind] = e.Rank
		}
		if !maps.Equal(got, resizes) {
			t.Errorf("%s: resizes %v, want %v", label, r.resizes, resizes)
		}
		drift := math.Abs(r.res.Trace.Final().RMSE - baseline)
		worst = max(worst, drift)
		if drift > synctestMaxDrift {
			t.Errorf("%s: final RMSE drifted %.4f from the undisturbed run (> %g)", label, drift, synctestMaxDrift)
		}
	}
	for seed := uint64(1); seed <= synctestSeeds; seed++ {
		cfg := failoverConfig("sim")
		cfg.Seed = seed
		base := runInBubble(t, cfg, "")
		if base.err != nil {
			t.Fatalf("seed %d: undisturbed run: %v", seed, base.err)
		}
		for _, at := range []string{"mid-epoch", "rendezvous", "snapshot"} {
			for rank := 0; rank < cfg.Machines; rank++ {
				chaos := fmt.Sprintf("kill:rank=%d,at=%s", rank, at)
				check(fmt.Sprintf("seed %d %s", seed, chaos), runInBubble(t, cfg, chaos),
					base.res.Trace.Final().RMSE, rank, map[string]int{})
			}
		}
		ecfg := elasticConfig("sim")
		ecfg.Seed = seed
		ebase := runInBubble(t, ecfg, "")
		if ebase.err != nil {
			t.Fatalf("seed %d: undisturbed elastic run: %v", seed, ebase.err)
		}
		for _, order := range orders {
			chaos := strings.Join(order[:], ";")
			check(fmt.Sprintf("seed %d %s", seed, chaos), runInBubble(t, ecfg, chaos),
				ebase.res.Trace.Final().RMSE, 1, map[string]int{"join": 4, "drain": 3})
		}
	}
	t.Logf("%d failure schedules in %v of wall time; largest final-RMSE drift %.4f",
		schedules, time.Since(start).Round(time.Millisecond), worst)
}

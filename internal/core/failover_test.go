package core

// The failover matrix: a 4-machine asynchronous run survives the
// chaos-injected death of machine 2 — on both link backends, at
// several protocol points — and still converges,
// conserving all n item tokens through the remap.

import (
	"bytes"
	"context"
	"maps"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/factor"
	"nomad/internal/rng"
	"nomad/internal/train"
)

// failoverConfig is the shared 4-machine failover-enabled run.
func failoverConfig(backend string) train.Config {
	cfg := baseConfig()
	cfg.Machines, cfg.Workers = 4, 2
	cfg.Backend = backend
	cfg.Failover = true
	return cfg
}

// runFailover trains with the given chaos spec, capturing the typed
// peer events, and requires the run to finish without error (token
// conservation is checked inside the runner's teardown and would
// surface here).
func runFailover(t *testing.T, cfg train.Config, chaos string) (*train.Result, []train.PeerDownEvent, []train.PeerRecoveredEvent) {
	t.Helper()
	if chaos != "" {
		spec, err := cluster.ParseChaos(chaos)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chaos = spec
	}
	var downs []train.PeerDownEvent
	var recovs []train.PeerRecoveredEvent
	hooks := &train.Hooks{Sink: func(e train.Event) {
		switch e := e.(type) {
		case train.PeerDownEvent:
			downs = append(downs, e)
		case train.PeerRecoveredEvent:
			recovs = append(recovs, e)
		}
	}}
	res, err := New().Train(context.Background(), testData(t), cfg, hooks)
	if err != nil {
		t.Fatalf("failover run failed: %v", err)
	}
	return res, downs, recovs
}

// requireRecovered asserts the typed event sequence of one survived
// failure of the given rank: PeerDown then PeerRecovered, with a
// plausible recovery latency.
func requireRecovered(t *testing.T, downs []train.PeerDownEvent, recovs []train.PeerRecoveredEvent, victim int) {
	t.Helper()
	if len(downs) == 0 {
		t.Fatal("no PeerDownEvent emitted for the killed machine")
	}
	for _, e := range downs {
		if e.Rank != victim {
			t.Fatalf("PeerDownEvent blames rank %d, killed %d", e.Rank, victim)
		}
	}
	if len(recovs) != 1 {
		t.Fatalf("want exactly one PeerRecoveredEvent, got %d", len(recovs))
	}
	if recovs[0].Rank != victim {
		t.Fatalf("PeerRecoveredEvent names rank %d, killed %d", recovs[0].Rank, victim)
	}
	if recovs[0].RecoverySeconds <= 0 || recovs[0].RecoverySeconds > 30 {
		t.Fatalf("implausible recovery latency %v s", recovs[0].RecoverySeconds)
	}
}

// TestFailoverChaosMatrix kills machine 2 mid-epoch on both link
// backends and requires the survivors to
// reconfigure, conserve all tokens and converge to within 1e-2 of the
// undisturbed run's final RMSE.
func TestFailoverChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second failover matrix")
	}
	// The undisturbed reference: same dataset, seed and budget, no
	// failure. Async runs are nondeterministic, but both settle onto the
	// same noise floor.
	base, _, _ := runFailover(t, failoverConfig("sim"), "")
	baseline := base.Trace.Final().RMSE
	for _, backend := range []string{"sim", "tcp"} {
		// The subtest suffix names the token transport, the SPSC mesh.
		t.Run(backend+"_spsc", func(t *testing.T) {
			res, downs, recovs := runFailover(t, failoverConfig(backend), "kill:rank=2,at=mid-epoch")
			requireRecovered(t, downs, recovs, 2)
			requireConverged(t, res)
			if d := math.Abs(res.Trace.Final().RMSE - baseline); d > 1e-2 {
				t.Errorf("final RMSE %.4f drifted %.4f from undisturbed %.4f (> 1e-2)",
					res.Trace.Final().RMSE, d, baseline)
			}
		})
	}
}

// TestPickerSkipsNonMembers gives each sender picker a dead rank and a
// latent spare that hold the smallest gossiped queue lengths — a
// receiver keeps the queue length of a batch the victim sent before it
// died, and a spare never sends one — and requires every pick to be a
// live member before a deadline; the least-loaded picker must also take
// the least-loaded member.
func TestPickerSkipsNonMembers(t *testing.T) {
	const self, dead = 0, 2
	cfg := elasticConfig("sim") // rank 4 is the latent spare
	M := cfg.TotalMachines()
	fo := newFailoverRuntime(cfg, nil, 64, idleMachines(cfg, 64))
	fo.noteDeath(dead, "test")
	for _, balance := range []bool{false, true} {
		lastKnown := make([]atomic.Int64, M)
		lastKnown[1].Store(50)
		lastKnown[3].Store(100)
		pick := machinePicker(self, M, balance, lastKnown, rng.New(1), fo.memberFunc())
		done := make(chan []int, 1)
		go func() {
			got := make([]int, 1000)
			for x := range got {
				got[x] = pick()
			}
			done <- got
		}()
		select {
		case got := <-done:
			for _, d := range got {
				if d != 1 && (balance || d != 3) {
					t.Fatalf("balance %v: picked rank %d; members are 1 and 3 (1 least loaded)", balance, d)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("balance %v: no pick within 5 s: the picker spins on a non-member", balance)
		}
	}
}

// idleMachines is a failover runtime's machines for a run of cfg over n
// items, none of them started.
func idleMachines(cfg train.Config, n int) []*meshMachine {
	machines := make([]*meshMachine, cfg.TotalMachines())
	for r := range machines {
		machines[r] = newMeshMachine(r, cfg.Workers, 4, len(machines), factor.New(1, n, 1), 1)
	}
	return machines
}

// TestFailoverKillPoints kills machine 2 at the remaining injection
// points — rendezvous (before any circulation) and snapshot (mid
// replication stream) — on both backends. With mid-epoch (the chaos
// matrix above) and the relative-time `@+duration` trigger (the
// elastic tests), every trigger point cluster.ParseChaos accepts is
// driven by a test here; a point no runner reaches is a parse error.
func TestFailoverKillPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second failover runs")
	}
	for _, backend := range []string{"sim", "tcp"} {
		for _, at := range []string{"rendezvous", "snapshot"} {
			t.Run(backend+"_"+at, func(t *testing.T) {
				res, downs, recovs := runFailover(t, failoverConfig(backend),
					"kill:rank=2,at="+at)
				requireRecovered(t, downs, recovs, 2)
				requireConverged(t, res)
			})
		}
	}
}

// TestSimKillDetectedThroughLink: on the sim backend a chaos kill
// reaches the survivors the way a real death does. With the links a
// run builds and the failover runtime's kill function behind the chaos
// controller, every survivor's link reports the victim exactly once
// through OnPeerDown, and the victim's own link reports nothing; a
// whole run with that kill recovers exactly once.
func TestSimKillDetectedThroughLink(t *testing.T) {
	cfg, ds := failoverConfig("sim"), testData(t)
	const victim = 2
	want := map[[2]int]int{{0, victim}: 1, {1, victim}: 1, {3, victim}: 1}
	var mu sync.Mutex
	reports := map[[2]int]int{} // (observer, reported rank) → count
	all := make(chan struct{})  // closed once every survivor has reported
	links, err := buildLinks(context.Background(), ds, cfg, nil, func(self, rank int, _ error) {
		mu.Lock()
		reports[[2]int{self, rank}]++
		if len(reports) == len(want) {
			close(all)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	fo := newFailoverRuntime(cfg, nil, ds.Cols(), idleMachines(cfg, ds.Cols()))
	fo.links = links
	spec, err := cluster.ParseChaos("kill:rank=2,at=mid-epoch,after=1")
	if err != nil {
		t.Fatal(err)
	}
	chaos := cluster.NewChaosController(spec)
	chaos.OnKill(fo.killMachine)
	// The send fires the kill before it reaches the link, which the
	// kill has just aborted: its error is the victim's, not the test's.
	tok := cluster.TokenBatch{Tokens: []cluster.Token{{Item: 0, Vec: make([]float64, cfg.K)}}}
	chaos.WrapAll(links)[victim].Send(0, tok) //nolint:errcheck
	if !chaos.Fired() {
		t.Fatal("the kill did not fire on the victim's first send")
	}
	select {
	case <-all:
	case <-time.After(5 * time.Second):
	}
	for _, l := range links {
		l.Close() //nolint:errcheck
	}
	mu.Lock()
	defer mu.Unlock()
	if !maps.Equal(reports, want) {
		t.Fatalf("OnPeerDown reports (observer, rank) → count = %v, want %v", reports, want)
	}

	res, downs, recovs := runFailover(t, cfg, "kill:rank=2,at=mid-epoch")
	requireRecovered(t, downs, recovs, victim)
	requireConverged(t, res)
}

// TestFailoverPartitionHeals: a partition (stalled victim) is not a
// death — the victim must come back and the run must finish with no
// failover at all.
func TestFailoverPartitionHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second failover run")
	}
	res, _, recovs := runFailover(t, failoverConfig("sim"),
		"partition:rank=1,at=mid-epoch,window=50ms")
	if len(recovs) != 0 {
		t.Fatalf("a healed partition triggered %d failovers", len(recovs))
	}
	requireConverged(t, res)
}

// TestFailoverDropsReplication: lossy replication (dropped snapshots)
// must not break a subsequent kill-failover — regeneration falls back
// to the model row, hⱼ's home, for unreplicated items.
func TestFailoverDropsReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second failover run")
	}
	res, downs, recovs := runFailover(t, failoverConfig("sim"),
		"drop:rank=2,at=snapshot,p=1.0")
	// Dropping frames alone kills nobody.
	_ = res
	if len(downs) != 0 || len(recovs) != 0 {
		t.Fatalf("drop chaos caused peer events: %d down, %d recovered", len(downs), len(recovs))
	}
	requireConverged(t, res)
}

// TestFailoverConfigValidation: the modes failover cannot compose with
// are rejected up front.
func TestFailoverConfigValidation(t *testing.T) {
	ds := testData(t)
	twoMachines := failoverConfig("sim")
	twoMachines.Machines = 2
	if _, err := twoMachines.Normalize(ds); err == nil {
		t.Error("failover with 2 machines accepted")
	}
	role := failoverConfig("sim")
	role.Role, role.Listen = "coordinator", "127.0.0.1:0"
	if _, err := role.Normalize(ds); err == nil {
		t.Error("failover with a multi-process role accepted")
	}
	badRank := failoverConfig("sim")
	spec, err := cluster.ParseChaos("kill:rank=9,at=mid-epoch")
	if err != nil {
		t.Fatal(err)
	}
	badRank.Chaos = spec
	if _, err := badRank.Normalize(ds); err == nil {
		t.Error("chaos rank out of range accepted")
	}
	implied, err := cluster.ParseChaos("kill:rank=1,at=mid-epoch")
	if err != nil {
		t.Fatal(err)
	}
	killNoFo := baseConfig()
	killNoFo.Machines, killNoFo.Workers = 4, 2
	killNoFo.Chaos = implied
	norm, err := killNoFo.Normalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !norm.Failover {
		t.Error("kill chaos did not imply failover")
	}
}

// The run shape of foFrameCases' frames: 100 items, so two bitmap
// words with bits 100..127 out of range, over 5 ranks.
const foFrameN, foFrameM = 100, 5

type foFrameCase struct {
	name    string
	kind    uint8
	payload []byte
}

// foFrameCases returns a well-formed frame of every failover kind and
// frames broken the ways a peer could break them.
func foFrameCases() (good, bad []foFrameCase) {
	bm := []uint64{1<<63 | 5, 1<<35 | 1}
	report := foAppend(nil, 7, 2, bm)
	good = []foFrameCase{
		{"suspect", ctlFoSuspect, foAppend(nil, 3, 1, nil)},
		{"evict", ctlFoEvict, foAppend(nil, 4, 4, nil)},
		{"report", ctlFoReport, report},
		{"remap", ctlFoRemap, foAppend(nil, 7, 0, make([]uint64, 2))},
		{"regen_done", ctlFoRegenDone, foAppend(nil, 7, 2, nil)},
		{"resume", ctlFoResume, foAppend(nil, 7, 2, nil)},
		{"repl_toks", ctlFoReplToks, append(foAppend(nil, 1, 3, nil), 1, 2, 3)},
		{"repl_rows", ctlFoReplRows, foAppend(nil, 1, 3, nil)},
		{"join", ctlFoJoin, foAppend(nil, 9, 4, nil)},
		{"drain", ctlFoDrain, foAppend(nil, 9, 3, nil)},
	}
	bad = []foFrameCase{
		{"truncated_header", ctlFoResume, foAppend(nil, 7, 2, nil)[:foHeader-1]},
		{"empty", ctlFoSuspect, nil},
		{"bitmap_one_word_short", ctlFoReport, report[:len(report)-8]},
		{"bitmap_one_word_long", ctlFoRemap, foAppend(nil, 7, 2, append(bm, 0))},
		{"bitmap_one_byte_short", ctlFoReport, report[:len(report)-1]},
		{"bit_n", ctlFoRemap, foAppend(nil, 7, 2, []uint64{0, 1 << (foFrameN - 64)})},
		{"bit_127", ctlFoReport, foAppend(nil, 7, 2, []uint64{0, 1 << 63})},
		{"subject_M", ctlFoEvict, foAppend(nil, 4, foFrameM, nil)},
		{"subject_-1", ctlFoJoin, foAppend(nil, 4, -1, nil)},
		{"trailing_byte", ctlFoResume, append(foAppend(nil, 7, 2, nil), 0)},
		{"multiprocess_kind", ctlStop, foAppend(nil, 7, 2, nil)},
		{"kind_past_drain", ctlFoDrain + 1, foAppend(nil, 7, 2, nil)},
	}
	return good, bad
}

// TestFoDecodeRejects: the failover frame decoder accepts a well-formed
// frame of every kind and refuses each broken one — a bitmap of the
// wrong length or with a bit at or above n (a remap must never name an
// item outside the model), a subject outside the ranks, a truncated
// header, trailing bytes, a kind that is not failover's.
func TestFoDecodeRejects(t *testing.T) {
	good, bad := foFrameCases()
	for _, tc := range good {
		if _, ok := foDecode(tc.kind, tc.payload, foFrameN, foFrameM); !ok {
			t.Errorf("%s: rejected a well-formed frame", tc.name)
		}
	}
	for _, tc := range bad {
		if _, ok := foDecode(tc.kind, tc.payload, foFrameN, foFrameM); ok {
			t.Errorf("%s: accepted a broken frame", tc.name)
		}
	}
}

// FuzzFoFrame feeds the failover frame decoder arbitrary bytes for a
// run of up to 300 items over up to 8 ranks. It must never panic; an
// accepted frame must name a rank, carry a bitmap of exactly ⌈n/64⌉
// words with no bit at or above n where its kind has one, and re-encode
// to the same bytes.
func FuzzFoFrame(f *testing.F) {
	good, bad := foFrameCases()
	for _, tc := range append(good, bad...) {
		f.Add(tc.kind, tc.payload, uint16(foFrameN), uint8(foFrameM))
	}
	f.Fuzz(func(t *testing.T, kind uint8, p []byte, n16 uint16, m8 uint8) {
		n, machines := int(n16%300), 1+int(m8%8)
		fr, ok := foDecode(kind, p, n, machines)
		if !ok {
			return
		}
		if fr.subject < 0 || fr.subject >= machines {
			t.Fatalf("accepted subject %d outside [0,%d)", fr.subject, machines)
		}
		if kind == ctlFoReport || kind == ctlFoRemap {
			if len(fr.bm) != (n+63)/64 {
				t.Fatalf("accepted a bitmap of %d words for %d items", len(fr.bm), n)
			}
			for w, x := range fr.bm {
				for ; x != 0; x &= x - 1 {
					if j := w<<6 | bits.TrailingZeros64(x); j >= n {
						t.Fatalf("accepted item %d outside [0,%d)", j, n)
					}
				}
			}
		}
		if re := append(foAppend(nil, fr.epoch, fr.subject, fr.bm), fr.body...); !bytes.Equal(re, p) {
			t.Fatalf("frame re-encodes to %x, payload is %x", re, p)
		}
	})
}

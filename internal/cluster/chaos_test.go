package cluster

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseChaos(t *testing.T) {
	spec, err := ParseChaos("kill:rank=2,at=mid-epoch")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Op != OpKill || spec.Rank != 2 || spec.At != PointMidEpoch {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.After != 5 {
		t.Fatalf("mid-epoch default After = %d, want 5", spec.After)
	}
	spec, err = ParseChaos("drop:rank=1,at=snapshot,p=0.25,seed=9,after=3")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Op != OpDrop || spec.P != 0.25 || spec.Seed != 9 || spec.After != 3 {
		t.Fatalf("spec = %+v", spec)
	}
	spec, err = ParseChaos("partition:rank=0,at=rendezvous,window=120ms")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Op != OpPartition || spec.At != PointRendezvous || spec.Window != 120*time.Millisecond {
		t.Fatalf("spec = %+v", spec)
	}
	if spec, err := ParseChaos(""); spec != nil || err != nil {
		t.Fatalf("empty spec = %+v, %v", spec, err)
	}
	for _, bad := range []string{
		"explode:rank=1,at=snapshot", // unknown op
		"kill",                       // no pairs
		"kill:rank=1",                // missing at
		"kill:at=rendezvous",         // missing rank
		"kill:rank=1,at=nowhere",     // unknown point
		"kill:rank=1,at=rendezvous,after=x",
		"kill:rank=1,at=rendezvous,bogus=1",
	} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
	// No runner has a barrier, so a barrier trigger would never fire:
	// it is an unknown point, and the error lists the ones that do.
	for _, bad := range []string{"kill:rank=1,at=barrier", "kill@barrier"} {
		_, err := ParseChaos(bad)
		if err == nil {
			t.Errorf("ParseChaos(%q) accepted a point that never fires", bad)
			continue
		}
		for _, want := range []string{"rendezvous", "mid-epoch", "snapshot", "+duration"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParseChaos(%q) = %v, want %q among the points named", bad, err, want)
			}
		}
	}
}

// TestParseChaosRejectsOutOfRange: an explicit value the runner would
// otherwise replace or ignore is a parse error naming its key.
func TestParseChaosRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct{ spec, key string }{
		{"drop:rank=1,at=snapshot,p=NaN", "p"},
		{"drop:rank=1,at=snapshot,p=7", "p"},
		{"join:delay=-3s", "delay"},
	} {
		_, err := ParseChaos(tc.spec)
		if err == nil {
			t.Errorf("ParseChaos(%q) accepted", tc.spec)
			continue
		}
		if want := ": " + tc.key + ": "; !strings.Contains(err.Error(), want) {
			t.Errorf("ParseChaos(%q) = %v, want the key %q named", tc.spec, err, tc.key)
		}
	}
}

// FuzzParseChaos: the parser never panics, and every event it accepts
// is fully normalized — a trigger point that fires (one of the four
// the controller counts or times), a positive occurrence count,
// a drop probability in (0, 1], a positive window, a nonzero seed, and
// a positive offset on a relative-time trigger.
func FuzzParseChaos(f *testing.F) {
	for _, s := range []string{
		"kill:rank=2,at=mid-epoch",
		"drop:rank=1,at=snapshot,p=0.25,seed=9,after=3",
		"partition:rank=0,at=rendezvous,window=120ms",
		"",
		"explode:rank=1,at=snapshot",
		"kill",
		"kill:rank=1",
		"kill:at=rendezvous",
		"kill:rank=1,at=nowhere",
		"kill:rank=1,at=rendezvous,after=x",
		"kill:rank=1,at=rendezvous,bogus=1",
		"kill:rank=1,at=barrier",
		"kill@barrier",
		"kill:rank=1,at=mid-epoch,after=3",
		"delay:rank=0,at=mid-epoch,after=1,window=30ms",
		"drop:rank=0,at=snapshot,p=1.0,after=1",
		"kill@mid-epoch;join@+2s;drain@+1s",
		"drop:rank=1,at=snapshot,p=NaN",
		"drop:rank=1,at=snapshot,p=7",
		"join:delay=-3s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseChaos(s)
		if err != nil || spec == nil {
			return
		}
		for _, ev := range spec.Events() {
			switch ev.At {
			case PointRendezvous, PointMidEpoch, PointSnapshot, PointAfter:
			default:
				t.Fatalf("ParseChaos(%q) accepted point %v, which never fires", s, ev.At)
			}
			if ev.After < 1 || !(ev.P > 0 && ev.P <= 1) || ev.Window <= 0 || ev.Seed == 0 {
				t.Fatalf("ParseChaos(%q) accepted unnormalized event %+v", s, *ev)
			}
			if ev.At == PointAfter && ev.Delay <= 0 {
				t.Fatalf("ParseChaos(%q) accepted a relative trigger without a positive delay: %+v", s, *ev)
			}
		}
	})
}

// oneToken is a batch that counts toward a mid-epoch trigger.
var oneToken = TokenBatch{Tokens: []Token{{Item: 1, Vec: []float64{0.5}}}}

// TestChaosKillDeterministic: the kill fires on exactly the After-th
// victim send, exactly once, on every run with the same spec.
func TestChaosKillDeterministic(t *testing.T) {
	for run := 0; run < 3; run++ {
		spec, err := ParseChaos("kill:rank=1,at=mid-epoch,after=3")
		if err != nil {
			t.Fatal(err)
		}
		_, base := fakeLinks(2)
		ctrl := NewChaosController(spec)
		killedAt := -1
		var victim int
		ctrl.OnKill(func(v int) { victim = v })
		links := ctrl.WrapAll(base)
		for s := 1; s <= 5; s++ {
			if err := links[1].Send(0, oneToken); err != nil {
				t.Fatal(err)
			}
			if ctrl.Fired() && killedAt < 0 {
				killedAt = s
			}
		}
		if killedAt != 3 {
			t.Fatalf("run %d: kill fired at send %d, want 3", run, killedAt)
		}
		if victim != 1 {
			t.Fatalf("run %d: kill function got victim %d, want 1", run, victim)
		}
		// Non-victim sends never count.
		if ctrl.sends.Load() != 3 {
			t.Fatalf("run %d: victim send count %d, want 3 (counting stops at fire)", run, ctrl.sends.Load())
		}
	}
}

// TestChaosMidEpochCountsTokenBatches: a mid-epoch trigger counts only
// batches that carry tokens. Token-less batches — a queue-length
// announce, an end-of-circulation or fence marker — never advance it,
// so a fired event's protocol traffic cannot fire the next event.
func TestChaosMidEpochCountsTokenBatches(t *testing.T) {
	spec, err := ParseChaos("kill:rank=1,at=mid-epoch,after=2")
	if err != nil {
		t.Fatal(err)
	}
	_, base := fakeLinks(2)
	ctrl := NewChaosController(spec)
	links := ctrl.WrapAll(base)
	send := func(b TokenBatch) {
		t.Helper()
		if err := links[1].Send(0, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []int{0, 7, math.MinInt32, math.MinInt32 + 3} {
		send(TokenBatch{QueueLen: q})
	}
	send(oneToken)
	if ctrl.Fired() {
		t.Fatal("the trigger fired on a token-less batch")
	}
	send(TokenBatch{})
	if ctrl.Fired() {
		t.Fatal("the trigger fired on a token-less batch")
	}
	send(oneToken)
	if !ctrl.Fired() {
		t.Fatal("the trigger did not fire on the second token batch")
	}
}

// TestChaosDelaySlowsVictimSends: after the trigger, every victim
// send stalls by the window; other ranks are untouched.
func TestChaosDelaySlowsVictimSends(t *testing.T) {
	spec, err := ParseChaos("delay:rank=0,at=mid-epoch,after=1,window=30ms")
	if err != nil {
		t.Fatal(err)
	}
	_, base := fakeLinks(2)
	ctrl := NewChaosController(spec)
	links := ctrl.WrapAll(base)
	if err := links[0].Send(1, oneToken); err != nil { // fires the trigger
		t.Fatal(err)
	}
	start := time.Now()
	if err := links[0].Send(1, TokenBatch{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("victim send took %v, want ≥ ~30ms delay", d)
	}
	start = time.Now()
	if err := links[1].Send(0, TokenBatch{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("non-victim send took %v, should be unaffected", d)
	}
}

// TestChaosDropOnlySnapshots: OpDrop may only lose the lossy-tolerant
// replication plane — the registered snapshot kind — never other
// control frames.
func TestChaosDropOnlySnapshots(t *testing.T) {
	spec, err := ParseChaos("drop:rank=0,at=snapshot,p=1.0,after=1")
	if err != nil {
		t.Fatal(err)
	}
	fakes, base := fakeLinks(2)
	ctrl := NewChaosController(spec)
	const snapKind = 40
	ctrl.SetSnapshotKind(snapKind)
	links := ctrl.WrapAll(base)
	// First snapshot fires the trigger; with p=1 every later snapshot
	// is dropped, while a non-snapshot ctl frame sails through.
	for i := 0; i < 3; i++ {
		if err := links[0].SendCtl(1, snapKind, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := links[0].SendCtl(1, 7, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if sent := fakes[0].ctl; len(sent) != 1 || sent[0].Kind != 7 {
		t.Fatalf("the wire carried %+v, want only the non-snapshot frame (kind 7)", sent)
	}
}

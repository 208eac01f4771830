package netlink

import (
	"errors"
	"testing"
	"time"

	"nomad/internal/cluster"
)

// TestFailoverEvictsDeadPeerOnly: with Options.Failover the death of
// one peer is a per-peer eviction, not a link failure — survivors keep
// a nil Err, keep exchanging traffic among themselves, and get a typed
// per-peer *cluster.PeerDownError only for sends toward the corpse.
func TestFailoverEvictsDeadPeerOnly(t *testing.T) {
	type downEvent struct{ self, rank int }
	downCh := make(chan downEvent, 8)
	links := testLoopback(t, 3, Options{
		K:        1,
		Failover: true,
		OnPeerDown: func(self, rank int, err error) {
			downCh <- downEvent{self, rank}
		},
	})
	links[2].(*TCP).Abort()

	// Each survivor observes the death independently; wait until rank 0
	// itself has evicted the victim before poking its link.
	deadline := time.After(10 * time.Second)
	for seen := false; !seen; {
		select {
		case e := <-downCh:
			if e.rank != 2 {
				t.Fatalf("OnPeerDown blamed rank %d, killed 2", e.rank)
			}
			seen = e.self == 0
		case <-deadline:
			t.Fatal("rank 0 never observed the aborted peer")
		}
	}
	if err := links[0].Err(); err != nil {
		t.Fatalf("survivor Err = %v, want nil under failover", err)
	}

	// Survivor-to-survivor traffic continues.
	batch := cluster.TokenBatch{Tokens: []cluster.Token{{Item: 3, Vec: []float64{1}}}}
	if err := links[0].Send(1, batch); err != nil {
		t.Fatalf("survivor Send: %v", err)
	}
	inb := <-links[1].Recv()
	if inb.From != 0 || inb.Batch.Tokens[0].Item != 3 {
		t.Fatalf("inbound = %+v", inb)
	}

	// Sends toward the dead rank fail with the typed per-peer error;
	// the link itself stays healthy.
	var pd *cluster.PeerDownError
	err := links[0].Send(2, batch)
	if !errors.As(err, &pd) || pd.Rank != 2 {
		t.Fatalf("Send to dead rank = %v, want *cluster.PeerDownError{Rank: 2}", err)
	}
	if err := links[0].Err(); err != nil {
		t.Fatalf("survivor Err after dead-rank send = %v, want nil", err)
	}
}

// TestDialBackoffShape pins the retry schedule: geometric growth from
// the base, a hard cap, and bounded jitter — never negative, never
// more than 50% above the deterministic curve.
func TestDialBackoffShape(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		prevBase := time.Duration(0)
		for attempt := 0; attempt < 12; attempt++ {
			base := dialBackoffBase << attempt
			if base > dialBackoffCap || base <= 0 {
				base = dialBackoffCap
			}
			d := dialBackoff(attempt, seed)
			if d < base {
				t.Fatalf("attempt %d seed %d: %v below deterministic base %v", attempt, seed, d, base)
			}
			if max := base + base/2; d > max {
				t.Fatalf("attempt %d seed %d: %v exceeds base+50%% jitter bound %v", attempt, seed, d, max)
			}
			if base < prevBase {
				t.Fatalf("attempt %d: base shrank %v -> %v", attempt, prevBase, base)
			}
			prevBase = base
		}
		// Far past the cap the wait stays bounded.
		if d := dialBackoff(30, seed); d > dialBackoffCap+dialBackoffCap/2 {
			t.Fatalf("seed %d: capped backoff %v exceeds %v", seed, d, dialBackoffCap+dialBackoffCap/2)
		}
	}
}

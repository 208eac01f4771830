package dsgd

import (
	"testing"

	"nomad/internal/algotest"
	"nomad/internal/netsim"
	"nomad/internal/partition"
)

// solvers is every solver this package builds, keyed by name.
func solvers() map[string]*DSGD {
	return map[string]*DSGD{"dsgd": New(), "dsgdpp": NewPP()}
}

func TestSingleWorkerConverges(t *testing.T) {
	ds := algotest.Data(t)
	for name, d := range solvers() {
		t.Run(name, func(t *testing.T) {
			cfg := algotest.SGDConfig()
			cfg.Alpha = 0.05
			res := algotest.Run(t, d, ds, cfg)
			algotest.RequireConverged(t, res, 0.6)
		})
	}
}

func TestMultiWorkerSharedMemory(t *testing.T) {
	ds := algotest.Data(t)
	cfg := algotest.SGDConfig()
	cfg.Workers = 4
	cfg.Alpha = 0.05
	res := algotest.Run(t, New(), ds, cfg)
	algotest.RequireConverged(t, res, 0.6)
	if res.MessagesSent != 0 {
		t.Error("single machine run used the network")
	}
}

func TestDistributedConvergesAndCommunicates(t *testing.T) {
	ds := algotest.Data(t)
	for name, d := range solvers() {
		t.Run(name, func(t *testing.T) {
			cfg := algotest.SGDConfig()
			cfg.Machines = 2
			cfg.Workers = 2
			cfg.Alpha = 0.05
			cfg.Profile = netsim.Instant()
			res := algotest.Run(t, d, ds, cfg)
			algotest.RequireConverged(t, res, 0.6)
			if res.MessagesSent == 0 {
				t.Errorf("distributed %s sent no blocks", name)
			}
		})
	}
}

// TestScheduleDisjointAndComplete verifies both block schedules: at
// every sub-epoch all workers process distinct blocks, and over one
// epoch (p or 2p sub-epochs) each worker sees every block exactly once.
func TestScheduleDisjointAndComplete(t *testing.T) {
	for name, d := range solvers() {
		for _, p := range []int{1, 2, 3, 4, 8} {
			bp := d.itemBlocks(p)
			for s := 0; s < bp; s++ {
				seen := map[int]bool{}
				for g := 0; g < p; g++ {
					b := d.block(g, s, p)
					if seen[b] {
						t.Fatalf("%s p=%d s=%d: block %d processed twice", name, p, s, b)
					}
					seen[b] = true
				}
			}
			for g := 0; g < p; g++ {
				seen := map[int]bool{}
				for s := 0; s < bp; s++ {
					seen[d.block(g, s, p)] = true
				}
				if len(seen) != bp {
					t.Fatalf("%s p=%d worker %d covers only %d of %d blocks", name, p, g, len(seen), bp)
				}
			}
		}
	}
}

// TestPrefetchSourceFinishedEarlier verifies DSGD++'s overlap
// invariant: the block prefetched for worker g at sub-epoch s was last
// processed at sub-epoch s-1 (by worker g+1), so it is free to travel
// during s.
func TestPrefetchSourceFinishedEarlier(t *testing.T) {
	d := NewPP()
	for _, p := range []int{2, 4, 5} {
		bp := d.itemBlocks(p)
		for s := 1; s < bp; s++ {
			for g := 0; g < p; g++ {
				fetched := d.block(g, s+1, p)
				// Who processes `fetched` at sub-epoch s? Nobody should.
				for g2 := 0; g2 < p; g2++ {
					if d.block(g2, s, p) == fetched {
						t.Fatalf("p=%d s=%d: prefetched block %d is being computed by worker %d", p, s, fetched, g2)
					}
				}
				// Worker (g+1)%p processed it at s-1.
				holder := (g + 1) % p
				if d.block(holder, s-1, p) != fetched {
					t.Fatalf("p=%d s=%d g=%d: holder mismatch", p, s, g)
				}
			}
		}
	}
}

func TestStrataConservationAndDisjointness(t *testing.T) {
	ds := algotest.Data(t)
	for name, d := range solvers() {
		t.Run(name, func(t *testing.T) {
			p := 4
			bp := d.itemBlocks(p)
			up := partition.EqualRanges(ds.Rows(), p)
			ip := partition.EqualRanges(ds.Cols(), bp)
			strata := buildStrata(ds, up, ip, p, bp)
			total := 0
			for g := 0; g < p; g++ {
				for b := 0; b < bp; b++ {
					blk := strata[g*bp+b]
					total += len(blk.users)
					for x := range blk.users {
						if up.Owner(int(blk.users[x])) != g {
							t.Fatalf("stratum (%d,%d) holds foreign user %d", g, b, blk.users[x])
						}
						if ip.Owner(int(blk.items[x])) != b {
							t.Fatalf("stratum (%d,%d) holds foreign item %d", g, b, blk.items[x])
						}
					}
				}
			}
			if total != ds.Train.NNZ() {
				t.Fatalf("strata hold %d ratings, train has %d", total, ds.Train.NNZ())
			}
		})
	}
}

func TestName(t *testing.T) {
	for name, d := range solvers() {
		t.Run(name, func(t *testing.T) {
			if d.Name() != name {
				t.Fatalf("Name() = %q, want %q", d.Name(), name)
			}
		})
	}
}

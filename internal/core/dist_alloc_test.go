package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/train"
)

// TestDistributedTokenPathAllocFree pins DESIGN.md §8's claim at the
// level of the runner, where the codec's own alloc tests cannot see:
// once a distributed run is warm, moving a token from one machine to
// the next — row into batch, encode, write, read, decode, delivery
// into the row, re-plan, lane hand-off — allocates nothing. With the
// replay check on (the _replay case) each hop also appends to the
// visit log, whose streams grow by doubling, so it stays amortised
// allocation-free as well; the replay at the end costs the same in
// both runs. The float32 row (_f32) widens every departing row into
// the sender's scratch, which Add then copies into the batch arena.
//
// A short and a long run of one configuration differ only in how many
// tokens crossed the wire: set-up, the initial placement, link boot
// and buffer growth to the machines' peak holdings are paid in both.
// So the difference in mallocs over the difference in wire tokens is
// the steady-state cost of one hop. Both backends run the same codec,
// the sim rows over in-memory connections.
func TestDistributedTokenPathAllocFree(t *testing.T) {
	ds, err := dataset.LongtailLike(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		backend string
		workers int
		replay  bool
		prec    factor.Precision
	}{{"sim", 1, false, factor.Float64}, {"tcp", 1, false, factor.Float64}, {"sim", 2, false, factor.Float64},
		{"tcp", 2, false, factor.Float64}, {"sim", 2, true, factor.Float64}, {"tcp", 1, false, factor.Float32}} {
		name := fmt.Sprintf("%s_w%d", tc.backend, tc.workers)
		if tc.prec == factor.Float32 {
			name += "_f32"
		}
		var hooks *train.Hooks
		if tc.replay {
			name += "_replay"
			hooks = &train.Hooks{Replay: true}
		}
		t.Run(name, func(t *testing.T) {
			cfg := train.Config{
				K: 16, Lambda: 0.05, Alpha: 0.01, Beta: 0.01,
				Machines: 2, Workers: tc.workers, Backend: tc.backend,
				EvalPoints: 2, Seed: 7, Precision: tc.prec,
			}
			run := func(epochs int) (mallocs uint64, wireTokens float64) {
				cfg.Epochs = epochs
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				res, err := New().Train(context.Background(), ds, cfg, hooks)
				if err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, float64(res.BytesSent) / float64(4+8*cfg.K)
			}
			warmMallocs, warmTokens := run(4)
			mallocs, tokens := run(132)
			hops := tokens - warmTokens
			// A longer run can push a machine's pending and lane
			// buffers to a higher peak than the warm run saw. Enough hops
			// keep that growth well under the limit.
			if hops < 200*float64(ds.Cols()) {
				t.Fatalf("only %.0f wire tokens between the runs: too few to outweigh warm-up", hops)
			}
			perHop := (float64(mallocs) - float64(warmMallocs)) / hops
			t.Logf("%.0f wire tokens, %.4f mallocs per wire token", hops, perHop)
			if perHop > 0.05 {
				t.Errorf("%.3f mallocs per wire token in steady state, want ≤ 0.05", perHop)
			}
		})
	}
}

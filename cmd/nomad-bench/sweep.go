package main

// The -sweep mode emits BENCH_scaling.json: NOMAD's shared-memory
// multi-core scaling record — steady updates/s as the worker count
// (and GOMAXPROCS with it) varies, across kernel side and factor
// precision — plus a pure transport microbenchmark (tokens moved per
// second through the SPSC mesh, no SGD) and a kernel
// microbenchmark (ns/op for the dot and fused-step kernels on both
// sides of the SIMD dispatch at both precisions). It is the
// shared-memory analog of the paper's Figure 4 scaling study, tracked
// as data so a kernel or transport regression is visible in review,
// not just in prose.
//
//	go run ./cmd/nomad-bench -sweep BENCH_scaling.json
//	go run ./cmd/nomad-bench -sweep out.json -sweepworkers 1,2,4,8 -sweepreps 5
//
// Unlike -json (a pinned two-sided A/B), the sweep's worker list and
// rep count are adjustable: CI smokes it with a tiny configuration so
// the harness cannot rot, while perf PRs record the full sweep. The
// protocol (EXPERIMENTS.md): every scaling point pins workers to
// cores, sets GOMAXPROCS to the worker count, and runs the three sides
// interleaved rep by rep so machine drift lands on all sides equally.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	nomad "nomad"
	"nomad/internal/benchenv"
	"nomad/internal/queue"
	"nomad/internal/vecmath"
)

// sweepDoc is the BENCH_scaling.json shape.
type sweepDoc struct {
	Env       benchenv.Env   `json:"env"`
	Protocol  sweepProtocol  `json:"protocol"`
	Scaling   []scalingPoint `json:"scaling"`
	Transport []microPoint   `json:"transport_microbench"`
	Kernel    []kernelPoint  `json:"kernel_microbench"`
}

type sweepProtocol struct {
	// Datasets maps profile name to scale: netflix (≈2.8K ratings per
	// item token — arithmetic-bound) and longtail (≈4.5 — transport-
	// bound), so the sweep shows scaling in both regimes.
	Datasets map[string]float64 `json:"datasets"`
	K        int                `json:"k"`
	Seed     uint64             `json:"seed"`
	Epochs   int                `json:"epochs"`
	Reps     int                `json:"reps"`
	// PinnedWorkers: every training run pins worker goroutines to OS
	// threads and (on linux) distinct cores; see WithPinnedWorkers.
	PinnedWorkers bool `json:"pinned_workers"`
}

// scalingPoint is one (dataset, workers, kernels, precision) training
// measurement, taken with GOMAXPROCS set to the worker count.
type scalingPoint struct {
	Dataset      string  `json:"dataset"`
	Workers      int     `json:"workers"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Kernels      string  `json:"kernels"`   // "simd" or "portable"
	Precision    string  `json:"precision"` // "float64" or "float32"
	BestUPS      float64 `json:"steady_best_updates_per_sec"`
	MeanUPS      float64 `json:"steady_mean_updates_per_sec"`
	PerWorkerUPS float64 `json:"steady_best_updates_per_sec_per_worker"`
	FinalRMSE    float64 `json:"final_rmse"`
	TotalUpdates int64   `json:"updates"`
}

// microPoint is one transport-only measurement: p mesh endpoints
// circulating tokens with no SGD between pops.
type microPoint struct {
	Workers      int     `json:"workers"`
	TokensPerSec float64 `json:"tokens_per_sec"`
}

// kernelPoint is one isolated kernel measurement.
type kernelPoint struct {
	K         int     `json:"k"`
	Op        string  `json:"op"`        // "dot" or "fused_step"
	Kernels   string  `json:"kernels"`   // "simd" or "portable"
	Precision string  `json:"precision"` // "float64" or "float32"
	NsPerOp   float64 `json:"ns_per_op"`
}

// sweepSides are the training-sweep sides, interleaved within each
// rep: the shipping configuration (SIMD kernels, float64), the
// portable-kernel side of the SIMD dispatch A/B, and the float32
// model. On hosts without AVX2+FMA the "simd" label degrades to
// "portable" (recorded as such), and the record's env block says why.
var sweepSides = []struct {
	simd      bool
	precision nomad.Precision
}{
	{true, nomad.Float64},
	{false, nomad.Float64},
	{true, nomad.Float32},
}

// kernelSide applies the side's kernel dispatch and returns its label.
func kernelSide(simd bool) string {
	vecmath.SetSIMD(simd)
	if vecmath.SIMDEnabled() {
		return "simd"
	}
	return "portable"
}

// runSweep measures the worker sweep and writes doc to path.
func runSweep(path string, workerList []int, reps int) error {
	const (
		seed   = 7
		epochs = 4
	)
	profiles := []struct {
		name  string
		scale float64
	}{{"netflix", 0.0005}, {"longtail", 0.05}}
	doc := sweepDoc{
		Env: benchenv.Capture(),
		Protocol: sweepProtocol{Datasets: map[string]float64{}, K: 16, Seed: seed,
			Epochs: epochs, Reps: reps, PinnedWorkers: true},
	}
	defer vecmath.SetSIMD(vecmath.SIMDAvailable())
	defaultProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(defaultProcs)
	for _, prof := range profiles {
		doc.Protocol.Datasets[prof.name] = prof.scale
		ds, err := nomad.Synthesize(prof.name, prof.scale, seed)
		if err != nil {
			return err
		}
		for _, workers := range workerList {
			runtime.GOMAXPROCS(workers)
			pts := make([]scalingPoint, len(sweepSides))
			for i, side := range sweepSides {
				pts[i] = scalingPoint{Dataset: prof.name, Workers: workers,
					GOMAXPROCS: workers, Precision: side.precision.String()}
			}
			for rep := 0; rep < reps+1; rep++ {
				for i, side := range sweepSides {
					pts[i].Kernels = kernelSide(side.simd)
					s, err := nomad.NewSession(ds,
						nomad.WithWorkers(workers),
						nomad.WithSeed(seed),
						nomad.WithPrecision(side.precision),
						nomad.WithPinnedWorkers(),
						nomad.WithStopConditions(nomad.MaxEpochs(epochs)))
					if err != nil {
						return err
					}
					res, err := s.Run(context.Background())
					if err != nil {
						return err
					}
					if rep == 0 {
						continue // warm-up rep (page faults, scheduler ramp-up)
					}
					ups := float64(res.Updates) / res.Seconds
					pts[i].MeanUPS += ups / float64(reps)
					if ups > pts[i].BestUPS {
						pts[i].BestUPS = ups
						pts[i].FinalRMSE = res.TestRMSE
						pts[i].TotalUpdates = res.Updates
					}
				}
			}
			vecmath.SetSIMD(vecmath.SIMDAvailable())
			for i := range pts {
				pts[i].PerWorkerUPS = pts[i].BestUPS / float64(workers)
				doc.Scaling = append(doc.Scaling, pts[i])
				fmt.Printf("   [sweep: %s p=%d %s/%s: best %.2fM updates/s (%.2fM/worker), rmse %.4f]\n",
					prof.name, workers, pts[i].Kernels, pts[i].Precision,
					pts[i].BestUPS/1e6, pts[i].PerWorkerUPS/1e6, pts[i].FinalRMSE)
			}
		}
	}
	runtime.GOMAXPROCS(defaultProcs)
	doc.Kernel = kernelMicrobench()
	for _, workers := range workerList {
		tps := meshTokensPerSec(workers)
		doc.Transport = append(doc.Transport, microPoint{Workers: workers, TokensPerSec: tps})
		fmt.Printf("   [sweep: transport micro p=%d: %.1fM tokens/s]\n", workers, tps/1e6)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// meshTokensPerSec circulates tokens among p mesh endpoints with no
// work between pop and re-push — the pure per-token transport cost
// that the SGD loop pays on top of its arithmetic: block pops,
// per-destination out-buffers, block flushes, the worker loop's
// transport pattern without the SGD. Routing uses a cheap LCG.
func meshTokensPerSec(p int) float64 {
	const (
		tokens         = 1 << 10
		movesPerWorker = 1 << 17
		block          = 64
	)
	totalMoves := int64(p) * movesPerWorker
	mesh := queue.NewMesh[int32](p, 4*tokens)
	for t := 0; t < tokens; t++ {
		mesh.Send(t%p, t%p, int32(t))
	}
	var wg sync.WaitGroup
	var moved paddedCounter
	start := time.Now()
	for q := 0; q < p; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			var in [block]int32
			out := make([][]int32, p)
			for d := range out {
				out[d] = make([]int32, 0, 2*block)
			}
			flush := func(d int) {
				if len(out[d]) == 0 {
					return
				}
				acc := mesh.SendBatch(q, d, out[d])
				rest := copy(out[d], out[d][acc:])
				out[d] = out[d][:rest]
			}
			rnd := uint64(q + 1)
			for n := int64(0); moved.load() < totalMoves; {
				k := mesh.RecvBatch(q, in[:])
				if k == 0 {
					for d := 0; d < p; d++ {
						flush(d)
					}
					runtime.Gosched()
					continue
				}
				for i := 0; i < k; i++ {
					rnd = rnd*6364136223846793005 + 1442695040888963407
					d := int(rnd>>33) % p
					out[d] = append(out[d], in[i])
					if len(out[d]) >= block {
						flush(d)
					}
				}
				n += int64(k)
				if n >= 256 {
					moved.add(n)
					n = 0
				}
			}
		}(q)
	}
	wg.Wait()
	return float64(totalMoves) / time.Since(start).Seconds()
}

// paddedCounter is a cache-line-padded atomic for the microbench's
// global move count, so the counter itself doesn't false-share.
type paddedCounter struct {
	_ [64]byte
	v atomic.Int64
	_ [64]byte
}

func (c *paddedCounter) add(n int64) { c.v.Add(n) }
func (c *paddedCounter) load() int64 { return c.v.Load() }

// kernelMicrobench times the dot and fused-step kernels in isolation
// on both sides of the SIMD dispatch at both precisions — the
// committed evidence for the asm kernels' speedup claims. Working sets
// are two K-length rows, so everything is L1-resident and the numbers
// measure arithmetic, not memory.
func kernelMicrobench() []kernelPoint {
	const iters = 1 << 19
	var out []kernelPoint
	sides := []bool{true}
	if vecmath.SIMDAvailable() {
		sides = []bool{true, false}
	}
	defer vecmath.SetSIMD(vecmath.SIMDAvailable())
	for _, k := range []int{8, 16, 32, 100} {
		for _, simd := range sides {
			label := kernelSide(simd)
			kern := vecmath.KernelFor(k)
			a := make([]float64, k)
			b := make([]float64, k)
			for i := range a {
				a[i] = 1 / float64(i+2)
				b[i] = 1 / float64(i+3)
			}
			var sink float64
			start := time.Now()
			for i := 0; i < iters; i++ {
				sink += kern.Dot(a, b)
			}
			out = append(out, kernelPoint{K: k, Op: "dot", Kernels: label,
				Precision: "float64", NsPerOp: 1e9 * time.Since(start).Seconds() / iters})
			start = time.Now()
			for i := 0; i < iters; i++ {
				sink += kern.Step(a, b, 0.5, 1e-9, 1e-9)
			}
			out = append(out, kernelPoint{K: k, Op: "fused_step", Kernels: label,
				Precision: "float64", NsPerOp: 1e9 * time.Since(start).Seconds() / iters})

			kern32 := vecmath.KernelFor32(k)
			a32 := make([]float32, k)
			b32 := make([]float32, k)
			for i := range a32 {
				a32[i] = float32(a[i])
				b32[i] = float32(b[i])
			}
			start = time.Now()
			for i := 0; i < iters; i++ {
				sink += float64(kern32.Dot(a32, b32))
			}
			out = append(out, kernelPoint{K: k, Op: "dot", Kernels: label,
				Precision: "float32", NsPerOp: 1e9 * time.Since(start).Seconds() / iters})
			start = time.Now()
			for i := 0; i < iters; i++ {
				sink += float64(kern32.Step(a32, b32, 0.5, 1e-9, 1e-9))
			}
			out = append(out, kernelPoint{K: k, Op: "fused_step", Kernels: label,
				Precision: "float32", NsPerOp: 1e9 * time.Since(start).Seconds() / iters})
			if sink == 0 { // keep the accumulator live
				fmt.Print("")
			}
		}
	}
	for _, p := range out {
		if p.K == 32 {
			fmt.Printf("   [sweep: kernel micro K=%d %s %s/%s: %.2f ns/op]\n",
				p.K, p.Op, p.Kernels, p.Precision, p.NsPerOp)
		}
	}
	return out
}

// parseWorkerList parses "1,2,4" into worker counts, in input order.
func parseWorkerList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty worker list")
	}
	return out, nil
}

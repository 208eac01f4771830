// Command nomad-bench regenerates the tables and figures of the NOMAD
// paper's evaluation section on synthetic data.
//
// Usage:
//
//	nomad-bench -list
//	nomad-bench -exp fig5
//	nomad-bench -exp fig8,fig11 -scale 0.005 -machines 8
//	nomad-bench -exp all
//	nomad-bench -json BENCH_hotpath.json
//	nomad-bench -sweep BENCH_scaling.json
//
// Each experiment prints its convergence series (test RMSE against the
// figure's x-axis) or its table. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured comparisons.
//
// The -json mode instead measures the fixed hot-path benchmark set
// (the BenchmarkTrainNomadEpoch workload on both sides of the kernel
// A/B, plus fig5/fig6) and merges machine-readable records
// into the given file; see json.go and the committed BENCH_hotpath.json
// for the protocol. The -sweep mode records worker scaling (sweep.go,
// BENCH_scaling.json) and the -dist mode records the TCP data plane
// (dist.go, BENCH_dist.json).
//
// -cpuprofile and -memprofile wrap whatever mode was selected in the
// standard pprof collectors, so perf PRs can attach profiles of the
// exact benchmark workload they changed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nomad/internal/experiments"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code instead of os.Exit, so deferred
// profile flushing survives every exit path.
func run() int {
	var (
		exp       = flag.String("exp", "", "experiment id(s), comma separated, or 'all'")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		scale     = flag.Float64("scale", 0.002, "dataset scale (fraction of the paper's Table 2 sizes)")
		epochs    = flag.Int("epochs", 10, "training epochs per run (NOMAD scaling figures)")
		seconds   = flag.Float64("seconds", 1.5, "wall-clock budget per run (solver comparison figures)")
		k         = flag.Int("k", 16, "latent dimension")
		workers   = flag.Int("workers", 4, "worker threads per machine")
		machines  = flag.Int("machines", 4, "machines for distributed experiments")
		seed      = flag.Uint64("seed", 42, "random seed")
		tsvDir    = flag.String("tsv", "", "also write each series as a TSV file into this directory")
		jsonPath  = flag.String("json", "", "measure the fixed hot-path A/B benchmark set (baseline + after, interleaved) and merge the records into this JSON file")
		sweepPath = flag.String("sweep", "", "measure the worker-scaling sweep (updates/s vs workers per kernel side and precision, plus the mesh tokens/s microbench) and write it to this JSON file")
		sweepWkrs = flag.String("sweepworkers", "1,2,4", "comma-separated worker counts for -sweep")
		sweepReps = flag.Int("sweepreps", 3, "measured reps per -sweep point (plus one warm-up)")
		distPath  = flag.String("dist", "", "measure the TCP data plane (loopback clusters plus codec microbenchmarks) and write it to this JSON file")
		distMachs = flag.String("distmachines", "2,4", "comma-separated machine counts for -dist")
		distReps  = flag.Int("distreps", 3, "measured reps per -dist point (plus one warm-up)")
		distChaos = flag.String("chaos", "", "fault injection for -dist runs, e.g. kill:rank=2,at=mid-epoch (enables failover, adds recovery_ms to the record)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the selected mode to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nomad-bench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "nomad-bench: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nomad-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "nomad-bench: -memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return 0
	}

	opts := experiments.Options{
		Scale:    *scale,
		Epochs:   *epochs,
		Seconds:  *seconds,
		K:        *k,
		Workers:  *workers,
		Machines: *machines,
		Seed:     *seed,
	}

	if *sweepPath != "" {
		// Like -json, the sweep's training protocol is pinned so records
		// stay comparable; reject tuning flags rather than silently
		// ignore them. Only the worker list and rep count are knobs.
		if clash := clashingFlags("sweep", "sweepworkers", "sweepreps"); len(clash) > 0 {
			fmt.Fprintf(os.Stderr, "nomad-bench: -sweep measures a pinned protocol and cannot be combined with %s\n",
				strings.Join(clash, ", "))
			return 2
		}
		wl, err := parseWorkerList(*sweepWkrs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nomad-bench: -sweepworkers: %v\n", err)
			return 2
		}
		if *sweepReps < 1 {
			fmt.Fprintln(os.Stderr, "nomad-bench: -sweepreps must be ≥ 1")
			return 2
		}
		if err := runSweep(*sweepPath, wl, *sweepReps); err != nil {
			fmt.Fprintf(os.Stderr, "nomad-bench: sweep: %v\n", err)
			return 1
		}
		fmt.Printf("   [sweep record written to %s]\n", *sweepPath)
		return 0
	}
	if *distPath != "" {
		// Same contract as -sweep: the datasets, seed, rank and epoch
		// budget are pinned; only the machine list and rep count vary.
		if clash := clashingFlags("dist", "distmachines", "distreps", "chaos"); len(clash) > 0 {
			fmt.Fprintf(os.Stderr, "nomad-bench: -dist measures a pinned protocol and cannot be combined with %s\n",
				strings.Join(clash, ", "))
			return 2
		}
		ml, err := parseWorkerList(*distMachs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nomad-bench: -distmachines: %v\n", err)
			return 2
		}
		for _, m := range ml {
			if m < 2 {
				fmt.Fprintln(os.Stderr, "nomad-bench: -distmachines entries must be ≥ 2 (a cluster needs peers)")
				return 2
			}
			if *distChaos != "" && m < 3 {
				fmt.Fprintln(os.Stderr, "nomad-bench: -chaos runs use failover, which needs ≥ 3 machines per -distmachines entry")
				return 2
			}
		}
		if *distReps < 1 {
			fmt.Fprintln(os.Stderr, "nomad-bench: -distreps must be ≥ 1")
			return 2
		}
		if err := runDist(*distPath, ml, *distReps, *distChaos); err != nil {
			fmt.Fprintf(os.Stderr, "nomad-bench: dist: %v\n", err)
			return 1
		}
		fmt.Printf("   [dist record written to %s]\n", *distPath)
		return 0
	}
	if *jsonPath != "" {
		// The -json set is pinned so records stay comparable across
		// PRs; reject any tuning flag rather than silently ignore it.
		if clash := clashingFlags("json"); len(clash) > 0 {
			fmt.Fprintf(os.Stderr, "nomad-bench: -json measures a pinned benchmark set and cannot be combined with %s\n",
				strings.Join(clash, ", "))
			return 2
		}
		if err := runJSON(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "nomad-bench: json: %v\n", err)
			return 1
		}
		fmt.Printf("   [json baseline+after+after_float32 records written to %s]\n", *jsonPath)
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "nomad-bench: -exp required (or -list, -json, -sweep, -dist); e.g. -exp fig5")
		return 2
	}

	var ids []string
	if *exp == "all" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		res, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nomad-bench: %s: %v\n", id, err)
			return 1
		}
		if err := experiments.Render(os.Stdout, res); err != nil {
			fmt.Fprintf(os.Stderr, "nomad-bench: render %s: %v\n", id, err)
			return 1
		}
		if *tsvDir != "" {
			if err := writeTSV(*tsvDir, res); err != nil {
				fmt.Fprintf(os.Stderr, "nomad-bench: tsv %s: %v\n", id, err)
				return 1
			}
		}
		fmt.Printf("   [%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
	return 0
}

// clashingFlags returns every explicitly set flag that is neither one
// of the mode's own knobs nor a profile flag (-cpuprofile and
// -memprofile compose with every mode — that is their point).
func clashingFlags(allowed ...string) []string {
	ok := map[string]bool{"cpuprofile": true, "memprofile": true}
	for _, a := range allowed {
		ok[a] = true
	}
	var clash []string
	flag.Visit(func(f *flag.Flag) {
		if !ok[f.Name] {
			clash = append(clash, "-"+f.Name)
		}
	})
	return clash
}

// writeTSV saves each series as "<id>_<label>.tsv" with
// seconds/updates/rmse columns, ready for external plotting tools.
func writeTSV(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sanitize := strings.NewReplacer(" ", "_", "/", "-", "=", "-", "λ", "lambda")
	for _, s := range res.Series {
		name := filepath.Join(dir, res.ID+"_"+sanitize.Replace(s.Label)+".tsv")
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(f, "seconds\tupdates\ttestRMSE"); err != nil {
			f.Close()
			return err
		}
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(f, "%.4f\t%d\t%.6f\n", p.Seconds, p.Updates, p.RMSE); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Command nomad-bench regenerates the tables and figures of the NOMAD
// paper's evaluation section on synthetic data.
//
// Usage:
//
//	nomad-bench -list
//	nomad-bench -exp fig5
//	nomad-bench -exp fig8,fig11 -scale 0.005 -machines 8
//	nomad-bench -exp all
//
// Each experiment prints its convergence series (test RMSE against the
// figure's x-axis) or its table. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured comparisons.
//
// -cpuprofile and -memprofile wrap the selected experiments in the
// standard pprof collectors.
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
		exp      = flag.String("exp", "", "experiment id(s), comma separated, or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		scale    = flag.Float64("scale", 0.002, "dataset scale (fraction of the paper's Table 2 sizes)")
		epochs   = flag.Int("epochs", 10, "training epochs per run (NOMAD scaling figures)")
		seconds  = flag.Float64("seconds", 1.5, "wall-clock budget per run (solver comparison figures)")
		k        = flag.Int("k", 16, "latent dimension")
		workers  = flag.Int("workers", 4, "worker threads per machine")
		machines = flag.Int("machines", 4, "machines for distributed experiments")
		seed     = flag.Uint64("seed", 42, "random seed")
		tsvDir   = flag.String("tsv", "", "also write each series as a TSV file into this directory")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
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

	if *exp == "" {
		fmt.Fprintln(os.Stderr, "nomad-bench: -exp required (or -list); e.g. -exp fig5")
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

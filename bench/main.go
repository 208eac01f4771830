// Command bench is the repository's benchmark: five named workloads,
// each run in a fresh process, with end-to-end metrics measured with
// tracing off and per-layer metrics from a separate traced pass. See
// README.md beside this file.
//
//	bash bench/run.sh -seed 7                  # all five workloads, end to end
//	bash bench/run.sh -seed 7 -trace 1         # all five, traced per-layer pass
//	bash bench/run.sh -workload serve-swap     # one workload; last line is the driver's JSON object
//	bash bench/run.sh -compare a.json b.json   # verdict per workload x end-to-end metric
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// options is one invocation's settings.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	serveBin string
	out      string // directory of result and trace files
	tmp      string // scratch directory of this run, removed at exit
	stdout   io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload in this process (default: all five, each in a fresh child process)")
		seed     = fs.Uint64("seed", pinnedSeed, "workload seed; 11 is held out for claims (see README.md)")
		seconds  = fs.Float64("seconds", 12, "measuring time of one run")
		trace    = fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
		scale    = fs.Float64("scale", 1, "multiplies every dataset scale (the smoke test uses 0.05)")
		serveBin = fs.String("serve-bin", "", "nomad-serve binary (default: built into the scratch directory)")
		out      = fs.String("out", "", "directory for result and trace files (default: bench/out)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	benchDir, err := findBenchDir()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: *scale, serveBin: *serveBin, out: *out, stdout: stdout}
	if o.out == "" {
		o.out = filepath.Join(benchDir, "out")
	}
	// Scratch lives beside the build outputs, inside the checkout.
	o.tmp, err = makeScratch(filepath.Join(filepath.Dir(benchDir), ".bench_build"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(o.tmp)
	if o.serveBin == "" {
		if o.serveBin, err = buildServe(benchDir, o.tmp); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *name == "" {
		return runAll(o, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	code, err := runOne(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
	}
	return code
}

func makeScratch(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}

// findBenchDir locates the benchmark's own directory from the working
// directory: the repository root (the driver's case) or bench/ itself.
func findBenchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module nomad/bench\n") {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/")
}

// buildServe builds nomad-serve, the program under test of the serving
// workloads, from the checkout's source.
func buildServe(benchDir, dir string) (string, error) {
	bin := filepath.Join(dir, "nomad-serve")
	cmd := exec.Command("go", "build", "-o", bin, "nomad/cmd/nomad-serve")
	cmd.Dir = benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build nomad-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// runOne runs one workload in this process, prints its metrics, writes
// its result file and ends standard output with the driver's object.
func runOne(w workload, o options) (int, error) {
	var r *result
	var err error
	switch {
	case o.trace:
		r, err = runTraced(w, o)
	case w.Serve:
		r, err = runServe(w, o)
	default:
		r, err = runTrain(w, o)
	}
	if err != nil {
		return 1, fmt.Errorf("%s: %w", w.Name, err)
	}
	r.print(o.stdout)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 1, err
	}
	if err := writeResultSet(resultPath(o, w.Name), resultSet{Env: stampEnv(o.seed), Results: []result{*r}}); err != nil {
		return 1, err
	}
	line, err := r.contractLine(w)
	if err != nil {
		return 1, fmt.Errorf("%s: %w", w.Name, err)
	}
	fmt.Fprintf(o.stdout, "%s\n", line)
	if !r.Correct {
		return 1, fmt.Errorf("%s: outputs are not correct: %s", w.Name, strings.Join(r.Notes, "; "))
	}
	return 0, nil
}

func resultPath(o options, name string) string {
	pass := "e2e"
	if o.trace {
		pass = "trace"
	}
	return filepath.Join(o.out, fmt.Sprintf("result-%s-%s-seed%d.json", name, pass, o.seed))
}

// runAll runs every workload in a fresh child process of this binary
// and merges the children's result files into one set.
func runAll(o options, stderr io.Writer) int {
	stdout := o.stdout
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	set := resultSet{Env: stampEnv(o.seed)}
	code := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.Name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
			"-out", o.out, "-serve-bin", o.serveBin,
		}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			code = 1
		}
		child, err := readResultSet(resultPath(o, w.Name))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
			continue
		}
		set.Results = append(set.Results, child.Results...)
	}
	pass := "e2e"
	if o.trace {
		pass = "trace"
		printTraceOverhead(o, set, stdout)
	}
	path := filepath.Join(o.out, fmt.Sprintf("results-%s-seed%d.json", pass, o.seed))
	if err := writeResultSet(path, set); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "results written to %s\n", path)
	return code
}

// printTraceOverhead reports the traced pass's cost as the difference
// between its numbers and the untraced ones of the same seed, when an
// end-to-end result set is on disk beside it.
func printTraceOverhead(o options, traced resultSet, stdout io.Writer) {
	o.trace = false
	for _, t := range traced.Results {
		e2e, err := readResultSet(resultPath(o, t.Workload))
		if err != nil || len(e2e.Results) == 0 {
			fmt.Fprintf(stdout, "%-13s tracing overhead: no untraced result for seed %d; run without -trace first\n", t.Workload, o.seed)
			continue
		}
		u := e2e.Results[0].EndToEnd
		if plain, ok := u["updates_per_s"]; ok {
			with := t.PerLayer["trace.updates_per_s"].Median
			fmt.Fprintf(stdout, "%-13s tracing overhead: updates_per_s %.4g untraced, %.4g traced (%+.1f%%)\n", t.Workload, plain.Median, with, 100*(with/plain.Median-1))
		}
		if plain, ok := u["p50_ms"]; ok {
			with := t.PerLayer["trace.http_p50_ms"].Median
			fmt.Fprintf(stdout, "%-13s tracing overhead: p50_ms %.4g untraced, %.4g traced (%+.1f%%)\n", t.Workload, plain.Median, with, 100*(with/plain.Median-1))
		}
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"nomad/internal/vecmath"
)

// result is one run of one workload: either the end-to-end pass
// (tracing off) or the traced per-layer pass.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Digest   string  `json:"input_digest"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Notes     []string `json:"notes,omitempty"` // why an op failed or the run is incorrect

	// The host canary before and after the workload; a gap above 10 %
	// marks the run disturbed. Disturbed runs are reported, never
	// dropped or retried.
	CanaryBeforeNs float64 `json:"canary_before_ns"`
	CanaryAfterNs  float64 `json:"canary_after_ns"`
	Disturbed      bool    `json:"disturbed"`

	GenS     float64            `json:"bench_gen_s"` // input generation by the benchmark itself
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	PerLayer map[string]summary `json:"per_layer,omitempty"`
}

func newResult(w workload, o options) *result {
	return &result{
		Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Correct:  true,
		EndToEnd: map[string]summary{}, PerLayer: map[string]summary{},
	}
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.note(format, args...)
}

// wrong records a failed operation that also makes the run's outputs
// incorrect: the program answered, and answered wrongly.
func (r *result) wrong(format string, args ...any) {
	r.Correct = false
	r.fail(format, args...)
}

// note keeps the first few reasons; a broken run would otherwise
// repeat one line per request.
func (r *result) note(format string, args ...any) {
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// incorrect marks the whole run wrong (an input digest mismatch, a
// missing epoch): the benchmark then exits non-zero.
func (r *result) incorrect(format string, args ...any) {
	r.Correct = false
	r.note(format, args...)
}

// resultSet is the file format of bench/out/*.json and the input of
// -compare.
type resultSet struct {
	Env     envStamp `json:"env"`
	Results []result `json:"results"`
}

// envStamp says where and on what a result set was measured.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Features   string `json:"vecmath_features"`
	GitCommit  string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	Started    string `json:"started"`
}

func stampEnv(seed uint64) envStamp {
	return envStamp{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), Features: vecmath.Features(), GitCommit: gitCommit(),
		Seed: seed, Started: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitCommit is "unknown" outside a git checkout (the driver's copy of
// the tree is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeResultSet(path string, set resultSet) error {
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// canarySink keeps the compiler from deleting the canary loop.
var canarySink uint64

// canary spins a fixed scalar loop for about 200 ms and returns the
// nanoseconds one iteration took. It touches no memory, so it moves
// only when the host takes the core away or changes its clock.
func canary() float64 {
	const chunk = 1 << 20
	x := uint64(88172645463325252)
	iters := 0
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		for i := 0; i < chunk; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		iters += chunk
	}
	canarySink = x
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

func (r *result) canaryAfter() {
	r.CanaryAfterNs = canary()
	lo, hi := math.Min(r.CanaryBeforeNs, r.CanaryAfterNs), math.Max(r.CanaryBeforeNs, r.CanaryAfterNs)
	r.Disturbed = hi > 1.10*lo
	r.PerLayer["host.canary_ns"] = summarize([]float64{r.CanaryBeforeNs, r.CanaryAfterNs})
}

// peakRSSMB reads VmHWM, the peak resident set, of a live process.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// resetPeakRSS returns set-up's garbage to the system and restarts the
// kernel's high-water mark, so that peak_rss_mb is the peak of the
// training itself and not of how far the collector happened to lag
// while the dataset was generated. Where the kernel refuses (no
// /proc/self/clear_refs), the mark simply keeps covering set-up too.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best effort, see above
}

// printMetrics writes one line per metric: workload metric value unit n= iqr=.
func printMetrics(w io.Writer, workload string, metrics map[string]summary, unit func(string) string) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := metrics[name]
		fmt.Fprintf(w, "%-13s %-32s %14.6g %-6s n=%d iqr=%.1f%%\n", workload, name, s.Median, unit(name), s.N, 100*s.iqrShare())
	}
}

func (r *result) print(w io.Writer) {
	printMetrics(w, r.Workload, r.EndToEnd, func(name string) string {
		d, _ := endToEndDef(name)
		return d.Unit
	})
	printMetrics(w, r.Workload, r.PerLayer, layerUnit)
	fmt.Fprintf(w, "%-13s ops_attempted=%d ops_failed=%d correct=%v digest=%s gen_s=%.2f", r.Workload, r.Attempted, r.Failed, r.Correct, r.Digest, r.GenS)
	if r.Disturbed {
		fmt.Fprintf(w, " disturbed (canary %.3f -> %.3f ns)", r.CanaryBeforeNs, r.CanaryAfterNs)
	}
	fmt.Fprintln(w)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%-13s note: %s\n", r.Workload, n)
	}
}

// contractLine is the last line of standard output in single-workload
// mode: the object the driver reads. Untraced runs carry every
// end_to_end metric of BENCHMARK.json, traced runs every per_layer one.
func (r *result) contractLine(w workload) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.Traced {
		for _, d := range perLayer {
			s, ok := r.PerLayer[d.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
			}
			metrics[d.Name] = value{s.Median, d.Unit}
		}
	} else {
		for _, ro := range roles {
			src, scale := ro.Source(w)
			s, ok := r.EndToEnd[src]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s (for %s) was not measured", src, ro.Name)
			}
			metrics[ro.Name] = value{s.Median * scale, ro.Unit}
		}
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	attempted := max(r.Attempted, 1)
	return json.Marshal(map[string]any{
		"correct": r.Correct && r.Failed == 0, "attempted": attempted, "failed": r.Failed, "metrics": metrics,
	})
}

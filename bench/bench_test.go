package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}} {
		if got := percentile(xs, c.p); !approx(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample must be NaN")
	}
	if got := percentile([]float64{7}, 98); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	s := summarize([]float64{10, 20, 30, 40, 50})
	if s.Median != 30 || s.Q1 != 20 || s.Q3 != 40 || s.N != 5 || !approx(s.iqrShare(), 20.0/30) {
		t.Errorf("summarize: %+v iqr %v", s, s.iqrShare())
	}
}

// One window with a burst must not move the median over windows.
func TestMedianOfWindows(t *testing.T) {
	var due, lat []float64
	for w := 0; w < 4; w++ {
		for i := 0; i < 100; i++ {
			due = append(due, float64(w)+float64(i)/100)
			v := float64(i + 1) // 1..100 ms in every window
			if w == 2 {
				v *= 50 // a disturbed window
			}
			lat = append(lat, v)
		}
	}
	got := medianOfWindows(due, lat, 1, 4, 50)
	if got.N != 4 || !approx(got.Median, 50.5) {
		t.Errorf("median of per-window p50 = %+v, want 50.5 over 4 windows", got)
	}
	// Samples due after the last window are ignored, empty windows skipped.
	got = medianOfWindows([]float64{0.5, 9}, []float64{3, 1000}, 1, 4, 50)
	if got.N != 1 || got.Median != 3 {
		t.Errorf("out-of-range and empty windows: %+v", got)
	}
}

func TestTimeToTarget(t *testing.T) {
	trace := []tracePoint{{0, 2.0}, {1, 1.0}, {2, 0.9}, {3, 0.7}, {4, 0.6}}
	got, ok := timeToTarget(trace, 0.8)
	if !ok || !approx(got, 2.5) {
		t.Errorf("crossing 0.8: got %v %v, want 2.5", got, ok)
	}
	if got, ok := timeToTarget(trace, 1.0); !ok || !approx(got, 1) {
		t.Errorf("a sample exactly on target: got %v %v, want 1", got, ok)
	}
	if _, ok := timeToTarget(trace, 0.5); ok {
		t.Error("a trace that never reaches the target must not report a time")
	}
	// An upward blip after the crossing does not matter: first crossing wins.
	if got, _ := timeToTarget([]tracePoint{{0, 1}, {1, 0.7}, {2, 0.9}, {3, 0.7}}, 0.8); !approx(got, 2.0/3) {
		t.Errorf("first crossing: got %v", got)
	}
}

// A stalled server must inflate latency (timed from due time), not thin
// the load: every slot is still sent.
func TestOpenLoopStallInflatesLatency(t *testing.T) {
	const rate, slots = 200.0, 40 // one slot every 5 ms
	do := func(conn, slot int) call {
		if slot < 2 { // both connections stall at once
			time.Sleep(100 * time.Millisecond)
		}
		return call{Status: 200}
	}
	samples := openLoop(rate, slots, 2, time.Second, do)
	if len(samples) != slots {
		t.Fatalf("%d samples, want %d", len(samples), slots)
	}
	for i, s := range samples {
		if s.Unsent || s.Status != 200 {
			t.Fatalf("slot %d was dropped: %+v", i, s)
		}
		if !approx(s.Due, float64(i)/rate) {
			t.Errorf("slot %d due at %v, want %v", i, s.Due, float64(i)/rate)
		}
	}
	// Slot 2 was due at 10 ms but no connection was free until ~100 ms.
	if s := samples[2]; s.latencyMs() < 80 || s.lateMs() < 80 {
		t.Errorf("slot 2 queued behind the stall: latency %.1f ms, late %.1f ms; both must be >= 80", s.latencyMs(), s.lateMs())
	}
	// Once the backlog drains, requests are on time again.
	if s := samples[slots-1]; s.latencyMs() > 40 {
		t.Errorf("last slot still late by %.1f ms", s.latencyMs())
	}
}

func TestOpenLoopDrainDeadline(t *testing.T) {
	do := func(conn, slot int) call {
		time.Sleep(150 * time.Millisecond)
		return call{Status: 200}
	}
	// 10 slots due within 45 ms, one connection, 50 ms of drain: the
	// first request alone outlives the deadline.
	samples := openLoop(200, 10, 1, 50*time.Millisecond, do)
	if samples[0].Unsent {
		t.Error("slot 0 must be sent")
	}
	unsent := 0
	for _, s := range samples[1:] {
		if s.Unsent {
			unsent++
		}
	}
	if unsent != 9 {
		t.Errorf("%d of 9 late slots marked unsent", unsent)
	}
}

func TestClosedLoopLimit(t *testing.T) {
	samples := closedLoop(time.Minute, 25, 2, func(conn, slot int) call { return call{Status: 200} })
	if len(samples) != 25 {
		t.Errorf("%d requests, want the limit of 25", len(samples))
	}
}

func TestResponseEpoch(t *testing.T) {
	got, err := responseEpoch([]byte(`{"user":3,"n":10,"epoch":12,"shards":1,"items":[]}`))
	if err != nil || got != 12 {
		t.Errorf("epoch = %v, %v", got, err)
	}
	if _, err := responseEpoch([]byte(`{}`)); err == nil {
		t.Error("a body without an epoch must be an error")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2: the union is 10..50
		{ID: 4, Parent: 1, Start: 70, End: 80},
		{ID: 5, Parent: 4, Start: 72, End: 75},
		{ID: 6, Parent: 1, Start: 95, End: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 40 - 10 - 5, 2: 20, 3: 30, 4: 7, 5: 3, 6: 25} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0)
	child := tr.begin("child", root)
	tr.end(child, 7)
	tr.end(root, 0)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Count != 7 || tr.spans[1].End < tr.spans[1].Start {
		t.Errorf("spans: %+v", tr.spans)
	}
	var off *tracer // tracing off
	off.end(off.begin("x", 0), 1)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var back []span
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 2 || back[1].Name != "child" {
		t.Errorf("trace file round trip: %v %+v", err, back)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p95_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "updates_per_s", Better: "higher", Bound: 0.10}
	abs := metricDef{Name: "ok_share", Better: "higher", Bound: 0.01, AbsBound: true}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 5} }
	for _, c := range []struct {
		d         metricDef
		ref, cand summary
		want      string
	}{
		{lower, tight(10), tight(10.5), "same"},
		{lower, tight(10), tight(11.5), "worse"},
		{lower, tight(10), tight(8), "better"},
		{higher, tight(10), tight(8), "worse"},
		{higher, tight(10), tight(12), "better"},
		{lower, tight(10), summary{Median: 10, Q1: 9, Q3: 11.5, N: 5}, "unresolved"},
		{abs, summary{Median: 1, Q1: 1, Q3: 1}, summary{Median: 0.995, Q1: 0.995, Q3: 0.995}, "same"},
		{abs, summary{Median: 1, Q1: 1, Q3: 1}, summary{Median: 0.98, Q1: 0.98, Q3: 0.98}, "worse"},
	} {
		if got := verdict(c.d, c.ref, c.cand); got != c.want {
			t.Errorf("%s ref %v cand %v: %s, want %s", c.d.Name, c.ref.Median, c.cand.Median, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(rate float64) resultSet {
		return resultSet{Results: []result{{Workload: "shm-netflix", Correct: true, EndToEnd: map[string]summary{
			"updates_per_s": {Median: rate, Q1: rate * 0.99, Q3: rate * 1.01, N: 5},
		}}}}
	}
	var out bytes.Buffer
	if code := compareSets(mk(100), mk(101), &out); code != 0 || !strings.Contains(out.String(), "same") {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(mk(100), mk(80), &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower candidate: exit %d\n%s", code, out.String())
	}
}

// The same seed gives the same inputs; another seed gives others.
func TestDigestStability(t *testing.T) {
	digest := func(seed uint64) string {
		w, _ := workloadByName("serve-swap")
		in, err := makeInputs(w, options{seed: seed, scale: 0.02}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return in.digest
	}
	a, b, c := digest(5), digest(5), digest(6)
	if a != b {
		t.Errorf("seed 5 digests differ: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 share the digest %s", a)
	}
	if !strings.Contains(a, "-") {
		t.Errorf("a serving digest covers dataset and model: %s", a)
	}
	// The dataset half is the same hash a training workload pins.
	w, _ := workloadByName("shm-longtail")
	in := newInputs(w, options{seed: 5, scale: 0.02}, "")
	if err := in.synth(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	digestDataset(h, in.ds)
	if err := in.seal(false); err != nil || !strings.HasPrefix(a, in.digest+"-") {
		t.Errorf("dataset digest %s is not the prefix of %s (%v)", in.digest, a, err)
	}
}

// contract is the part of BENCHMARK.json the benchmark must agree with.
type contract struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q", i, c.Workloads[i].Name, w.Name)
		}
	}
	if len(c.EndToEnd) != len(roles) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d roles", len(c.EndToEnd), len(roles))
	}
	for i, ro := range roles {
		m := c.EndToEnd[i]
		if m.Name != ro.Name || m.Unit != ro.Unit {
			t.Errorf("end_to_end %d: %s [%s] vs role %s [%s]", i, m.Name, m.Unit, ro.Name, ro.Unit)
		}
		for _, w := range workloads {
			src, _ := ro.Source(w)
			d, ok := endToEndDef(src)
			if !ok {
				t.Errorf("role %s on %s maps to unknown metric %s", ro.Name, w.Name, src)
			} else if d.Better != m.Better {
				t.Errorf("role %s is %s-is-better but %s on %s is %s", ro.Name, m.Better, src, w.Name, d.Better)
			}
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in layers.go", len(c.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if c.PerLayer[i].Name != d.Name || c.PerLayer[i].Unit != d.Unit {
			t.Errorf("per_layer %d: %s [%s] vs %s [%s]", i, c.PerLayer[i].Name, c.PerLayer[i].Unit, d.Name, d.Unit)
		}
	}
}

// TestSmoke runs both passes of all five workloads at 1/20 scale and
// checks that each run's last line carries every metric BENCHMARK.json
// names for that pass, each exactly once, and nothing else.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	benchDir, err := findBenchDir()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	serveBin, err := buildServe(benchDir, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"0": nil, "1": nil}
	for _, m := range c.EndToEnd {
		want["0"] = append(want["0"], m.Name)
	}
	for _, m := range c.PerLayer {
		want["1"] = append(want["1"], m.Name)
	}
	for _, w := range c.Workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace,
				"-scale", "0.05", "-serve-bin", serveBin, "-out", dir}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s\n%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v\n%s", w.Name, trace, err, lines[len(lines)-1])
			}
			if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, last.Correct, last.Attempted, last.Failed)
			}
			if len(last.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.Name, trace, len(last.Metrics), len(want[trace]))
			}
			for _, name := range want[trace] {
				m, ok := last.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, name)
				} else if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, name, m.Value)
				}
				// The printed table names each metric's source once too.
			}
			if trace == "1" {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
}

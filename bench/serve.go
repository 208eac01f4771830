package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"

	"nomad"
)

const (
	openRate     = 100.0 // qps of the gated open loop: the highest rate whose window tails repeated on a 2-core VM
	loadConns    = 2     // load connections, at most nproc
	warmupReqs   = 200
	okWithinMs   = 50.0 // a response later than this after its due time is a miss
	verifyEvery  = 20   // every 20th response is compared with Model.Recommend
	serveBoots   = 3    // server starts per run; setup_s is their median
	serveTopN    = 10
	phaseWindows = 5 // a run's measuring time is cut into this many equal windows
	swapCount    = 5
)

// openPcts are the per-window percentiles every open loop reports. p95
// is the highest with at least ten samples beyond it in a 240-request
// window. Which one a workload is gated on is in spec.go's roles.
var openPcts = []struct {
	name string
	pct  float64
}{{"p50_ms", 50}, {"p75_ms", 75}, {"p90_ms", 90}, {"p95_ms", 95}}

// server is one nomad-serve child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	wait chan error
}

var servingLine = regexp.MustCompile(`^serving (?:epoch \d+ )?on (\S+)`)

// startServer execs nomad-serve on an ephemeral port and returns once
// it has printed its listen address, which it does after the model and
// the exclusion matrix are loaded.
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, wait: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		// The pipe is drained to EOF before Wait, as os/exec requires.
		s.wait <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case err := <-s.wait:
		return nil, fmt.Errorf("%s exited before serving: %v", bin, err)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not start serving within 60s", bin)
	}
}

// stop ends the child and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited
	select {
	case <-s.wait:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // already exited
		<-s.wait
	}
}

// untilOK polls path until it answers 200 and returns when it did.
func untilOK(h *httpConns, path string, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c := h.get(0, path); c.Err == nil && c.Status == 200 {
			return time.Now(), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("%s%s not ready within %v", h.base, path, timeout)
}

func (in *inputs) serverArgs(watchDir string) []string {
	args := []string{"-model", in.modelPath}
	if watchDir != "" {
		args = []string{"-watch", watchDir, "-poll", "20ms"}
	}
	if in.matrixPath != "" {
		// -test 0 keeps every rating in the exclusion lists, so they are
		// exactly the dataset the oracle below excludes by.
		args = append(args, "-input", in.matrixPath, "-test", "0", "-seed", strconv.FormatUint(in.seed, 10))
	}
	return args
}

// boot starts the server serveBoots times, one after the other, and
// leaves the last one running. setup is exec -> first 200 on /healthz;
// ready is exec -> first 200 on /v1/recommend (a cold start as the
// first user sees it).
func (in *inputs) boot(bin, watchDir string) (srv *server, setup, ready []float64, err error) {
	for i := 0; i < serveBoots; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		if srv, err = startServer(bin, in.serverArgs(watchDir)...); err != nil {
			return nil, nil, nil, err
		}
		h := newHTTPConns(srv.base, 1)
		healthy, err := untilOK(h, "/healthz", 30*time.Second)
		if err == nil {
			var answered time.Time
			answered, err = untilOK(h, fmt.Sprintf("/v1/recommend?user=%d&n=%d", in.users[0], serveTopN), 30*time.Second)
			ready = append(ready, answered.Sub(t0).Seconds())
		}
		h.close()
		if err != nil {
			srv.stop()
			return nil, nil, nil, err
		}
		setup = append(setup, healthy.Sub(t0).Seconds())
	}
	return srv, setup, ready, nil
}

// oracle answers what the server must answer, through the public
// library API: nomad.LoadModel(file).Recommend(ds, user, n).
type oracle struct {
	ds     *nomad.Dataset
	models map[bool]*nomad.Model // keyed by "epoch is even" (the swap workload alternates A, B, A, ...)
}

func newOracle(in *inputs) (*oracle, error) {
	o := &oracle{ds: in.ds, models: map[bool]*nomad.Model{}}
	if in.matrixPath == "" {
		o.ds = nil // server started without exclusion lists
	}
	var err error
	if o.models[false], err = loadNomadModel(in.modelPath); err != nil {
		return nil, err
	}
	if in.modelBPath != "" {
		if o.models[true], err = loadNomadModel(in.modelBPath); err != nil {
			return nil, err
		}
	}
	return o, nil
}

type recResponse struct {
	User  int32  `json:"user"`
	Epoch uint64 `json:"epoch"`
	Items []struct {
		Item  int     `json:"item"`
		Score float64 `json:"score"`
	} `json:"items"`
}

// verify compares one response body item for item and score for score
// with the library's answer for the model its epoch names.
func (o *oracle) verify(body []byte, user int32) error {
	var got recResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	if got.User != user {
		return fmt.Errorf("asked for user %d, answered for %d", user, got.User)
	}
	m := o.models[got.Epoch%2 == 0]
	if m == nil {
		return fmt.Errorf("response names epoch %d, which was never published", got.Epoch)
	}
	want := m.Recommend(o.ds, int(user), serveTopN)
	if len(got.Items) != len(want) {
		return fmt.Errorf("user %d epoch %d: %d items, want %d", user, got.Epoch, len(got.Items), len(want))
	}
	for i, w := range want {
		if got.Items[i].Item != w.Item || got.Items[i].Score != w.Score {
			return fmt.Errorf("user %d epoch %d rank %d: got (%d, %v), want (%d, %v)", user, got.Epoch, i,
				got.Items[i].Item, got.Items[i].Score, w.Item, w.Score)
		}
	}
	return nil
}

// account counts an open-loop phase into r and returns each request's
// due time and latency. A transport error or an unsent slot is a failed
// operation; a non-200 answer or a wrong body makes the run incorrect
// (the server promises neither happens, even across a swap); a late
// answer only lowers ok_share.
func (r *result) account(samples []sample, users []int32, o *oracle) (due, latency []float64, ok int) {
	for _, s := range samples {
		r.Attempted++
		switch {
		case s.Unsent:
			r.fail("slot %d was never sent: both connections were stalled past the drain deadline", s.Slot)
			continue
		case s.Status == 0:
			r.fail("slot %d: transport error", s.Slot)
			continue
		case s.Status != 200:
			r.wrong("slot %d: status %d", s.Slot, s.Status)
			continue
		}
		if s.Slot%verifyEvery == 0 {
			if err := o.verify(s.Body, users[s.Slot%len(users)]); err != nil {
				r.wrong("slot %d: %v", s.Slot, err)
				continue
			}
		}
		due = append(due, s.Due)
		latency = append(latency, s.latencyMs())
		if s.latencyMs() <= okWithinMs {
			ok++
		}
	}
	return due, latency, ok
}

// runServe is the end-to-end pass of a serving workload.
func runServe(w workload, o options) (*result, error) {
	r := newResult(w, o)
	r.CanaryBeforeNs = canary()

	t0 := time.Now()
	in, err := makeInputs(w, o, o.tmp)
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(in)
	if err != nil {
		return nil, err
	}
	r.GenS = time.Since(t0).Seconds()
	in.checkDigest(r)

	watchDir := ""
	if w.Swap {
		watchDir = filepath.Join(in.dir, "watch")
		if err := os.Mkdir(watchDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.Link(in.modelPath, filepath.Join(watchDir, "model-1.bin")); err != nil {
			return nil, err
		}
	}
	srv, setup, ready, err := in.boot(o.serveBin, watchDir)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	r.EndToEnd["setup_s"] = summarize(setup)
	r.EndToEnd["cold_ready_s"] = summarize(ready)

	h := newHTTPConns(srv.base, loadConns)
	defer h.close()
	user := func(slot int) int32 { return in.users[slot%len(in.users)] }
	recommend := func(conn, slot int) call { return h.recommend(conn, user(slot)) }
	closedLoop(time.Minute, warmupReqs, loadConns, recommend)

	window := o.seconds / phaseWindows
	windows := phaseWindows
	if !w.Swap {
		// Phase A, closed loop: one window's worth of time at full
		// speed gives capacity; the open loop gets the other four.
		windows--
		done := 0
		for _, s := range closedLoop(time.Duration(window*float64(time.Second)), 0, loadConns, recommend) {
			if s.Status == 200 {
				done++
			}
		}
		r.EndToEnd["capacity_qps"] = single(float64(done)/window, done)
	}

	var swaps *swapper
	if w.Swap {
		swaps = startSwapper(in, watchDir, o.seconds)
	}
	slots := int(openRate * window * float64(windows))
	samples := openLoop(openRate, slots, loadConns, time.Second, recommend)
	due, latency, ok := r.account(samples, in.users, orc)
	for _, p := range openPcts {
		r.EndToEnd[p.name] = medianOfWindows(due, latency, window, windows, p.pct)
	}
	r.EndToEnd["ok_share"] = single(float64(ok)/float64(slots), slots)
	if w.Swap {
		// Requests answered in time per second of the open loop, from
		// its start to its last answer.
		end := 0.0
		for _, s := range samples {
			end = max(end, s.Done)
		}
		r.EndToEnd["goodput_qps"] = single(float64(ok)/end, ok)
		visible := swaps.finish(r, samples)
		if len(visible) > 0 {
			r.EndToEnd["swap_visible_ms"] = summarize(visible)
		}
	}

	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	r.EndToEnd["peak_rss_mb"] = single(rss, 1)
	r.canaryAfter()
	return r, nil
}

// swapper publishes alternating models into the watch directory while
// the open loop runs: epoch k (k = 2, 3, ...) is model B when k is
// even, A when odd, linked as model-k.tmp and renamed to model-k.bin,
// the publish protocol the watcher documents.
type swapper struct {
	mu      sync.Mutex
	renamed map[uint64]float64 // epoch -> seconds since the open loop started
	done    chan struct{}
	err     error
}

func startSwapper(in *inputs, watchDir string, seconds float64) *swapper {
	sw := &swapper{renamed: map[uint64]float64{}, done: make(chan struct{})}
	start := time.Now()
	period := seconds / (swapCount + 1)
	go func() {
		defer close(sw.done)
		for k := 0; k < swapCount; k++ {
			time.Sleep(time.Until(start.Add(time.Duration((0.5 + float64(k)) * period * float64(time.Second)))))
			epoch := uint64(k + 2)
			src := in.modelPath
			if epoch%2 == 0 {
				src = in.modelBPath
			}
			tmp := filepath.Join(watchDir, fmt.Sprintf("model-%d.tmp", epoch))
			if err := os.Link(src, tmp); err != nil {
				sw.err = err
				return
			}
			at := time.Since(start).Seconds()
			if err := os.Rename(tmp, filepath.Join(watchDir, fmt.Sprintf("model-%d.bin", epoch))); err != nil {
				sw.err = err
				return
			}
			sw.mu.Lock()
			sw.renamed[epoch] = at
			sw.mu.Unlock()
		}
	}()
	return sw
}

// finish waits for the swapper and returns, per published epoch, the
// milliseconds from its rename to the due time of the first response
// that carried it. An epoch no response carried is a failed operation;
// the run is incorrect unless both models were observed.
func (sw *swapper) finish(r *result, samples []sample) []float64 {
	<-sw.done
	if sw.err != nil {
		r.incorrect("publishing a model failed: %v", sw.err)
	}
	first := map[uint64]float64{}
	seen := map[bool]bool{}
	for _, s := range samples { // slot order is due-time order
		if s.Status != 200 {
			continue
		}
		epoch, err := responseEpoch(s.Body)
		if err != nil {
			r.incorrect("slot %d: %v", s.Slot, err)
			continue
		}
		seen[epoch%2 == 0] = true
		if _, ok := first[epoch]; !ok {
			first[epoch] = s.Due
		}
	}
	if !seen[false] || !seen[true] {
		r.incorrect("both models must be observed; saw A=%v B=%v", seen[false], seen[true])
	}
	var visible []float64
	for epoch, at := range sw.renamed {
		r.Attempted++
		due, ok := first[epoch]
		if !ok {
			r.fail("epoch %d, published at %.2fs, never answered a request", epoch, at)
			continue
		}
		visible = append(visible, (due-at)*1e3)
	}
	return visible
}

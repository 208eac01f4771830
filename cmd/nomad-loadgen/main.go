// Command nomad-loadgen drives open-loop query load against a
// nomad-serve endpoint and reports an HDR-style latency distribution.
//
//	nomad-loadgen -url http://127.0.0.1:8080 -qps 500 -duration 10s
//
// Open-loop means requests are scheduled on a fixed clock regardless
// of how fast earlier ones complete, and each latency is measured
// from the request's *scheduled* time — so server stalls inflate the
// tail instead of silently thinning the arrival rate (the
// coordinated-omission trap closed-loop generators fall into).
//
// The CI serve jobs use it as an assertion harness:
//
//	-assert-p99 25ms   fails (exit 1) when the measured p99 exceeds the bound
//	-assert-ok         fails when any request got a non-200 or transport error
//	-verify-model m.bin [dataset flags]
//	                   fails unless sampled responses equal Model.Recommend
//	                   exactly (items, scores, order)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nomad"
	"nomad/internal/benchenv"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "nomad-serve base URL")
		qps      = flag.Float64("qps", 200, "open-loop arrival rate (requests/second)")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		topN     = flag.Int("n", 10, "recommendations requested per query")
		workers  = flag.Int("workers", 16, "concurrent request workers")
		users    = flag.Int("users", 0, "user id range [0,users) to sample (0 = discover from /v1/stats)")
		seed     = flag.Uint64("seed", 1, "user sampling seed")
		out      = flag.String("out", "", "write the run record as JSON to this file")
		wait     = flag.Duration("wait", 10*time.Second, "wait up to this long for the server to accept connections before loading (0 = fail fast)")

		assertP99 = flag.Duration("assert-p99", 0, "exit 1 when p99 exceeds this (0 = no assertion)")
		assertOK  = flag.Bool("assert-ok", false, "exit 1 on any non-200 response or transport error")
		verify    = flag.String("verify-model", "", "model file: sampled responses must equal Model.Recommend exactly")
		input     = flag.String("input", "", "rating matrix file for -verify-model exclusion")
		profile   = flag.String("profile", "", "synthetic dataset profile for -verify-model exclusion")
		scale     = flag.Float64("scale", 0.002, "synthetic dataset scale")
		testFrac  = flag.Float64("test", 0.1, "test fraction for -input files")
		dsSeed    = flag.Uint64("dataset-seed", 42, "dataset seed (must match training)")
	)
	flag.Parse()

	if *wait > 0 {
		if err := awaitServer(*url, *wait); err != nil {
			fatal(err)
		}
	}
	nUsers := *users
	if nUsers == 0 {
		var err error
		nUsers, err = discoverUsers(*url)
		if err != nil {
			fatal(fmt.Errorf("user range discovery (pass -users to skip): %w", err))
		}
	}

	res := runLoad(loadCfg{
		URL:      *url,
		QPS:      *qps,
		Duration: *duration,
		N:        *topN,
		Workers:  *workers,
		Users:    nUsers,
		Seed:     *seed,
	})
	sum := res.Hist.Summary()
	fmt.Printf("sent %d requests in %.2fs (%d workers, target %.0f qps)\n",
		res.Sent, res.Elapsed.Seconds(), *workers, *qps)
	fmt.Printf("latency p50 %.3fms  p90 %.3fms  p99 %.3fms  p99.9 %.3fms  max %.3fms\n",
		sum.P50Us/1e3, sum.P90Us/1e3, sum.P99Us/1e3, sum.P999Us/1e3, sum.MaxUs/1e3)

	// Machine-readable lines for the CI jobs.
	fmt.Printf("qps: %.1f\n", res.QPS())
	fmt.Printf("p50_ms: %.3f\n", sum.P50Us/1e3)
	fmt.Printf("p99_ms: %.3f\n", sum.P99Us/1e3)
	fmt.Printf("p999_ms: %.3f\n", sum.P999Us/1e3)
	fmt.Printf("non200: %d\n", res.Non200)
	fmt.Printf("errors: %d\n", res.Errors)
	fmt.Printf("epochs_seen: %s\n", res.EpochList())

	failed := false
	if *assertP99 > 0 {
		if p99 := time.Duration(sum.P99Us*1e3) * time.Nanosecond; p99 > *assertP99 {
			fmt.Printf("ASSERT p99 %v > bound %v\n", p99, *assertP99)
			failed = true
		} else {
			fmt.Printf("assert p99 %v <= %v: ok\n", p99, *assertP99)
		}
	}
	if *assertOK && (res.Non200 > 0 || res.Errors > 0) {
		fmt.Printf("ASSERT non-200 responses: %d, transport errors: %d\n", res.Non200, res.Errors)
		failed = true
	}
	if *verify != "" {
		ds, err := loadDataset(*input, *profile, *scale, *testFrac, *dsSeed)
		if err != nil {
			fatal(err)
		}
		if err := verifyAgainstModel(*url, *verify, ds, *topN, nUsers, *seed); err != nil {
			fmt.Printf("verify: FAIL: %v\n", err)
			failed = true
		} else {
			fmt.Println("verify: ok")
		}
	}

	if *out != "" {
		rec := runRecord{
			Env:      benchenv.Capture(),
			URL:      *url,
			TargetQ:  *qps,
			Duration: res.Elapsed.Seconds(),
			TopN:     *topN,
			Workers:  *workers,
			Users:    nUsers,
			Sent:     res.Sent,
			Non200:   res.Non200,
			Errors:   res.Errors,
			Epochs:   res.EpochSlice(),
			QPS:      res.QPS(),
			Latency:  sum,
		}
		if err := writeJSON(*out, rec); err != nil {
			fatal(err)
		}
		fmt.Printf("record written to %s\n", *out)
	}
	if failed {
		os.Exit(1)
	}
}

// runRecord is the -out JSON document.
type runRecord struct {
	Env      benchenv.Env            `json:"env"`
	URL      string                  `json:"url"`
	TargetQ  float64                 `json:"target_qps"`
	Duration float64                 `json:"duration_s"`
	TopN     int                     `json:"topn"`
	Workers  int                     `json:"workers"`
	Users    int                     `json:"users"`
	Sent     int64                   `json:"sent"`
	Non200   int64                   `json:"non200"`
	Errors   int64                   `json:"errors"`
	Epochs   []uint64                `json:"epochs_seen"`
	QPS      float64                 `json:"qps"`
	Latency  benchenv.LatencySummary `json:"latency"`
}

type loadCfg struct {
	URL      string
	QPS      float64
	Duration time.Duration
	N        int
	Workers  int
	Users    int
	Seed     uint64
}

type loadResult struct {
	Hist    benchenv.Histogram
	Sent    int64
	Non200  int64
	Errors  int64
	Elapsed time.Duration
	epochs  map[uint64]bool
}

func (r *loadResult) QPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Sent) / r.Elapsed.Seconds()
}

// EpochSlice returns the distinct model epochs observed in responses,
// ascending.
func (r *loadResult) EpochSlice() []uint64 {
	out := make([]uint64, 0, len(r.epochs))
	for e := range r.epochs {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func (r *loadResult) EpochList() string {
	s := ""
	for i, e := range r.EpochSlice() {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(e)
	}
	return s
}

// recResponse is the subset of nomad-serve's response the generator
// inspects.
type recResponse struct {
	Epoch uint64 `json:"epoch"`
	Items []struct {
		Item  int32   `json:"item"`
		Score float64 `json:"score"`
	} `json:"items"`
}

// runLoad drives the open-loop schedule and merges per-worker
// histograms. Each worker owns a Histogram and an epoch set; nothing
// is shared on the hot path.
func runLoad(cfg loadCfg) loadResult {
	interval := time.Duration(float64(time.Second) / cfg.QPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	total := int(cfg.Duration.Seconds() * cfg.QPS)
	// The schedule queue holds every send slot of the run, so a stalled
	// server queues timestamps (inflating measured latency) instead of
	// stalling the scheduler (thinning load).
	sched := make(chan time.Time, total+cfg.Workers)

	transport := &http.Transport{
		MaxIdleConns:        cfg.Workers * 2,
		MaxIdleConnsPerHost: cfg.Workers * 2,
	}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	// Warm the connection pool and the server's code paths before the
	// clock starts, so the measured distribution is steady-state
	// serving latency rather than TCP and allocator cold starts. CI
	// launches the server and the generator together, so a refused
	// connection here is a boot race, not a measurement — it is retried
	// with capped backoff instead of leaking into the error counts.
	var warm sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		warm.Add(1)
		go func(w int) {
			defer warm.Done()
			url := fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", cfg.URL, w%cfg.Users, cfg.N)
			for i := 0; i < 3; i++ {
				resp, err := client.Get(url)
				for b := 10 * time.Millisecond; err != nil && b <= time.Second; b *= 2 {
					time.Sleep(b)
					resp, err = client.Get(url)
				}
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
					resp.Body.Close()
				}
			}
		}(w)
	}
	warm.Wait()

	type workerOut struct {
		hist   benchenv.Histogram
		non200 int64
		errors int64
		epochs map[uint64]bool
	}
	outs := make([]workerOut, cfg.Workers)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &outs[w]
			o.epochs = make(map[uint64]bool)
			rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(w)*7919))
			for t0 := range sched {
				user := rng.Intn(cfg.Users)
				url := fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", cfg.URL, user, cfg.N)
				resp, err := client.Get(url)
				if err != nil {
					o.errors++
					sent.Add(1)
					continue
				}
				var body recResponse
				decErr := json.NewDecoder(resp.Body).Decode(&body)
				// Drain the trailing bytes (the encoder's newline) so the
				// connection goes back to the keep-alive pool.
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
				resp.Body.Close()
				o.hist.Record(time.Since(t0))
				sent.Add(1)
				if resp.StatusCode != http.StatusOK {
					o.non200++
					continue
				}
				if decErr != nil {
					o.errors++
					continue
				}
				o.epochs[body.Epoch] = true
			}
		}(w)
	}

	start := time.Now()
	next := start
	for i := 0; i < total; i++ {
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		sched <- next
		next = next.Add(interval)
	}
	close(sched)
	wg.Wait()
	res := loadResult{Elapsed: time.Since(start), Sent: sent.Load(), epochs: make(map[uint64]bool)}
	for i := range outs {
		res.Hist.Merge(&outs[i].hist)
		res.Non200 += outs[i].non200
		res.Errors += outs[i].errors
		for e := range outs[i].epochs {
			res.epochs[e] = true
		}
	}
	return res
}

// awaitServer polls the server with capped exponential backoff until
// it accepts a connection or the wait budget runs out. Any HTTP
// response — even an error status — proves the listener is up; only
// transport failures (connection refused during the server's boot)
// are retried.
func awaitServer(url string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	backoff := 10 * time.Millisecond
	const backoffCap = 500 * time.Millisecond
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
			resp.Body.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not reachable after %v: %w", url, wait, err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > backoffCap {
			backoff = backoffCap
		}
	}
}

// discoverUsers reads the served model's user count from /v1/stats.
func discoverUsers(url string) (int, error) {
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Users int `json:"users"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	if st.Users <= 0 {
		return 0, fmt.Errorf("server reports no loaded model (users=0)")
	}
	return st.Users, nil
}

// verifyAgainstModel compares sampled live responses against
// Model.Recommend — items, scores and order must match exactly, the
// serving layer's bit-compatibility contract.
func verifyAgainstModel(url, modelPath string, ds *nomad.Dataset, topN, users int, seed uint64) error {
	f, err := os.Open(modelPath)
	if err != nil {
		return err
	}
	md, err := nomad.LoadModel(f)
	f.Close()
	if err != nil {
		return err
	}
	if users > md.Users() {
		users = md.Users()
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	samples := 50
	if samples > users {
		samples = users
	}
	for s := 0; s < samples; s++ {
		user := rng.Intn(users)
		resp, err := http.Get(fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", url, user, topN))
		if err != nil {
			return err
		}
		var body recResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("user %d: %w", user, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("user %d: HTTP %d", user, resp.StatusCode)
		}
		want := md.Recommend(ds, user, topN)
		if len(body.Items) != len(want) {
			return fmt.Errorf("user %d: got %d items, want %d", user, len(body.Items), len(want))
		}
		for i, it := range body.Items {
			if int(it.Item) != want[i].Item || it.Score != want[i].Score {
				return fmt.Errorf("user %d rec %d: got (%d, %v), want (%d, %v)",
					user, i, it.Item, it.Score, want[i].Item, want[i].Score)
			}
		}
	}
	return nil
}

func loadDataset(input, profile string, scale, testFrac float64, seed uint64) (*nomad.Dataset, error) {
	if input == "" && profile == "" {
		return nil, nil
	}
	if input == "" {
		return nomad.Synthesize(profile, scale, seed)
	}
	f, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return nomad.ReadDataset(f, testFrac, seed)
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nomad-loadgen:", err)
	os.Exit(1)
}

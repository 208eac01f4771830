// Package train defines the configuration, stop conditions, result
// shape and trace recording shared by every matrix-completion algorithm
// in this repository, so the benchmark harness can drive NOMAD and all
// baselines through one interface.
package train

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/loss"
	"nomad/internal/metrics"
	"nomad/internal/netsim"
	"nomad/internal/sched"
	"nomad/internal/sparse"
	"nomad/internal/vecmath"
)

// Config carries every tunable of a training run. Zero values are
// replaced by sensible defaults in Normalize.
type Config struct {
	// Model hyper-parameters (paper Table 1).
	K      int     // latent dimension k
	Lambda float64 // regularization λ

	// SGD step-size schedule (paper eq. 11) for NOMAD/FPSGD**/Hogwild.
	Alpha, Beta float64
	// BoldStep is the initial step size of the bold-driver schedule
	// used by DSGD and DSGD++ (§5.1).
	BoldStep float64

	// Parallelism: Workers compute threads on each of Machines
	// machines, connected by the given network profile.
	Machines int
	Workers  int
	Profile  netsim.Profile

	// Backend selects the machine-to-machine transport for distributed
	// runs: "" or "sim" for the modelled in-process network (netsim),
	// "tcp" for real TCP sockets — a loopback mesh inside one process,
	// or a true multi-process cluster when Role is set.
	Backend string
	// Role places this process in a multi-process cluster: "" for
	// single-process runs, "coordinator" (rank 0, listens on Listen and
	// waits for Machines-1 workers) or "worker" (joins the coordinator
	// at Join, listening on Listen — may be ":0" — for peer
	// connections). Multi-process runs use the deterministic lockstep
	// runner, so Role implies Lockstep.
	Role   string
	Listen string
	Join   string
	// Lockstep selects the deterministic round-based distributed
	// runner: machines process their whole token queue, exchange
	// tokens at a synchronization point, and the coordinator decides
	// stop at round boundaries. Bitwise-identical results across
	// backends and process placements — the property the cross-backend
	// parity CI asserts — at the cost of the asynchronous overlap the
	// paper advocates.
	Lockstep bool

	// NOMAD-specific knobs.
	BatchSize   int  // tokens per network message (§3.5, default 100)
	LoadBalance bool // §3.3 dynamic load balancing
	Circulate   int  // local visits per token per machine pass (§3.4, default 1)

	// Straggle artificially slows worker 0 by the given factor (e.g. 4
	// makes it process tokens 4× slower); 0 or 1 disables it. It exists
	// to reproduce the heterogeneous-worker scenario that motivates
	// §3.3's dynamic load balancing.
	Straggle float64

	// Loss is the per-rating loss (§6 generalization). Nil means the
	// square loss of eq. (1). Only NOMAD and Hogwild honour it; the
	// bulk-synchronous baselines implement the paper's square loss.
	Loss loss.Loss

	// BalanceUsers partitions users by rating count instead of by user
	// count (the paper's footnote-1 alternative), which evens worker
	// load on degree-skewed data.
	BalanceUsers bool

	// Stop conditions: the run ends when any of these is reached.
	Epochs     int           // ≈ sweeps over the training set (0 = use MaxUpdates/Deadline)
	MaxUpdates int64         // hard cap on SGD updates (0 = derived from Epochs)
	Deadline   time.Duration // wall-clock limit (0 = none)

	// EvalPoints is how many RMSE samples the convergence trace should
	// hold (sampled evenly over the run; default 16).
	EvalPoints int

	// Resume, when non-nil, continues a previous run from its captured
	// State: the model, per-rating schedule position, RNG streams and
	// (for NOMAD) token ownership are restored, and Updates counts from
	// the state's total — so Epochs/MaxUpdates budgets span the
	// original run plus the resumed one. The state must come from the
	// same algorithm and a dataset of the same shape (State.Validate).
	Resume *State

	// Precision selects the factor-model element type. Float64 (the
	// zero value) is supported everywhere; Float32 halves model memory
	// and bandwidth and is honoured by the NOMAD shared-memory and
	// asynchronous distributed runners and by Hogwild (see DESIGN.md
	// §9). The deterministic lockstep/multi-process runners and the
	// bulk-synchronous baselines reject it.
	Precision factor.Precision

	// Failover lets a multi-machine asynchronous run survive the death
	// of a machine: survivors evict it, regenerate the item tokens it
	// held from its buddy's replicated snapshot, adopt its user rows,
	// and resume the epoch (DESIGN.md §11). Only the asynchronous
	// runners support it; lockstep and multi-process runs reject it.
	Failover bool

	// ElasticSpares provisions this many extra machine slots beyond
	// Machines for mid-run scale-out: spares run their communication
	// threads from the start but own no tokens and attract no traffic
	// until a join activates them (DESIGN.md §11). Implies Failover.
	// Normalize grows it to cover any join events in the Chaos schedule.
	ElasticSpares int

	// Elastic, when non-nil, receives the run's join/drain trigger
	// handlers so the caller can resize the cluster mid-run.
	Elastic *ElasticControl

	// Chaos injects a deterministic fault schedule into the run (kill,
	// partition, delay, drop, join or drain machines at named protocol
	// points) — the failure half of the failover test matrix. Kill,
	// partition, join and drain imply Failover.
	Chaos *cluster.ChaosSpec

	// HeartbeatInterval and HeartbeatTimeout tune the tcp backend's
	// liveness probes and silent-peer detection (defaults 500ms / 10s;
	// zero keeps the default, negative timeout disables detection).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration

	Seed uint64
}

// Normalize fills defaults and derives MaxUpdates from Epochs.
// It returns an error for configurations that cannot run.
func (c Config) Normalize(ds *dataset.Dataset) (Config, error) {
	if ds == nil || ds.Train == nil || ds.Train.NNZ() == 0 {
		return c, fmt.Errorf("train: empty dataset")
	}
	if c.K <= 0 {
		c.K = 16
	}
	if c.Lambda < 0 {
		return c, fmt.Errorf("train: negative lambda %v", c.Lambda)
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.01
	}
	if c.Beta < 0 {
		return c, fmt.Errorf("train: negative beta %v", c.Beta)
	}
	if c.BoldStep <= 0 {
		c.BoldStep = c.Alpha
	}
	if c.Machines <= 0 {
		c.Machines = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Profile.Name == "" {
		c.Profile = netsim.Instant()
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.Circulate <= 0 {
		c.Circulate = 1
	}
	if c.Epochs <= 0 && c.MaxUpdates == 0 && c.Deadline == 0 {
		c.Epochs = 10
	}
	if c.MaxUpdates == 0 {
		if c.Epochs > 0 {
			c.MaxUpdates = int64(c.Epochs) * int64(ds.Train.NNZ())
		} else {
			// Deadline-only run: the wall clock is the only stop.
			c.MaxUpdates = math.MaxInt64
		}
	}
	if c.EvalPoints <= 0 {
		c.EvalPoints = 16
	}
	if c.Loss == nil {
		c.Loss = loss.Square{}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	switch c.Backend {
	case "", "sim", "tcp":
	default:
		return c, fmt.Errorf("train: unknown backend %q (sim, tcp)", c.Backend)
	}
	switch c.Role {
	case "":
	case "coordinator":
		if c.Listen == "" {
			return c, fmt.Errorf("train: coordinator role needs a listen address")
		}
		c.Backend = "tcp"
		c.Lockstep = true
	case "worker":
		if c.Join == "" {
			return c, fmt.Errorf("train: worker role needs the coordinator address to join")
		}
		c.Backend = "tcp"
		c.Lockstep = true
	default:
		return c, fmt.Errorf("train: unknown role %q (coordinator, worker)", c.Role)
	}
	if c.Precision > factor.Float32 {
		return c, fmt.Errorf("train: unknown precision %d", c.Precision)
	}
	if c.Precision != factor.Float64 && (c.Lockstep || c.Role != "") {
		// The lockstep runner's contract is bitwise-identical results
		// across backends and process placements; its wire format and
		// parity tests are float64. Keep float32 out rather than
		// weakening the guarantee.
		return c, fmt.Errorf("train: %v precision is not supported by the lockstep/multi-process runner", c.Precision)
	}
	if st := c.Resume; st != nil && st.Model != nil && st.Model.Precision() != c.Precision {
		return c, fmt.Errorf("train: resume state is %v but the run is configured for %v",
			st.Model.Precision(), c.Precision)
	}
	if c.Role == "" && c.Machines == 1 {
		// A single machine has no cluster: silently falling back to the
		// shared-memory path would hand the caller a nondeterministic
		// async run after they explicitly asked for the reproducible
		// (lockstep) or real-socket (tcp) distributed mode.
		if c.Lockstep {
			return c, fmt.Errorf("train: lockstep needs at least 2 machines, got %d", c.Machines)
		}
		if c.Backend == "tcp" {
			return c, fmt.Errorf("train: the tcp backend needs at least 2 machines, got %d", c.Machines)
		}
	}
	if c.ElasticSpares < 0 {
		return c, fmt.Errorf("train: negative elastic spares %d", c.ElasticSpares)
	}
	if c.Chaos != nil {
		joins := 0
		for _, ev := range c.Chaos.Events() {
			switch ev.Op {
			case cluster.OpKill, cluster.OpPartition:
				// A killed (or long-partitioned) machine takes tokens
				// with it; only a failover run can restore conservation
				// and finish.
				c.Failover = true
			case cluster.OpJoin:
				c.Failover = true
				joins++
				if ev.Rank >= 0 && ev.Rank < c.Machines {
					return c, fmt.Errorf("train: chaos join rank %d must name a provisioned spare (machines %d)", ev.Rank, c.Machines)
				}
			case cluster.OpDrain:
				c.Failover = true
			}
		}
		if joins > c.ElasticSpares {
			// Every scheduled join needs a provisioned slot to activate.
			c.ElasticSpares = joins
		}
	}
	if c.ElasticSpares > 0 {
		// Spares only make sense on a runtime that can reconfigure
		// ownership mid-run.
		c.Failover = true
	}
	if c.Failover {
		if c.Lockstep || c.Role != "" {
			return c, fmt.Errorf("train: failover is only supported by the asynchronous single-process runners (not lockstep or multi-process)")
		}
		if c.Machines < 3 {
			// Two survivors minimum: the arbiter and the buddy must
			// outlive the victim, and a lone survivor has no peer to
			// circulate tokens with.
			return c, fmt.Errorf("train: failover needs at least 3 machines, got %d", c.Machines)
		}
	}
	if c.Chaos != nil {
		for _, ev := range c.Chaos.Events() {
			// Rank -1 is the "pick for me" shorthand, resolved at fire
			// time against the live membership.
			if ev.Rank < -1 || ev.Rank >= c.TotalMachines() {
				return c, fmt.Errorf("train: chaos victim rank %d out of range for %d machines", ev.Rank, c.TotalMachines())
			}
		}
	}
	return c, nil
}

// stepTableSize tabulates this many step sizes (32 KiB of float64s).
// t counts updates per individual rating — roughly the epoch count —
// so 4096 entries cover any realistic run; later t falls back to the
// exact formula.
const stepTableSize = 4096

// Schedule returns the per-rating SGD step-size schedule of eq. (11),
// precomputed into a sched.Table so the hot path replaces the
// per-update Sqrt with a slice load. With NOMAD_REFERENCE_KERNELS set
// the raw Power schedule is returned instead, alongside the reference
// vecmath kernels (the in-tree A/B switch for benchmarking).
func (c Config) Schedule() sched.Schedule {
	p := sched.Power{Alpha: c.Alpha, Beta: c.Beta}
	if vecmath.ReferenceOnly() {
		return p
	}
	return sched.NewTable(p, stepTableSize)
}

// TotalWorkers returns machines × workers-per-machine.
func (c Config) TotalWorkers() int { return c.Machines * c.Workers }

// TotalMachines returns the provisioned machine-slot count: the initial
// members plus any elastic spares held latent for mid-run joins.
func (c Config) TotalMachines() int { return c.Machines + c.ElasticSpares }

// RequireFloat64 is the guard every solver without a float32 hot path
// places after Normalize: it rejects any non-default precision with an
// error naming the algorithm.
func (c Config) RequireFloat64(algo string) error {
	if c.Precision != factor.Float64 {
		return fmt.Errorf("train: %s does not support %v precision", algo, c.Precision)
	}
	return nil
}

// Result is the outcome of a training run.
type Result struct {
	Algorithm string
	Model     *factor.Model
	// TestRMSE is Model's RMSE on the test split: the value of the run's
	// final trace sample, taken on the finished model.
	TestRMSE float64
	Trace    metrics.Trace
	Updates  int64
	Elapsed  time.Duration

	// Network accounting (zero for shared-memory runs).
	BytesSent    int64
	MessagesSent int64

	// Final is the resumable snapshot captured when the run stopped —
	// after completion or cancellation alike. Feed it back through
	// Config.Resume (or serialize it) to continue the run.
	Final *State
}

// Throughput summarizes the run's update rate per worker.
func (r *Result) Throughput(cfg Config) metrics.Throughput {
	return metrics.Throughput{
		Updates: float64(r.Updates),
		Seconds: r.Elapsed.Seconds(),
		Workers: cfg.TotalWorkers(),
	}
}

// StorageRanker is implemented by solvers whose stored model rank
// differs from the configured latent dimension (biassgd stores k+2:
// the factors plus a bias and a pinned-one coordinate). Callers
// validating a resume state against a configured k should consult it;
// solvers that do not implement it store exactly k.
type StorageRanker interface {
	StorageRank(k int) int
}

// StorageRankOf returns the rank algo physically stores for a
// configured latent dimension k.
func StorageRankOf(algo Algorithm, k int) int {
	if sr, ok := algo.(StorageRanker); ok {
		return sr.StorageRank(k)
	}
	return k
}

// Algorithm is a trainable matrix-completion solver.
type Algorithm interface {
	// Name returns the solver's short identifier (e.g. "nomad", "dsgd").
	Name() string
	// Train fits a model to the dataset under the given configuration,
	// reporting progress through hooks (which may be nil). It honours
	// ctx end-to-end: when ctx is cancelled or its deadline passes, the
	// solver stops all workers promptly and returns the partial Result
	// — including its resumable Final state — alongside ctx.Err().
	Train(ctx context.Context, ds *dataset.Dataset, cfg Config, hooks *Hooks) (*Result, error)
}

// Paper Table 1 hyper-parameters, keyed by dataset profile.
var table1 = map[string]Config{
	"netflix-like":  {K: 100, Lambda: 0.05, Alpha: 0.012, Beta: 0.05},
	"yahoo-like":    {K: 100, Lambda: 1.00, Alpha: 0.00075, Beta: 0.01},
	"hugewiki-like": {K: 100, Lambda: 0.01, Alpha: 0.001, Beta: 0},
}

// Table1 returns the paper's Table 1 hyper-parameters for a dataset
// profile name, and whether the profile is known.
func Table1(profile string) (Config, bool) {
	c, ok := table1[profile]
	return c, ok
}

// SynthDefaults returns hyper-parameters tuned for this repository's
// scaled synthetic datasets: the paper's λ ratios are kept, but k is
// reduced to match the synthetic ground-truth rank and the step size is
// raised to suit unit-variance ratings at small scale.
func SynthDefaults(profile string) Config {
	c := Config{K: 16, Alpha: 0.05, Beta: 0.02}
	switch profile {
	case "netflix-like":
		c.Lambda = 0.05
	case "yahoo-like":
		c.Lambda = 0.1
	case "hugewiki-like":
		c.Lambda = 0.01
	default:
		c.Lambda = 0.05
	}
	return c
}

// Counter is a sharded atomic update counter. Workers add locally with
// low contention; readers sum the shards. It is the source of the
// "number of updates" axis in the paper's figures.
type Counter struct {
	shards []paddedInt64
}

type paddedInt64 struct {
	v atomic.Int64
	_ [7]int64 // avoid false sharing between adjacent shards
}

// NewCounter returns a counter with one shard per worker.
func NewCounter(workers int) *Counter {
	if workers < 1 {
		workers = 1
	}
	return &Counter{shards: make([]paddedInt64, workers)}
}

// NewCounterFor returns a per-worker counter seeded with the resumed
// run's update total (if any), so stop budgets and the trace's update
// axis continue across checkpoint/resume segments.
func NewCounterFor(cfg Config, workers int) *Counter {
	c := NewCounter(workers)
	if cfg.Resume != nil {
		c.shards[0].v.Store(cfg.Resume.Updates)
	}
	return c
}

// StartUpdates returns the update count a run begins at: zero for a
// fresh run, the captured total for a resumed one.
func (c Config) StartUpdates() int64 {
	if c.Resume != nil {
		return c.Resume.Updates
	}
	return 0
}

// EpochsDone converts an update count into completed budget-derived
// epochs (MaxUpdates divided into Epochs sweeps), for numbering
// emitted EpochEvents on resumed runs. It returns 0 when the budget
// does not define an epoch size — Epochs unset, a deadline-only run,
// or an explicit MaxUpdates smaller than the epoch count.
func (c Config) EpochsDone(updates int64) int {
	if c.Epochs <= 0 || c.MaxUpdates >= math.MaxInt64 {
		return 0
	}
	size := c.MaxUpdates / int64(c.Epochs)
	if size <= 0 {
		return 0
	}
	return int(updates / size)
}

// Add adds delta to the given worker's shard.
func (c *Counter) Add(worker int, delta int64) { c.shards[worker].v.Add(delta) }

// Total returns the sum over shards.
func (c *Counter) Total() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// Recorder samples the convergence trace of a run: (wall time, update
// count, test RMSE) triples — the axes of every figure in the paper.
//
// For asynchronous algorithms the model is evaluated while workers
// mutate it; those reads are deliberately unlocked. They are
// statistical progress samples, exactly like the paper's monitoring,
// and the final sample is always taken after every worker has stopped,
// so reported end-of-run RMSE values are race-free.
type Recorder struct {
	start time.Time
	test  []sparse.Entry
	trace metrics.Trace
	hooks *Hooks // trace points double as streamed TraceEvents

	// Evaluation thresholds in update counts.
	next  int64
	step  int64
	total int64

	// Time-based sampling for deadline-driven runs.
	every      time.Duration
	lastSample time.Time
}

// NewRecorder returns a recorder that will take about points samples
// over a run of totalUpdates updates, evaluating on the test set. It
// records the model's initial RMSE as the trace's first point, so every
// trace starts at (0s, 0 updates, RMSE of the random init) the way the
// paper's convergence figures do.
func NewRecorder(test []sparse.Entry, totalUpdates int64, points int, md *factor.Model) *Recorder {
	if points < 1 {
		points = 1
	}
	step := totalUpdates / int64(points)
	if step < 1 {
		step = 1
	}
	r := &Recorder{start: time.Now(), test: test, next: step, step: step, total: totalUpdates}
	if md != nil {
		r.trace.Add(0, 0, metrics.RMSE(md, test))
	}
	return r
}

// NewRecorderFor builds a Recorder from a normalized Config: samples
// are spaced over the update budget, or over the wall-clock deadline
// for deadline-driven runs (where the update budget is unbounded).
// Trace points are mirrored to hooks as TraceEvents. For resumed runs
// the first sample is taken at the restored update count and the
// thresholds continue from there; the wall clock restarts at zero.
func NewRecorderFor(cfg Config, test []sparse.Entry, md *factor.Model, hooks *Hooks) *Recorder {
	r := NewRecorder(test, cfg.MaxUpdates, cfg.EvalPoints, nil)
	r.hooks = hooks
	if start := cfg.StartUpdates(); start > 0 {
		for r.next <= start {
			r.next += r.step
		}
		if md != nil {
			r.record(md, start)
		}
	} else if md != nil {
		r.record(md, 0)
	}
	if cfg.Deadline > 0 {
		r.every = cfg.Deadline / time.Duration(cfg.EvalPoints)
		r.lastSample = r.start
	}
	return r
}

// Due reports whether the run has crossed the next sampling threshold,
// in updates or (for deadline-driven runs) in elapsed time.
// Synchronous algorithms call this between epochs; NOMAD's monitor
// goroutine polls it.
func (r *Recorder) Due(updates int64) bool {
	if updates >= r.next {
		return true
	}
	return r.every > 0 && time.Since(r.lastSample) >= r.every
}

// Sample evaluates the model and appends a trace point, advancing the
// next sampling threshold past the given update count. It returns the
// point's RMSE, which a runner's final sample carries as
// Result.TestRMSE.
func (r *Recorder) Sample(md *factor.Model, updates int64) float64 {
	rmse := r.record(md, updates)
	for r.next <= updates {
		r.next += r.step
	}
	r.lastSample = time.Now()
	return rmse
}

// record evaluates the model, appends the trace point and mirrors it
// to the hooks as a TraceEvent.
func (r *Recorder) record(md *factor.Model, updates int64) float64 {
	e := TraceEvent{
		Seconds: time.Since(r.start).Seconds(),
		Updates: updates,
		RMSE:    metrics.RMSE(md, r.test),
	}
	r.trace.Add(e.Seconds, e.Updates, e.RMSE)
	r.hooks.EmitTrace(e)
	return e.RMSE
}

// Elapsed returns the wall-clock time since the recorder was created.
func (r *Recorder) Elapsed() time.Duration { return time.Since(r.start) }

// Trace returns the recorded trace.
func (r *Recorder) Trace() metrics.Trace { return r.trace }

// Monitor polls until the run's stop condition (update cap, wall
// deadline, or context cancellation) is met, sampling the convergence
// trace and emitting epoch-boundary events on the way, then raises the
// stop flag and returns — ctx.Err() if the context ended the run, nil
// otherwise. Asynchronous algorithms run their workers concurrently
// with this loop; the model reads used for trace samples are
// deliberately unlocked progress snapshots.
func Monitor(ctx context.Context, stop *atomic.Bool, counter *Counter, cfg Config, rec *Recorder, md *factor.Model, hooks *Hooks) error {
	deadline := time.Time{}
	if cfg.Deadline > 0 {
		deadline = time.Now().Add(cfg.Deadline)
	}
	// Epoch boundaries for event emission: the update budget divided
	// into cfg.Epochs sweeps (resumed runs continue mid-sequence).
	var epochSize int64
	if cfg.Epochs > 0 && cfg.MaxUpdates < math.MaxInt64 {
		epochSize = cfg.MaxUpdates / int64(cfg.Epochs)
	}
	epoch := int64(0)
	if epochSize > 0 {
		epoch = cfg.StartUpdates() / epochSize
	}
	done := ctx.Done()
	for {
		select {
		case <-done:
			stop.Store(true)
			return ctx.Err()
		default:
		}
		total := counter.Total()
		for epochSize > 0 && (epoch+1)*epochSize <= total {
			epoch++
			hooks.EmitEpoch(EpochEvent{Epoch: int(epoch), Updates: total})
		}
		if total >= cfg.MaxUpdates || (!deadline.IsZero() && time.Now().After(deadline)) {
			stop.Store(true)
			return nil
		}
		if rec.Due(total) {
			rec.Sample(md, total)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// StopCheck tells synchronous (epoch-driven) algorithms whether to end
// the run after the current epoch, given the work done so far. Context
// cancellation is a stop condition like any other; the caller
// distinguishes it by checking ctx.Err() once the loop exits.
func StopCheck(ctx context.Context, cfg Config, start time.Time, updates int64) bool {
	if ctx.Err() != nil {
		return true
	}
	if updates >= cfg.MaxUpdates {
		return true
	}
	return cfg.Deadline > 0 && time.Since(start) >= cfg.Deadline
}

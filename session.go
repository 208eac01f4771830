package nomad

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/factor"
	"nomad/internal/loss"
	"nomad/internal/netsim"
	"nomad/internal/train"
)

// A Session is a first-class training run: cancellable, observable,
// checkpointable and resumable. It is built once from functional
// options and then driven:
//
//	s, err := nomad.NewSession(ds,
//		nomad.WithAlgorithm("nomad"),
//		nomad.WithRank(16),
//		nomad.WithLambda(0.05),
//		nomad.WithWorkers(4),
//		nomad.WithStopConditions(nomad.MaxEpochs(20)),
//	)
//	events, cancel := s.Subscribe(64)
//	go func() { for e := range events { ... } }()
//	res, err := s.Run(ctx) // honours ctx cancellation end-to-end
//	defer cancel()
//
// Run may be interrupted by cancelling ctx: every solver stops
// promptly and Run returns the partial result alongside ctx.Err().
// The session then holds the run's full training state — factors,
// step-schedule position, RNG streams, token ownership — which
// Checkpoint serializes and Resume restores, so a killed run restarts
// where it left off (bit-compatibly for deterministic configurations;
// see TestCheckpointResume*). Calling Run again on a stopped session
// likewise continues in-memory from that state until the configured
// stop conditions are met.
//
// A Session is safe for concurrent use, but only one Run may be in
// flight at a time.
type Session struct {
	ds        *Dataset
	algorithm string
	algo      train.Algorithm
	base      train.Config
	elastic   *train.ElasticControl

	mu      sync.Mutex
	running bool
	state   *train.State
	result  *Result
	subs    map[int]chan Event
	nextSub int
}

// ErrRunning is returned when an operation requires a stopped session
// (Checkpoint, Resume, a second Run) while a Run is in flight.
var ErrRunning = errors.New("nomad: session is running")

// ErrNoState is returned by Checkpoint before any Run has produced
// resumable state.
var ErrNoState = errors.New("nomad: session has no training state yet (Run first)")

// settings is the resolved form of the functional options. Pointer
// fields distinguish "never set" from "explicitly zero" — the
// ambiguity that made the flat Config struct rewrite Lambda: 0 into
// 0.05 behind the caller's back.
type settings struct {
	algorithm    string
	rank         *int
	lambda       *float64
	alpha, beta  *float64
	workers      *int
	machines     *int
	network      string
	role         string
	listen, join string
	lockstep     bool
	lossName     string
	precision    *Precision
	loadBalance  bool
	balanceUsers bool
	batchSize    *int
	straggle     *float64
	seed         *uint64
	evalPoints   *int
	epochs       *int
	maxDuration  *time.Duration
	maxUpdates   *int64
	failover     bool
	elastic      *int
	chaos        string
	hbInterval   *time.Duration
	hbTimeout    *time.Duration
}

// Option configures a Session at construction. Options are applied in
// order; later options override earlier ones.
type Option func(*settings) error

// WithAlgorithm selects the solver by name — one of Algorithms().
// Default "nomad".
func WithAlgorithm(name string) Option {
	return func(st *settings) error {
		if _, ok := registry()[name]; !ok {
			return fmt.Errorf("nomad: unknown algorithm %q (have %v)", name, Algorithms())
		}
		st.algorithm = name
		return nil
	}
}

// WithRank sets the latent dimension k (paper Table 1). Default 16.
func WithRank(k int) Option {
	return func(st *settings) error {
		if k <= 0 {
			return fmt.Errorf("nomad: rank must be positive, got %d", k)
		}
		st.rank = &k
		return nil
	}
}

// WithLambda sets the regularization λ; WithLambda(0) means no
// regularization. Default 0.05.
func WithLambda(l float64) Option {
	return func(st *settings) error {
		if l < 0 {
			return fmt.Errorf("nomad: lambda must be non-negative, got %v", l)
		}
		st.lambda = &l
		return nil
	}
}

// WithSchedule sets the SGD step-size schedule s_t = α/(1+β·t^1.5) of
// paper eq. (11). Defaults α=0.05, β=0.02 (tuned for the synthetic
// datasets). β=0 — a constant step — is expressible.
func WithSchedule(alpha, beta float64) Option {
	return func(st *settings) error {
		if alpha <= 0 {
			return fmt.Errorf("nomad: schedule alpha must be positive, got %v", alpha)
		}
		if beta < 0 {
			return fmt.Errorf("nomad: schedule beta must be non-negative, got %v", beta)
		}
		st.alpha, st.beta = &alpha, &beta
		return nil
	}
}

// WithWorkers sets the worker threads per machine. Default 1.
func WithWorkers(n int) Option {
	return func(st *settings) error {
		if n <= 0 {
			return fmt.Errorf("nomad: workers must be positive, got %d", n)
		}
		st.workers = &n
		return nil
	}
}

// WithCluster runs on `machines` machines. network selects the
// backend: "instant", "hpc" or "commodity" are profiles of the
// in-process simulated network; "tcp" is the real-socket backend
// (netlink wire protocol, rendezvous, heartbeat failure detection).
// Default is a single machine (no network).
//
// The optional address list places the run in a real multi-process
// cluster (network "tcp" only):
//
//	WithCluster(4, "tcp")                          // loopback mesh inside this process
//	WithCluster(4, "tcp", ":7070")                 // coordinator: listen, wait for 3 workers
//	WithCluster(0, "tcp", ":0", "host0:7070")      // worker: listen addr, coordinator to join
//
// Multi-process runs use the deterministic lockstep rounds (see
// WithLockstep); every process must be invoked with the same dataset,
// seed and hyper-parameters, which the rendezvous verifies with a
// config digest. A worker may pass machines 0 — it learns the cluster
// size from the coordinator's welcome.
func WithCluster(machines int, network string, addrs ...string) Option {
	return func(st *settings) error {
		switch network {
		case "", "instant", "hpc", "commodity":
			if len(addrs) > 0 {
				return fmt.Errorf("nomad: address list needs the \"tcp\" network, got %q", network)
			}
		case "tcp":
		default:
			return fmt.Errorf("nomad: unknown network %q (instant, hpc, commodity, tcp)", network)
		}
		switch len(addrs) {
		case 0:
			if machines <= 0 {
				return fmt.Errorf("nomad: machines must be positive, got %d", machines)
			}
			st.role, st.listen, st.join = "", "", ""
		case 1:
			if machines < 2 {
				return fmt.Errorf("nomad: a coordinator needs at least 2 machines, got %d", machines)
			}
			st.role, st.listen, st.join = "coordinator", addrs[0], ""
		case 2:
			if machines < 0 {
				return fmt.Errorf("nomad: machines must be non-negative, got %d", machines)
			}
			st.role, st.listen, st.join = "worker", addrs[0], addrs[1]
		default:
			return fmt.Errorf("nomad: at most two addresses (listen[, join]), got %d", len(addrs))
		}
		st.machines = &machines
		st.network = network
		return nil
	}
}

// WithLockstep selects the deterministic round-based distributed
// runner: machines exchange tokens at synchronized round boundaries
// and the result is bitwise-identical for a given (dataset, seed,
// machines, workers) whatever the backend or process layout — the
// property the cross-backend CI parity check asserts. Multi-process
// clusters (WithCluster with addresses) always run lockstep. The cost
// is the asynchronous overlap the paper advocates, so this is a
// verification mode, not the fast path.
func WithLockstep() Option {
	return func(st *settings) error { st.lockstep = true; return nil }
}

// Precision selects the element type of the factor model; see
// WithPrecision.
type Precision int

const (
	// Float64 is the default precision, supported by every solver.
	Float64 Precision = iota
	// Float32 stores the factors in single precision: half the model
	// memory and memory bandwidth, at a small accuracy cost (test RMSE
	// typically within ~1e-3 of the float64 run on the paper's
	// synthetic profiles; see DESIGN.md §9 for the exact contract).
	// Supported by "nomad" (shared-memory and asynchronous distributed
	// runs) and "hogwild".
	Float32
)

func (p Precision) String() string {
	if p == Float32 {
		return "float32"
	}
	return "float64"
}

// WithPrecision selects the factor-model element type. Default
// Float64. Float32 is rejected for solvers and modes without a
// single-precision hot path (the bulk-synchronous baselines, lockstep
// and multi-process clusters).
func WithPrecision(p Precision) Option {
	return func(st *settings) error {
		if p != Float64 && p != Float32 {
			return fmt.Errorf("nomad: unknown precision %d", p)
		}
		st.precision = &p
		return nil
	}
}

// WithLoss selects the per-rating loss: "square" (default, paper
// eq. 1), "absolute", or "logistic" for ±1 binary matrices (the §6
// generalization). Honoured by "nomad" and "hogwild".
func WithLoss(name string) Option {
	return func(st *settings) error {
		if _, err := loss.ByName(name); err != nil {
			return fmt.Errorf("nomad: %w", err)
		}
		st.lossName = name
		return nil
	}
}

// WithLoadBalance enables NOMAD's §3.3 dynamic load balancing.
func WithLoadBalance() Option {
	return func(st *settings) error { st.loadBalance = true; return nil }
}

// WithBalancedUsers partitions users by rating volume instead of by
// count (the paper's footnote-1 alternative).
func WithBalancedUsers() Option {
	return func(st *settings) error { st.balanceUsers = true; return nil }
}

// WithBatchSize sets the tokens-per-message accumulation of §3.5.
// Default 100.
func WithBatchSize(n int) Option {
	return func(st *settings) error {
		if n <= 0 {
			return fmt.Errorf("nomad: batch size must be positive, got %d", n)
		}
		st.batchSize = &n
		return nil
	}
}

// WithStraggler slows worker 0 by the given factor (>1) to exercise
// heterogeneous-cluster behaviour (§3.3 ablation).
func WithStraggler(factor float64) Option {
	return func(st *settings) error {
		if factor < 1 {
			return fmt.Errorf("nomad: straggle factor must be ≥ 1, got %v", factor)
		}
		st.straggle = &factor
		return nil
	}
}

// WithElastic provisions spares extra machine slots for mid-run
// scale-out: the cluster's links and partition are built for
// Machines+spares slots, but the spares stay latent — they run their
// communication threads, own no tokens and attract no traffic — until
// a join activates one (Session.Resize().Join, a chaos "join" event,
// or nomad-train's join trigger). Members can also leave gracefully
// mid-run (Resize().Drain), streaming their tokens and state to a ring
// buddy with zero lost updates. Every membership change conserves all
// n item tokens exactly, which the run's teardown asserts. Implies
// WithFailover, with the same constraints: at least 3 machines and the
// asynchronous distributed runners (not lockstep or multi-process
// roles). spares may be 0 for a run that only ever shrinks.
func WithElastic(spares int) Option {
	return func(st *settings) error {
		if spares < 0 {
			return fmt.Errorf("nomad: elastic spares must be non-negative, got %d", spares)
		}
		st.elastic = &spares
		return nil
	}
}

// WithFailover lets a multi-machine asynchronous run survive the death
// of one worker machine: survivors detect the failure, pause token
// circulation, re-assign the dead machine's item tokens and user rows
// to its ring buddy (re-materialized from the buddy's replica of the
// dead machine's state), and resume mid-epoch without restarting. The
// run emits a PeerDownEvent at detection and a PeerRecoveredEvent once
// circulation has resumed. Requires at least 3 machines and the
// asynchronous distributed runners (not lockstep or multi-process
// roles).
func WithFailover() Option {
	return func(st *settings) error { st.failover = true; return nil }
}

// WithHeartbeat tunes the tcp backend's failure detector: interval
// between heartbeat frames and the silent-peer timeout after which a
// peer is declared dead. Zero keeps a parameter's default (1s / 5s).
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(st *settings) error {
		if interval < 0 || timeout < 0 {
			return fmt.Errorf("nomad: heartbeat interval and timeout must be non-negative")
		}
		if interval > 0 && timeout > 0 && timeout <= interval {
			return fmt.Errorf("nomad: heartbeat timeout %v must exceed the interval %v", timeout, interval)
		}
		st.hbInterval, st.hbTimeout = &interval, &timeout
		return nil
	}
}

// WithChaos injects one deterministic, seeded fault into the run for
// resilience testing — the same injection points the failover test
// matrix uses. The spec reads op:rank=N,at=point[,after=N,p=F,
// window=D,seed=N], e.g. "kill:rank=2,at=mid-epoch". Kill and
// partition faults imply WithFailover.
func WithChaos(spec string) Option {
	return func(st *settings) error {
		if _, err := cluster.ParseChaos(spec); err != nil {
			return fmt.Errorf("nomad: %w", err)
		}
		st.chaos = spec
		return nil
	}
}

// WithSeed fixes the run's random seed. Default 1.
func WithSeed(seed uint64) Option {
	return func(st *settings) error { st.seed = &seed; return nil }
}

// WithEvalPoints sets how many RMSE samples the convergence trace
// holds (default 16).
func WithEvalPoints(n int) Option {
	return func(st *settings) error {
		if n <= 0 {
			return fmt.Errorf("nomad: eval points must be positive, got %d", n)
		}
		st.evalPoints = &n
		return nil
	}
}

// StopCondition bounds a run; see WithStopConditions.
type StopCondition func(*settings)

// MaxEpochs stops after about n sweeps over the training ratings.
func MaxEpochs(n int) StopCondition {
	return func(st *settings) { st.epochs = &n }
}

// MaxDuration stops after the given wall-clock budget.
func MaxDuration(d time.Duration) StopCondition {
	return func(st *settings) { st.maxDuration = &d }
}

// MaxUpdates stops after the given number of SGD updates (cumulative
// across resumed segments).
func MaxUpdates(n int64) StopCondition {
	return func(st *settings) { st.maxUpdates = &n }
}

// WithStopConditions bounds the run: it ends when any of the given
// conditions is met. Default: MaxEpochs(10).
func WithStopConditions(conds ...StopCondition) Option {
	return func(st *settings) error {
		if len(conds) == 0 {
			return fmt.Errorf("nomad: WithStopConditions needs at least one condition")
		}
		st.epochs, st.maxDuration, st.maxUpdates = nil, nil, nil
		for _, c := range conds {
			c(st)
		}
		return nil
	}
}

// NewSession validates the dataset and options and returns a Session
// ready to Run. All configuration errors surface here, not mid-run.
func NewSession(ds *Dataset, opts ...Option) (*Session, error) {
	if ds == nil || ds.inner == nil {
		return nil, fmt.Errorf("nomad: nil dataset")
	}
	if ds.inner.Train == nil || ds.inner.Train.NNZ() == 0 {
		return nil, fmt.Errorf("nomad: empty dataset (no training ratings)")
	}
	st := settings{algorithm: "nomad"}
	for _, opt := range opts {
		if err := opt(&st); err != nil {
			return nil, err
		}
	}
	if st.algorithm != "nomad" && (st.network == "tcp" || st.role != "" || st.lockstep) {
		// Only the nomad solver implements the real-socket backend and
		// the lockstep/multi-process runners; accepting the options for
		// the baselines would silently train independent local runs.
		return nil, fmt.Errorf("nomad: the tcp backend, cluster roles and lockstep are only implemented by the %q solver (got %q)", "nomad", st.algorithm)
	}
	if st.elastic != nil && (st.algorithm != "nomad" || st.lockstep || st.role != "") {
		return nil, fmt.Errorf("nomad: elastic membership is only implemented by the %q solver's asynchronous runners (not lockstep or multi-process roles)", "nomad")
	}
	if st.precision != nil && *st.precision == Float32 {
		if st.algorithm != "nomad" && st.algorithm != "hogwild" {
			return nil, fmt.Errorf("nomad: float32 precision is only implemented by the SGD solvers %q and %q (got %q)", "nomad", "hogwild", st.algorithm)
		}
		if st.lockstep || st.role != "" {
			return nil, fmt.Errorf("nomad: float32 precision is not supported by the lockstep/multi-process runners")
		}
	}
	cfg, err := st.trainConfig()
	if err != nil {
		return nil, err
	}
	// Every session owns a membership-control endpoint; the asynchronous
	// runners bind its handlers while an elastic run is live, so Resize
	// triggers fail with a typed error outside one instead of blocking.
	ec := &train.ElasticControl{}
	cfg.Elastic = ec
	return &Session{
		ds:        ds,
		algorithm: st.algorithm,
		algo:      registry()[st.algorithm],
		base:      cfg,
		elastic:   ec,
		subs:      make(map[int]chan Event),
	}, nil
}

// trainConfig resolves the settings into the internal configuration,
// applying facade-level defaults for anything unset.
func (st *settings) trainConfig() (train.Config, error) {
	cfg := train.Config{
		K:      16,
		Lambda: 0.05,
		Alpha:  0.05,
		Beta:   0.02,
	}
	if st.rank != nil {
		cfg.K = *st.rank
	}
	if st.lambda != nil {
		cfg.Lambda = *st.lambda
	}
	if st.alpha != nil {
		cfg.Alpha, cfg.Beta = *st.alpha, *st.beta
	}
	if st.workers != nil {
		cfg.Workers = *st.workers
	}
	if st.machines != nil {
		cfg.Machines = *st.machines
	}
	switch st.network {
	case "", "instant":
		cfg.Profile = netsim.Instant()
	case "hpc":
		cfg.Profile = netsim.HPC()
	case "commodity":
		cfg.Profile = netsim.Commodity()
	case "tcp":
		cfg.Profile = netsim.Instant() // unused: real sockets carry the traffic
		cfg.Backend = "tcp"
	}
	cfg.Role = st.role
	cfg.Listen = st.listen
	cfg.Join = st.join
	cfg.Lockstep = st.lockstep || st.role != ""
	lossFn, err := loss.ByName(st.lossName)
	if err != nil {
		return cfg, fmt.Errorf("nomad: %w", err)
	}
	cfg.Loss = lossFn
	if st.precision != nil && *st.precision == Float32 {
		cfg.Precision = factor.Float32
	}
	cfg.LoadBalance = st.loadBalance
	cfg.BalanceUsers = st.balanceUsers
	if st.batchSize != nil {
		cfg.BatchSize = *st.batchSize
	}
	if st.straggle != nil {
		cfg.Straggle = *st.straggle
	}
	if st.seed != nil {
		cfg.Seed = *st.seed
	}
	if st.evalPoints != nil {
		cfg.EvalPoints = *st.evalPoints
	}
	if st.epochs != nil {
		cfg.Epochs = *st.epochs
	}
	if st.maxDuration != nil {
		cfg.Deadline = *st.maxDuration
	}
	if st.maxUpdates != nil {
		cfg.MaxUpdates = *st.maxUpdates
	}
	cfg.Failover = st.failover
	if st.elastic != nil {
		cfg.ElasticSpares = *st.elastic
		cfg.Failover = true
	}
	if st.chaos != "" {
		spec, err := cluster.ParseChaos(st.chaos)
		if err != nil {
			return cfg, fmt.Errorf("nomad: %w", err)
		}
		cfg.Chaos = spec
	}
	if st.hbInterval != nil {
		cfg.HeartbeatInterval = *st.hbInterval
	}
	if st.hbTimeout != nil {
		cfg.HeartbeatTimeout = *st.hbTimeout
	}
	return cfg, nil
}

// Run trains until a stop condition is met or ctx ends the run. It
// returns the (possibly partial) result; when ctx was cancelled or
// expired, the error is ctx.Err() and the session retains the partial
// state, so a later Run, or Checkpoint + Resume in a new process,
// continues the run. Only one Run may be in flight per session.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return nil, ErrRunning
	}
	s.running = true
	cfg := s.base
	cfg.Resume = s.state
	s.mu.Unlock()

	res, err := s.algo.Train(ctx, s.ds.inner, cfg, s.hooks())
	err = publicError(err)

	s.mu.Lock()
	s.running = false
	if res != nil {
		s.state = res.Final
		s.result = newResult(res)
	}
	out := s.result
	s.mu.Unlock()

	if err != nil {
		if res == nil {
			return nil, err
		}
		return out, err
	}
	return out, nil
}

// Result returns the most recent Run's result, or nil before any run.
func (s *Session) Result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.result
}

// Resize is the live membership-control handle of an elastic session
// (WithElastic): it asks the in-flight Run to grow or shrink the
// cluster. Obtained from Session.Resize; safe for concurrent use.
type Resize struct{ ec *train.ElasticControl }

// Join activates a provisioned spare machine mid-run (rank -1 picks
// the lowest idle spare). The call returns once the join round is
// enqueued; a ResizeEvent reports the committed change. It fails with
// a typed error when no elastic run is in flight, the rank is not an
// idle spare, or no spare remains.
func (r *Resize) Join(rank int) error { return r.ec.Join(rank) }

// Drain removes a machine gracefully mid-run: the leaver fences,
// streams its item tokens, user responsibilities and replicas to its
// ring buddy with zero lost updates, and leaves the working set (rank
// -1 picks the leaver deterministically). Fails with a typed error
// when no elastic run is in flight or the cluster would shrink below
// the 2-machine floor.
func (r *Resize) Drain(rank int) error { return r.ec.Drain(rank) }

// Resize returns the session's membership controls. The handle is
// always valid; its Join and Drain only succeed while an elastic Run
// (WithElastic, or a chaos schedule with join/drain events) is in
// flight.
func (s *Session) Resize() *Resize { return &Resize{ec: s.elastic} }

// Subscribe registers an event channel with the given buffer (minimum
// 16). Events stream while Run is in flight; a slow subscriber loses
// old events instead of stalling training. The returned cancel
// function closes the channel and releases the subscription — call it
// when done, and drain the channel until closed.
func (s *Session) Subscribe(buffer int) (<-chan Event, func()) {
	if buffer < 16 {
		buffer = 16
	}
	ch := make(chan Event, buffer)
	s.mu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.mu.Unlock()
	return ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if c, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(c)
		}
	}
}

// publish fans an event out to all subscribers. Sends never block: a
// full buffer drops its oldest pending event to make room.
func (s *Session) publish(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ch := range s.subs {
		select {
		case ch <- e:
		default:
			select { // drop the oldest, then retry once
			case <-ch:
			default:
			}
			select {
			case ch <- e:
			default:
			}
		}
	}
}

// hooks bridges the internal training events to the public ones.
func (s *Session) hooks() *train.Hooks {
	return &train.Hooks{
		Trace: func(e train.TraceEvent) {
			s.publish(TraceEvent{Seconds: e.Seconds, Updates: e.Updates, RMSE: e.RMSE})
		},
		Epoch: func(e train.EpochEvent) {
			s.publish(EpochEvent{Epoch: e.Epoch, Updates: e.Updates})
		},
		Balance: func(e train.BalanceEvent) {
			s.publish(BalanceEvent{From: e.From, To: e.To, QueueLen: e.QueueLen})
		},
		Network: func(e train.NetworkEvent) {
			s.publish(NetworkEvent{BytesSent: e.BytesSent, MessagesSent: e.MessagesSent})
		},
		Peer: func(e train.PeerEvent) {
			s.publish(PeerDownEvent{Rank: e.Rank, Reason: e.Reason})
		},
		PeerRecovered: func(e train.PeerRecoveredEvent) {
			s.publish(PeerRecoveredEvent{Rank: e.Rank, RecoverySeconds: e.Recovery})
		},
		Resize: func(e train.ResizeEvent) {
			s.publish(ResizeEvent{Kind: e.Kind, Rank: e.Rank, Machines: e.Machines, Seconds: e.Seconds})
		},
	}
}

// PeerError is the typed error Run returns when a machine of a real
// multi-process cluster stops responding mid-run (its connection broke
// without an orderly end-of-stream, or its heartbeats timed out).
type PeerError struct {
	// Rank is the machine that went down.
	Rank int
	// Err is the transport-level cause.
	Err error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("nomad: cluster machine %d went down: %v", e.Rank, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *PeerError) Unwrap() error { return e.Err }

// publicError rewraps internal transport failures into the public
// typed error, leaving everything else untouched.
func publicError(err error) error {
	if err == nil {
		return nil
	}
	var pd *cluster.PeerDownError
	if errors.As(err, &pd) {
		return &PeerError{Rank: pd.Rank, Err: pd.Cause}
	}
	return err
}

// Checkpoint serializes the session's full training state — factors,
// step-schedule position, RNG streams, token ownership and update
// total — so a later session can Resume it. The session must be
// stopped (between or after runs) and must have run at least once.
func (s *Session) Checkpoint(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return ErrRunning
	}
	if s.state == nil {
		return ErrNoState
	}
	return s.state.WriteBinary(w)
}

// Resume loads a checkpoint written by Checkpoint into this session:
// the next Run continues from the restored state until the session's
// stop conditions (which count cumulatively — e.g. MaxEpochs(10) means
// ten epochs total across all segments) are met. The checkpoint must
// come from the same algorithm and a dataset of the same shape; it
// replaces any state from previous runs of this session.
func (s *Session) Resume(r io.Reader) error {
	st, err := train.ReadState(r)
	if err != nil {
		return err
	}
	k := s.base.K
	if k <= 0 {
		k = 16
	}
	// Solvers with augmented storage (biassgd's bias dims) report their
	// physical rank through train.StorageRanker.
	k = train.StorageRankOf(s.algo, k)
	if err := st.Validate(s.algorithm, s.ds.Users(), s.ds.Items(), k); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return ErrRunning
	}
	s.state = st
	return nil
}

// newResult converts an internal training result to the public shape;
// the runner has already evaluated the final model on the dataset's
// test split (train.Result.TestRMSE). The model
// is snapshotted: the session's live training state (which a later
// Run continues to mutate) and the returned Result.Model are
// independent, so a caller can keep serving Predict/Recommend from
// one result while the session trains on.
func newResult(res *train.Result) *Result {
	out := &Result{
		Algorithm:    res.Algorithm,
		Model:        &Model{inner: res.Model.Clone()},
		TestRMSE:     res.TestRMSE,
		Updates:      res.Updates,
		Seconds:      res.Elapsed.Seconds(),
		BytesSent:    res.BytesSent,
		MessagesSent: res.MessagesSent,
	}
	for _, p := range res.Trace.Points {
		out.Trace = append(out.Trace, TracePoint{Seconds: p.Seconds, Updates: p.Updates, RMSE: p.RMSE})
	}
	return out
}

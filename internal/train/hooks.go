package train

// This file defines the observer side of a training run. A run is a
// long-lived asynchronous process (the paper's figures are all traces
// sampled mid-flight), so instead of only returning a post-hoc Trace,
// every solver receives a *Hooks and emits typed events as it goes:
// convergence trace points, epoch boundaries, §3.3 load-balance
// decisions and simulated-network accounting. The facade fans these
// out to subscribers.

// TraceEvent is one convergence sample: the axes of every figure in
// the paper (wall-clock seconds, cumulative updates, test RMSE).
type TraceEvent struct {
	Seconds float64
	Updates int64
	RMSE    float64
}

// EpochEvent marks the completion of (approximately) one sweep over
// the training ratings. Synchronous solvers emit it at their true
// epoch barrier; for asynchronous solvers the monitor emits it when
// the update count crosses an epoch-sized multiple.
type EpochEvent struct {
	Epoch   int // 1-based
	Updates int64
}

// BalanceEvent records one §3.3 dynamic load-balancing decision on the
// distributed token-routing path: machine From chose the least-loaded
// known peer To, whose last gossiped queue length was QueueLen.
// (Shared-memory two-choice routing is per-token and far too hot to
// observe per decision.)
type BalanceEvent struct {
	From, To int
	QueueLen int64
}

// NetworkEvent reports cumulative network accounting: for NOMAD the
// wire bytes and frames its link wrote, on both backends; for the
// bulk-synchronous baselines the modelled bytes and messages of their
// simulated block network. Zero for single-machine runs.
type NetworkEvent struct {
	BytesSent    int64
	MessagesSent int64
}

// PeerEvent reports a cluster peer failure on the real-network
// backend: machine Rank stopped responding (connection broke without
// an orderly end-of-stream, or heartbeats timed out). Without
// failover the run aborts with a typed error after emitting it; with
// failover a PeerRecoveredEvent follows once the survivors have
// re-assigned the dead machine's state and resumed.
type PeerEvent struct {
	Rank   int
	Reason string
}

// PeerRecoveredEvent reports a completed failover: dead machine
// Rank's item tokens were regenerated on its buddy, its user rows
// adopted, and token circulation resumed among the survivors. Recovery
// is the detection→resume latency in seconds.
type PeerRecoveredEvent struct {
	Rank     int
	Recovery float64
}

// ResizeEvent reports a completed elastic-membership change: a
// provisioned spare was activated ("join") or a member left gracefully
// ("drain"). Machines is the active-machine count after the change;
// Seconds is the request→resume reconfiguration latency (token
// rebalancing to a joiner continues on the data plane after resume).
type ResizeEvent struct {
	Kind     string // "join" or "drain"
	Rank     int
	Machines int
	Seconds  float64
}

// ReplayEvent reports a run's serializability witness: the run logged
// every item visit, and replaying the log serially on one model
// reproduced its final factors and step counts bit for bit. A replay
// that differs is not an event but the run's error.
type ReplayEvent struct {
	Visits int64 // item visits replayed
}

// Hooks carries the event callbacks a training run reports through.
// A nil *Hooks, or any nil callback, disables that event — solvers
// always emit through the nil-safe Emit helpers. Callbacks are invoked
// from solver-internal goroutines (the monitor, the coordinator, a
// machine's sender) and must not block: a stalled subscriber would
// stall training.
type Hooks struct {
	Trace         func(TraceEvent)
	Epoch         func(EpochEvent)
	Balance       func(BalanceEvent)
	Network       func(NetworkEvent)
	Peer          func(PeerEvent)
	PeerRecovered func(PeerRecoveredEvent)
	Resize        func(ResizeEvent)
	// Replay, when set, also turns the check on: a NOMAD run keeps a
	// visit log and replays it at teardown (solvers without a log
	// ignore it).
	Replay func(ReplayEvent)
}

// Replaying reports whether the run should keep a visit log for the
// replay check; safe on a nil receiver.
func (h *Hooks) Replaying() bool { return h != nil && h.Replay != nil }

// EmitReplay reports a bit-identical replay; safe on a nil receiver.
func (h *Hooks) EmitReplay(e ReplayEvent) {
	if h.Replaying() {
		h.Replay(e)
	}
}

// EmitResize reports a completed membership change; safe on a nil
// receiver.
func (h *Hooks) EmitResize(e ResizeEvent) {
	if h != nil && h.Resize != nil {
		h.Resize(e)
	}
}

// EmitPeer reports a peer failure; safe on a nil receiver.
func (h *Hooks) EmitPeer(e PeerEvent) {
	if h != nil && h.Peer != nil {
		h.Peer(e)
	}
}

// EmitPeerRecovered reports a completed failover; safe on a nil
// receiver.
func (h *Hooks) EmitPeerRecovered(e PeerRecoveredEvent) {
	if h != nil && h.PeerRecovered != nil {
		h.PeerRecovered(e)
	}
}

// EmitTrace reports a convergence sample; safe on a nil receiver.
func (h *Hooks) EmitTrace(e TraceEvent) {
	if h != nil && h.Trace != nil {
		h.Trace(e)
	}
}

// EmitEpoch reports a completed epoch; safe on a nil receiver.
func (h *Hooks) EmitEpoch(e EpochEvent) {
	if h != nil && h.Epoch != nil {
		h.Epoch(e)
	}
}

// EmitBalance reports a load-balance routing decision; safe on a nil
// receiver.
func (h *Hooks) EmitBalance(e BalanceEvent) {
	if h != nil && h.Balance != nil {
		h.Balance(e)
	}
}

// EmitNetwork reports network accounting; safe on a nil receiver.
func (h *Hooks) EmitNetwork(e NetworkEvent) {
	if h != nil && h.Network != nil {
		h.Network(e)
	}
}

package train

// This file defines the observer side of a training run. A run is a
// long-lived asynchronous process (the paper's figures are all traces
// sampled mid-flight), so instead of only returning a post-hoc Trace,
// every solver receives a *Hooks and emits typed events as it goes:
// convergence trace points, epoch boundaries, network accounting and
// cluster membership changes. The public facade re-exports these types
// as its own, so an event is one value from the solver to a subscriber.

// Event is a typed notification from a running training session. It is
// sealed: every event is one of the concrete types in this file.
type Event interface {
	event()
}

// TraceEvent is one convergence sample: wall-clock seconds since the
// run started, cumulative updates (spanning resumed segments) and test
// RMSE.
type TraceEvent struct {
	Seconds float64
	Updates int64
	RMSE    float64
}

// EpochEvent marks the completion of (approximately) one sweep over
// the training ratings.
type EpochEvent struct {
	Epoch   int // 1-based
	Updates int64
}

// NetworkEvent reports cumulative network accounting: the wire bytes
// and frames of NOMAD's link, or the modelled bytes and messages of a
// baseline's simulated block network.
type NetworkEvent struct {
	BytesSent    int64
	MessagesSent int64
}

// PeerDownEvent reports that machine Rank stopped responding.
type PeerDownEvent struct {
	Rank   int
	Reason string
}

// PeerRecoveredEvent reports a completed failover of machine Rank, with
// its detection→resume latency.
type PeerRecoveredEvent struct {
	Rank            int
	RecoverySeconds float64
}

// ResizeEvent reports a committed elastic-membership change.
type ResizeEvent struct {
	Kind     string // "join" or "drain"
	Rank     int
	Machines int
	Seconds  float64
}

// ReplayEvent reports that replaying the run's Visits item visits
// serially reproduced its final factors and step counts bit for bit.
type ReplayEvent struct {
	Visits int64
}

func (TraceEvent) event()         {}
func (EpochEvent) event()         {}
func (NetworkEvent) event()       {}
func (PeerDownEvent) event()      {}
func (PeerRecoveredEvent) event() {}
func (ResizeEvent) event()        {}
func (ReplayEvent) event()        {}

// Hooks is where a run reports its events. Sink is invoked from
// solver-internal goroutines (the monitor, the coordinator, a machine's
// failover agent) and must not block: a stalled subscriber would stall
// training.
type Hooks struct {
	Sink func(Event)
	// Replay turns the replay check on: a NOMAD run keeps a visit log,
	// replays it at teardown and reports a ReplayEvent (solvers without
	// a log ignore it).
	Replay bool
}

// Emit reports e; safe on a nil receiver and with a nil Sink.
func (h *Hooks) Emit(e Event) {
	if h != nil && h.Sink != nil {
		h.Sink(e)
	}
}

// Replaying reports whether the run should keep a visit log for the
// replay check; safe on a nil receiver.
func (h *Hooks) Replaying() bool { return h != nil && h.Replay }

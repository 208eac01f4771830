package nomad

// Typed events streamed by a running Session. Subscribe with
// Session.Subscribe; every event is one of the concrete types below.
//
// Events are emitted from training-internal goroutines and delivered
// over buffered channels without blocking: a subscriber that falls
// behind loses the oldest pending events rather than stalling the run
// (training throughput is the product's headline number and is never
// sacrificed to observability).

// Event is a typed notification from a running training session.
// Switch on the concrete type:
//
//	switch e := ev.(type) {
//	case nomad.TraceEvent:    // convergence sample
//	case nomad.EpochEvent:    // sweep boundary
//	case nomad.BalanceEvent:  // §3.3 load-balance routing decision
//	case nomad.NetworkEvent:  // network accounting (sim or tcp)
//	case nomad.PeerDownEvent: // cluster machine failure (tcp backend)
//	case nomad.ReplayEvent:   // the run's serial replay matched (WithReplayCheck)
//	}
type Event interface {
	event() // sealed: only this package defines events
}

// TraceEvent is one convergence sample — the axes of every figure in
// the paper: wall-clock seconds since Run started, cumulative SGD
// updates (spanning resumed segments), and test RMSE.
type TraceEvent struct {
	Seconds float64
	Updates int64
	RMSE    float64
}

// EpochEvent marks the completion of (approximately) one sweep over
// the training ratings. Synchronous solvers emit it at their true
// epoch barrier; asynchronous solvers when the update count crosses an
// epoch-sized multiple.
type EpochEvent struct {
	Epoch   int // 1-based
	Updates int64
}

// BalanceEvent records one §3.3 dynamic load-balancing decision on the
// distributed token-routing path: machine From routed its next token
// batch to the least-loaded known peer To, whose last gossiped queue
// length was QueueLen.
type BalanceEvent struct {
	From, To int
	QueueLen int64
}

// NetworkEvent reports cumulative network accounting for
// multi-machine runs: for NOMAD the wire bytes and frames of its link,
// over in-memory connections or TCP alike; for the baselines the
// modelled bytes of their simulated block network.
type NetworkEvent struct {
	BytesSent    int64
	MessagesSent int64
}

// PeerDownEvent reports a cluster machine failure on the real-network
// backend: machine Rank stopped responding — its connection broke
// without an orderly end-of-stream, or its heartbeats timed out.
// Without WithFailover the run aborts shortly after with a *PeerError
// from Run; with it, the survivors reconfigure and a
// PeerRecoveredEvent follows.
type PeerDownEvent struct {
	Rank   int
	Reason string
}

// PeerRecoveredEvent reports a completed failover (WithFailover):
// dead machine Rank's item tokens were regenerated on its ring buddy,
// its user rows adopted, and token circulation resumed among the
// survivors. RecoverySeconds is the detection→resume latency.
type PeerRecoveredEvent struct {
	Rank            int
	RecoverySeconds float64
}

// ResizeEvent reports a committed elastic-membership change on a run
// with provisioned spares (WithElastic): a spare machine was activated
// ("join") or a member left gracefully ("drain"), with every item
// token conserved across the change. Machines is the active working
// set after the change; Seconds is the request→resume reconfiguration
// latency (a joiner keeps receiving its donated token share on the
// data plane after resume).
type ResizeEvent struct {
	Kind     string // "join" or "drain"
	Rank     int
	Machines int
	Seconds  float64
}

// ReplayEvent reports a run checked with WithReplayCheck: replaying
// its Visits item visits serially reproduced the run's final factors
// and step counts bit for bit.
type ReplayEvent struct {
	Visits int64
}

func (TraceEvent) event()         {}
func (EpochEvent) event()         {}
func (BalanceEvent) event()       {}
func (NetworkEvent) event()       {}
func (PeerDownEvent) event()      {}
func (PeerRecoveredEvent) event() {}
func (ResizeEvent) event()        {}
func (ReplayEvent) event()        {}

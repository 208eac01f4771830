package nomad

import "nomad/internal/train"

// Typed events streamed by a running Session. Subscribe with
// Session.Subscribe; every event is one of the concrete types below.
// They are the solvers' own event types, so an event reaches a
// subscriber as the value the run emitted.
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
//	case nomad.TraceEvent:         // convergence sample
//	case nomad.EpochEvent:         // sweep boundary
//	case nomad.NetworkEvent:       // network accounting
//	case nomad.PeerDownEvent:      // cluster machine failure
//	case nomad.PeerRecoveredEvent: // failover completed (WithFailover)
//	case nomad.ResizeEvent:        // membership change (WithElastic)
//	case nomad.ReplayEvent:        // the run's serial replay matched (WithReplayCheck)
//	}
//
// The interface is sealed: only the types below implement it.
type Event = train.Event

type (
	// TraceEvent is one convergence sample — the axes of every figure
	// in the paper: wall-clock seconds since Run started, cumulative SGD
	// updates (spanning resumed segments), and test RMSE.
	TraceEvent = train.TraceEvent

	// EpochEvent marks the completion of (approximately) one sweep over
	// the training ratings. Synchronous solvers emit it at their true
	// epoch barrier; asynchronous solvers when the update count crosses
	// an epoch-sized multiple.
	EpochEvent = train.EpochEvent

	// NetworkEvent reports cumulative network accounting for
	// multi-machine runs: for NOMAD the wire bytes and frames of its
	// link, over in-memory connections or TCP alike; for the baselines
	// the modelled bytes of their simulated block network.
	NetworkEvent = train.NetworkEvent

	// PeerDownEvent reports a cluster machine failure: machine Rank
	// stopped responding — its connection broke without an orderly
	// end-of-stream, or its heartbeats timed out. Without WithFailover
	// the run aborts shortly after with a *PeerError from Run; with it,
	// the survivors reconfigure and a PeerRecoveredEvent follows.
	PeerDownEvent = train.PeerDownEvent

	// PeerRecoveredEvent reports a completed failover (WithFailover):
	// dead machine Rank's item tokens were regenerated on its ring
	// buddy, its user rows adopted, and token circulation resumed among
	// the survivors. RecoverySeconds is the detection→resume latency.
	PeerRecoveredEvent = train.PeerRecoveredEvent

	// ResizeEvent reports a committed elastic-membership change on a run
	// with provisioned spares (WithElastic): a spare machine was
	// activated ("join") or a member left gracefully ("drain"), with
	// every item token conserved across the change. Machines is the
	// active working set after the change; Seconds is the
	// request→resume reconfiguration latency (a joiner keeps receiving
	// its donated token share on the data plane after resume).
	ResizeEvent = train.ResizeEvent

	// ReplayEvent reports a run checked with WithReplayCheck: replaying
	// its Visits item visits serially reproduced the run's final factors
	// and step counts bit for bit.
	ReplayEvent = train.ReplayEvent
)

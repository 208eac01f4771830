package cluster

// Link is the machine-to-machine transport behind NOMAD's distributed
// mode. The token runners (internal/core's sender and receiver
// threads) are written against this interface only. Its one
// implementation is internal/netlink's TCP link, over one of two kinds
// of connection: netsim's paced in-memory connections (the sim
// backend, one process) or real sockets (the tcp backend — a loopback
// mesh in one process, or one process per machine).
//
// A Link is one machine's endpoint. Data plane: Send/Recv move
// TokenBatch frames (the §3.5 unit of transfer). Control plane:
// SendCtl/Ctl move small opaque frames used by the multi-process
// runner (progress, stop, the teardown gather), by failover and by
// anything else that needs ordered sideband messages. Per-peer FIFO
// ordering holds within each plane and across both planes of one
// peer.

import (
	"errors"
	"fmt"
)

// ErrLinkClosed is returned by Send/SendCtl after CloseSend or Close.
var ErrLinkClosed = errors.New("cluster: link closed")

// PeerDownError reports that a cluster peer stopped responding: its
// connection broke without an orderly end-of-stream, or its heartbeats
// timed out. Training runs surface it (wrapped) from Run/Train.
type PeerDownError struct {
	Rank  int
	Cause error
}

func (e *PeerDownError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("cluster: peer machine %d down: %v", e.Rank, e.Cause)
	}
	return fmt.Sprintf("cluster: peer machine %d down", e.Rank)
}

// Unwrap exposes the transport-level cause.
func (e *PeerDownError) Unwrap() error { return e.Cause }

// Inbound is one delivered token batch.
type Inbound struct {
	From  int
	Batch TokenBatch
}

// Ctl is one delivered control frame.
type Ctl struct {
	From    int
	Kind    uint8
	Payload []byte
}

// LinkStats is cumulative transport accounting for one endpoint's
// sends, in wire bytes and frames.
type LinkStats struct {
	BytesSent    int64
	MessagesSent int64
}

// Link is one machine's connection to the rest of the cluster.
type Link interface {
	// Rank is this machine's id in [0, Machines).
	Rank() int
	// Machines is the cluster size.
	Machines() int

	// Send transmits a token batch to peer dst. It may block on
	// backpressure and returns ErrLinkClosed after CloseSend/Close, or
	// a *PeerDownError once the link has failed.
	//
	// Ownership: the batch and its token vectors remain the caller's;
	// implementations copy or encode them before returning, so the
	// caller may reuse the backing arrays (a Sender's per-destination
	// arena, an end-of-circulation marker) as soon as Send returns.
	Send(dst int, batch TokenBatch) error
	// Recv returns the inbound token-batch channel. It is closed once
	// every peer has ended its stream (CloseSend) and all in-flight
	// batches have been delivered — or when the link fails, in which
	// case Err reports why.
	//
	// Ownership: each delivered batch may be arena-backed; the
	// consumer copies out the vectors it keeps and calls
	// TokenBatch.Release to recycle the arena.
	Recv() <-chan Inbound

	// SendCtl transmits a small control frame to peer dst (dst == -1
	// broadcasts to every peer). Kind is caller-defined.
	SendCtl(dst int, kind uint8, payload []byte) error
	// Ctl returns the inbound control-frame channel, closed together
	// with Recv.
	Ctl() <-chan Ctl

	// CloseSend flushes and ends this machine's outbound stream: peers'
	// Recv channels close once all machines have done so. Idempotent.
	CloseSend() error
	// Close releases the endpoint. Idempotent; implies CloseSend.
	Close() error
	// Abort kills every connection at once, without the orderly
	// end-of-stream: peers see this machine fail, as a crashed process
	// looks. Failure injection uses it.
	Abort()

	// Err reports why the link failed (e.g. a *PeerDownError), or nil
	// after an orderly shutdown.
	Err() error

	// Stats returns cumulative send-side accounting.
	Stats() LinkStats
}

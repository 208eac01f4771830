package cluster

// Link is the pluggable machine-to-machine transport behind NOMAD's
// distributed mode. The token runners (internal/core's sender and
// receiver threads) are written against this interface only, so the
// same training code runs over the in-process simulated network
// (netsim, the historical backend) and over real TCP sockets
// (internal/netlink) — one process per machine, or a loopback mesh in
// a single process for tests and benchmarks.
//
// A Link is one machine's endpoint. Data plane: Send/Recv move
// TokenBatch frames (the §3.5 unit of transfer). Control plane:
// SendCtl/Ctl move small opaque frames used by the multi-process
// runner (progress, stop, the teardown gather), by failover and by
// anything else that needs ordered sideband messages. Per-peer FIFO
// ordering holds within each plane and, for in-order backends (TCP,
// netsim's instant profile), across both planes of one peer.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nomad/internal/netsim"
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
// sends (modelled bytes for netsim, wire bytes for TCP).
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

	// Err reports why the link failed (e.g. a *PeerDownError), or nil
	// after an orderly shutdown.
	Err() error

	// Stats returns cumulative send-side accounting.
	Stats() LinkStats
}

// ctlMsg is the netsim payload wrapper for control frames.
type ctlMsg struct {
	kind    uint8
	payload []byte
}

// SimCluster adapts a netsim.Network to the Link interface: one
// in-process SimLink per simulated machine, sharing the modelled
// latency/bandwidth couriers of netsim unchanged. The network shuts
// down — waiting for in-flight deliveries, then closing every
// endpoint's channels — once all machines have called CloseSend,
// which preserves the historical teardown guarantee that no token in
// flight is lost.
type SimCluster struct {
	net   *netsim.Network
	k     int
	links []*SimLink

	closed atomic.Int32 // CloseSend count; == machines triggers Shutdown
}

// NewSimCluster builds a simulated cluster of the given size over the
// network profile. k is the factor rank, used to model token wire
// sizes the way the historical netsim path did.
func NewSimCluster(machines int, p netsim.Profile, k int) *SimCluster {
	c := &SimCluster{
		net:   netsim.New(machines, p),
		k:     k,
		links: make([]*SimLink, machines),
	}
	for i := 0; i < machines; i++ {
		l := &SimLink{
			cluster: c,
			rank:    i,
			recv:    make(chan Inbound, 256),
			ctl:     make(chan Ctl, 256),
		}
		c.links[i] = l
		go l.translate()
	}
	return c
}

// Links returns the cluster's endpoints, indexed by rank.
func (c *SimCluster) Links() []Link {
	out := make([]Link, len(c.links))
	for i, l := range c.links {
		out[i] = l
	}
	return out
}

// closeSend records one endpoint's CloseSend; the last one shuts the
// network down, which drains in-flight messages and closes inboxes.
func (c *SimCluster) closeSend() {
	if int(c.closed.Add(1)) == len(c.links) {
		c.net.Shutdown()
	}
}

// Close shuts the whole simulated cluster down regardless of endpoint
// state. Intended for error paths; orderly teardown goes through each
// link's CloseSend.
func (c *SimCluster) Close() {
	for _, l := range c.links {
		l.CloseSend() //nolint:errcheck // idempotent
	}
}

// SimLink is one machine's endpoint on a SimCluster.
type SimLink struct {
	cluster *SimCluster
	rank    int

	mu        sync.RWMutex
	sendClose bool

	recv chan Inbound
	ctl  chan Ctl

	bytesSent atomic.Int64
	msgsSent  atomic.Int64
}

var _ Link = (*SimLink)(nil)

// translate forwards the netsim inbox onto the typed channels until
// the network shuts down.
func (l *SimLink) translate() {
	for msg := range l.cluster.net.Recv(l.rank) {
		switch p := msg.Payload.(type) {
		case TokenBatch:
			l.recv <- Inbound{From: msg.From, Batch: p}
		case ctlMsg:
			l.ctl <- Ctl{From: msg.From, Kind: p.kind, Payload: p.payload}
		}
	}
	close(l.recv)
	close(l.ctl)
}

// Rank implements Link.
func (l *SimLink) Rank() int { return l.rank }

// Machines implements Link.
func (l *SimLink) Machines() int { return l.cluster.net.Machines() }

// Send implements Link, modelling the batch's wire size exactly as the
// historical netsim path: an 8-byte batch header plus one token wire
// size per token. The simulated network delivers payloads by
// reference, so the boundary copy the wire contract promises is a
// deep clone into a pooled arena — the receiver unpacks it and
// Releases, just like a decoded TCP batch.
func (l *SimLink) Send(dst int, batch TokenBatch) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.sendClose {
		return ErrLinkClosed
	}
	size := 8
	for range batch.Tokens {
		size += netsim.VectorWireSize(l.cluster.k)
	}
	l.cluster.net.Send(l.rank, dst, size, CloneBatch(batch))
	l.bytesSent.Add(int64(size))
	l.msgsSent.Add(1)
	return nil
}

// Recv implements Link.
func (l *SimLink) Recv() <-chan Inbound { return l.recv }

// SendCtl implements Link.
func (l *SimLink) SendCtl(dst int, kind uint8, payload []byte) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.sendClose {
		return ErrLinkClosed
	}
	size := 16 + len(payload)
	if dst == -1 {
		for r := 0; r < l.Machines(); r++ {
			if r == l.rank {
				continue
			}
			l.cluster.net.Send(l.rank, r, size, ctlMsg{kind: kind, payload: payload})
			l.bytesSent.Add(int64(size))
			l.msgsSent.Add(1)
		}
		return nil
	}
	l.cluster.net.Send(l.rank, dst, size, ctlMsg{kind: kind, payload: payload})
	l.bytesSent.Add(int64(size))
	l.msgsSent.Add(1)
	return nil
}

// Ctl implements Link.
func (l *SimLink) Ctl() <-chan Ctl { return l.ctl }

// CloseSend implements Link. The send side closes immediately; the
// network-wide shutdown (and hence Recv closure on every endpoint)
// happens once all machines have closed their send sides, so no
// in-flight message is ever dropped.
func (l *SimLink) CloseSend() error {
	l.mu.Lock()
	if l.sendClose {
		l.mu.Unlock()
		return nil
	}
	l.sendClose = true
	l.mu.Unlock()
	l.cluster.closeSend()
	return nil
}

// Close implements Link.
func (l *SimLink) Close() error { return l.CloseSend() }

// Err implements Link; the simulated network does not fail.
func (l *SimLink) Err() error { return nil }

// Stats implements Link.
func (l *SimLink) Stats() LinkStats {
	return LinkStats{BytesSent: l.bytesSent.Load(), MessagesSent: l.msgsSent.Load()}
}

package netlink

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/netsim"
)

// Options tunes a TCP link and its rendezvous.
type Options struct {
	// K is the factor rank: the number of float64 coordinates each
	// token carries on the wire.
	K int
	// HeartbeatInterval is how often liveness probes are sent to every
	// peer (default 500ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a peer down when nothing — tokens,
	// control frames or heartbeats — has arrived from it for this long
	// (default 10s; 0 keeps the default, negative disables).
	HeartbeatTimeout time.Duration
	// RendezvousTimeout bounds the whole handshake (default 60s).
	RendezvousTimeout time.Duration
	// Failover keeps the link alive when a peer dies: the dead peer is
	// evicted (sends toward it return a per-peer
	// *cluster.PeerDownError, its stream is treated as ended) while
	// traffic among survivors continues and Err stays nil. Without it
	// the first peer failure fails the whole link.
	Failover bool
	// OnPeerDown, when non-nil, is invoked (once per dead peer, from a
	// link-internal goroutine) when a peer's connection breaks without
	// an orderly end-of-stream or its heartbeats time out. self is the
	// observing endpoint's rank, rank the dead peer's.
	OnPeerDown func(self, rank int, err error)
}

func (o Options) heartbeatInterval() time.Duration {
	if o.HeartbeatInterval <= 0 {
		return 500 * time.Millisecond
	}
	return o.HeartbeatInterval
}

func (o Options) heartbeatTimeout() time.Duration {
	if o.HeartbeatTimeout == 0 {
		return 10 * time.Second
	}
	return o.HeartbeatTimeout
}

func (o Options) rendezvousTimeout() time.Duration {
	if o.RendezvousTimeout <= 0 {
		return 60 * time.Second
	}
	return o.RendezvousTimeout
}

// peer is one established connection of the mesh.
type peer struct {
	rank     int
	conn     net.Conn
	wmu      sync.Mutex   // serializes frame writes, guards wbuf
	wbuf     []byte       // reusable frame-encode buffer: one flush is one syscall
	lastRecv atomic.Int64 // unix nanos of the last frame from this peer
	lastSend atomic.Int64 // unix nanos of the last frame written to this peer
	eof      atomic.Bool  // stream ended: FrameEOF received, or peer evicted
	dead     atomic.Bool  // failover: peer failed and was evicted from the mesh
}

// TCP is a full-mesh cluster.Link over TCP connections, one per peer.
// Frames within a connection are FIFO, so per-peer ordering holds
// across the token and control planes. By default failure of any peer
// fails the whole link: NOMAD's token conservation cannot survive
// losing a machine that holds item tokens, so the run is aborted with
// a typed *cluster.PeerDownError rather than silently diverging. With
// Options.Failover the dead peer is instead evicted from the mesh —
// its stream is treated as ended, sends toward it return a per-peer
// *cluster.PeerDownError, Err stays nil — and the failover protocol
// in internal/core restores conservation by regenerating the tokens
// that died with it.
type TCP struct {
	rank     int
	machines int
	opts     Options

	peers []*peer // indexed by rank; self is nil

	recv chan cluster.Inbound
	ctl  chan cluster.Ctl
	down chan struct{} // closed on failure or Close: unblocks everything

	sendClosed atomic.Bool
	failErr    atomic.Pointer[cluster.PeerDownError]
	eofLeft    atomic.Int32
	chanOnce   sync.Once // closes recv+ctl
	downOnce   sync.Once // closes down + conns
	failOnce   sync.Once // peer-down reporting

	wg        sync.WaitGroup
	bytesSent atomic.Int64
	msgsSent  atomic.Int64
}

var _ cluster.Link = (*TCP)(nil)

// newTCP wires an established mesh into a running link: one reader
// goroutine per peer plus the heartbeat monitor.
func newTCP(rank, machines int, conns map[int]net.Conn, opts Options) *TCP {
	l := &TCP{
		rank:     rank,
		machines: machines,
		opts:     opts,
		peers:    make([]*peer, machines),
		recv:     make(chan cluster.Inbound, 4*machines),
		ctl:      make(chan cluster.Ctl, 16*machines),
		down:     make(chan struct{}),
	}
	l.eofLeft.Store(int32(machines - 1))
	now := time.Now().UnixNano()
	for r, conn := range conns {
		p := &peer{rank: r, conn: conn}
		p.lastRecv.Store(now)
		p.lastSend.Store(now)
		l.peers[r] = p
	}
	for _, p := range l.peers {
		if p == nil {
			continue
		}
		l.wg.Add(1)
		go l.reader(p)
	}
	l.wg.Add(1)
	go l.heartbeat()
	// Channel closer of last resort: once every reader has exited
	// (failure or Close), the inbound channels close if the orderly
	// all-EOF path has not already closed them.
	go func() {
		l.wg.Wait()
		l.closeChannels()
	}()
	return l
}

// Pipe builds a whole cluster of TCP links in one process over
// netsim's paced in-memory connections (the sim backend): Loopback's
// codec, heartbeats and eviction without sockets, and without a
// rendezvous, since one process has one config. Indexed by rank.
func Pipe(machines int, p netsim.Profile, opts Options) []cluster.Link {
	links := make([]cluster.Link, machines)
	for r, conns := range netsim.Mesh(machines, p) {
		links[r] = newTCP(r, machines, conns, opts)
	}
	return links
}

// Rank implements cluster.Link.
func (l *TCP) Rank() int { return l.rank }

// Machines implements cluster.Link.
func (l *TCP) Machines() int { return l.machines }

// Err implements cluster.Link.
func (l *TCP) Err() error {
	if e := l.failErr.Load(); e != nil {
		return e
	}
	return nil
}

// Stats implements cluster.Link, counting wire bytes actually written.
func (l *TCP) Stats() cluster.LinkStats {
	return cluster.LinkStats{BytesSent: l.bytesSent.Load(), MessagesSent: l.msgsSent.Load()}
}

// writeFrame writes one frame to a peer under its write lock: the
// frame is encoded into the peer's reusable buffer and flushed with a
// single Write call — one flush is one syscall, no per-frame
// allocation once the buffer is warm.
func (l *TCP) writeFrame(p *peer, typ FrameType, payload []byte) error {
	p.wmu.Lock()
	buf := AppendFrame(p.wbuf[:0], typ, l.rank, payload)
	p.wbuf = buf
	_, err := p.conn.Write(buf)
	if err == nil {
		p.lastSend.Store(time.Now().UnixNano())
	}
	p.wmu.Unlock()
	if err == nil {
		l.bytesSent.Add(int64(len(buf)))
		l.msgsSent.Add(1)
	}
	return err
}

// Send implements cluster.Link. The batch is serialized straight into the peer's write buffer — header, batch
// header and token vectors in one pass, so the only copy between the
// sender's arena and the socket is vector → frame — and flushed with
// a single syscall. The batch stays owned by the caller.
func (l *TCP) Send(dst int, batch cluster.TokenBatch) error {
	// A failed link also closes its send side: report the failure, which
	// names the peer, ahead of the closure it caused.
	if err := l.Err(); err != nil {
		return err
	}
	if l.sendClosed.Load() {
		return cluster.ErrLinkClosed
	}
	p := l.peers[dst]
	if p == nil {
		return fmt.Errorf("netlink: send to self (machine %d)", dst)
	}
	if p.dead.Load() {
		return &cluster.PeerDownError{Rank: dst, Cause: errPeerEvicted}
	}
	p.wmu.Lock()
	buf, err := AppendTokenFrame(p.wbuf[:0], l.rank, batch, l.opts.K)
	if err != nil {
		p.wmu.Unlock()
		return err // encode rejection: the link itself is still healthy
	}
	p.wbuf = buf
	_, werr := p.conn.Write(buf)
	if werr == nil {
		p.lastSend.Store(time.Now().UnixNano())
	}
	p.wmu.Unlock()
	if werr != nil {
		return l.sendFailed(p, werr)
	}
	l.bytesSent.Add(int64(len(buf)))
	l.msgsSent.Add(1)
	return nil
}

// errPeerEvicted is the cause carried by sends toward a peer that
// failover already evicted.
var errPeerEvicted = fmt.Errorf("netlink: peer evicted after failure")

// sendFailed reports a write failure toward p: the peer goes down, and
// the caller gets the link error (whole-link mode) or a per-peer
// *cluster.PeerDownError (failover mode, where Err stays nil).
func (l *TCP) sendFailed(p *peer, werr error) error {
	l.peerDown(p, fmt.Errorf("write: %w", werr))
	if err := l.Err(); err != nil {
		return err
	}
	if l.isDown() {
		return cluster.ErrLinkClosed
	}
	return &cluster.PeerDownError{Rank: p.rank, Cause: werr}
}

// Recv implements cluster.Link.
func (l *TCP) Recv() <-chan cluster.Inbound { return l.recv }

// SendCtl implements cluster.Link.
func (l *TCP) SendCtl(dst int, kind uint8, payload []byte) error {
	// A failed link also closes its send side: report the failure, which
	// names the peer, ahead of the closure it caused.
	if err := l.Err(); err != nil {
		return err
	}
	if l.sendClosed.Load() {
		return cluster.ErrLinkClosed
	}
	framed := make([]byte, 0, 1+len(payload))
	framed = append(framed, kind)
	framed = append(framed, payload...)
	if dst == -1 {
		for _, p := range l.peers {
			if p == nil || p.dead.Load() {
				continue // an evicted peer never truncates the broadcast
			}
			if err := l.writeFrame(p, FrameCtl, framed); err != nil {
				if serr := l.sendFailed(p, err); l.Err() != nil || l.isDown() {
					return serr
				}
				// Failover: this peer just died, the rest of the
				// broadcast still goes out.
			}
		}
		return nil
	}
	p := l.peers[dst]
	if p == nil {
		return fmt.Errorf("netlink: ctl to self (machine %d)", dst)
	}
	if p.dead.Load() {
		return &cluster.PeerDownError{Rank: dst, Cause: errPeerEvicted}
	}
	if err := l.writeFrame(p, FrameCtl, framed); err != nil {
		return l.sendFailed(p, err)
	}
	return nil
}

// Ctl implements cluster.Link.
func (l *TCP) Ctl() <-chan cluster.Ctl { return l.ctl }

// CloseSend implements cluster.Link: an EOF frame ends this machine's
// stream on every peer connection.
func (l *TCP) CloseSend() error {
	if !l.sendClosed.CompareAndSwap(false, true) {
		return nil
	}
	for _, p := range l.peers {
		if p == nil || p.dead.Load() {
			continue
		}
		// Best effort: a peer that is already gone has either failed the
		// link (reported elsewhere) or finished its own drain.
		l.writeFrame(p, FrameEOF, nil) //nolint:errcheck
	}
	return nil
}

// Close implements cluster.Link.
func (l *TCP) Close() error {
	l.CloseSend() //nolint:errcheck // best-effort EOF first
	l.teardown()
	l.wg.Wait()
	return nil
}

// Abort implements cluster.Link: every connection closes at once,
// without the orderly EOF.
func (l *TCP) Abort() {
	l.sendClosed.Store(true)
	l.teardown()
}

// teardown closes the down channel and every connection, once, so
// all blocked I/O unwinds.
func (l *TCP) teardown() {
	l.downOnce.Do(func() {
		close(l.down)
		for _, p := range l.peers {
			if p != nil {
				p.conn.Close()
			}
		}
	})
}

// closed reports whether Close/Abort has run.
func (l *TCP) isDown() bool {
	select {
	case <-l.down:
		return true
	default:
		return false
	}
}

// closeChannels ends the inbound streams exactly once.
func (l *TCP) closeChannels() {
	l.chanOnce.Do(func() {
		close(l.recv)
		close(l.ctl)
	})
}

// peerDown handles a failed peer. In failover mode the peer is
// evicted: its connection closes, its stream counts as ended (so the
// orderly all-EOF teardown still completes), sends toward it return
// per-peer errors, and the link — Err() included — stays up for the
// survivors. Otherwise the whole link fails: record the typed error,
// report it, and tear every connection down so all blocked I/O
// unwinds. Surviving peers get an orderly EOF first, so they
// attribute the cluster failure to the machine that actually died,
// not to this endpoint's teardown.
func (l *TCP) peerDown(p *peer, cause error) {
	if l.opts.Failover && !l.isDown() {
		if !p.dead.CompareAndSwap(false, true) {
			return // already evicted
		}
		err := &cluster.PeerDownError{Rank: p.rank, Cause: cause}
		if l.opts.OnPeerDown != nil {
			l.opts.OnPeerDown(l.rank, p.rank, err)
		}
		p.conn.Close()
		if p.eof.CompareAndSwap(false, true) {
			if l.eofLeft.Add(-1) == 0 {
				l.closeChannels()
			}
		}
		return
	}
	l.failOnce.Do(func() {
		err := &cluster.PeerDownError{Rank: p.rank, Cause: cause}
		l.failErr.Store(err)
		if l.opts.OnPeerDown != nil {
			l.opts.OnPeerDown(l.rank, p.rank, err)
		}
		l.sendClosed.Store(true)
		for _, q := range l.peers {
			if q != nil && q != p && !q.eof.Load() {
				l.writeFrame(q, FrameEOF, nil) //nolint:errcheck // best effort
			}
		}
		l.teardown()
	})
}

// readBufSize is the reader's per-connection buffer: one read syscall
// takes in as many frames as have arrived, up to 128 KiB, instead of
// two reads (header, payload) per frame.
const readBufSize = 128 << 10

// reader drains one peer's connection, dispatching frames onto the
// typed channels until the stream ends. Frames come through a
// buffered reader made here, after the rendezvous has handed the
// connection over unbuffered, so nothing else ever read ahead of it.
// The connection owns one payload buffer that every frame is read into
// (ReadFrameReuse) and token batches are decoded into pooled arenas
// whose ownership travels with the Inbound — the consumer Releases
// them; control payloads, which may sit in the ctl channel across
// many frames, are copied out of the read buffer instead.
func (l *TCP) reader(p *peer) {
	defer l.wg.Done()
	in := bufio.NewReaderSize(p.conn, readBufSize)
	var rbuf []byte // connection-owned payload arena
	for {
		var f Frame
		var err error
		f, rbuf, err = ReadFrameReuse(in, rbuf)
		if err != nil {
			if p.eof.Load() || l.isDown() {
				return // orderly: stream already ended, or we tore down
			}
			l.peerDown(p, err)
			return
		}
		p.lastRecv.Store(time.Now().UnixNano())
		if p.eof.Load() && f.Type != FrameHeartbeat {
			continue // data after EOF: tolerate, but never deliver
		}
		switch f.Type {
		case FrameTokens:
			arena := cluster.GetBatchBuf()
			batch, err := DecodeTokenBatchInto(f.Payload, l.opts.K, arena)
			if err != nil {
				arena.Release()
				l.peerDown(p, err)
				return
			}
			select {
			case l.recv <- cluster.Inbound{From: p.rank, Batch: batch}:
			case <-l.down:
				return
			}
		case FrameCtl:
			if len(f.Payload) < 1 {
				l.peerDown(p, fmt.Errorf("empty control frame"))
				return
			}
			payload := f.Payload[1:]
			if len(payload) > 0 {
				// The payload aliases this connection's read buffer, which
				// the next ReadFrameReuse overwrites; control frames are
				// rare and small, so the hand-off is a copy.
				payload = append([]byte(nil), payload...)
			}
			select {
			case l.ctl <- cluster.Ctl{From: p.rank, Kind: f.Payload[0], Payload: payload}:
			case <-l.down:
				return
			}
		case FrameEOF:
			// CAS: a failover eviction may already have counted this
			// peer's stream as ended.
			if p.eof.CompareAndSwap(false, true) {
				if l.eofLeft.Add(-1) == 0 {
					// Every peer has ended its stream in order; nothing can
					// be in flight behind a per-connection FIFO, so the
					// inbound channels are complete.
					l.closeChannels()
				}
			}
		case FrameHeartbeat:
			// lastRecv update above is the whole point.
		default:
			l.peerDown(p, fmt.Errorf("unexpected frame type %d on established link", f.Type))
			return
		}
	}
}

// heartbeat probes every live peer and watches for silent ones.
// Explicit heartbeat frames are only written when the data plane has
// been idle towards that peer for a whole interval: every frame we
// send refreshes the peer's view of our liveness (its lastRecv), so
// under load the liveness signal piggybacks on the token flushes and
// the heartbeat loop costs no syscalls at all.
func (l *TCP) heartbeat() {
	defer l.wg.Done()
	interval := l.opts.heartbeatInterval()
	timeout := l.opts.heartbeatTimeout()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-l.down:
			return
		case <-ticker.C:
		}
		now := time.Now().UnixNano()
		for _, p := range l.peers {
			if p == nil || p.eof.Load() {
				continue // drained (or evicted) peers owe us nothing further
			}
			if timeout > 0 && now-p.lastRecv.Load() > int64(timeout) {
				l.peerDown(p, fmt.Errorf("no frames for %s", timeout))
				if l.Err() != nil || l.isDown() {
					return
				}
				continue // failover: keep watching the survivors
			}
			if now-p.lastSend.Load() < int64(interval) {
				continue // a recent data frame already carried our liveness
			}
			if err := l.writeFrame(p, FrameHeartbeat, nil); err != nil && !p.eof.Load() && !l.isDown() {
				l.peerDown(p, fmt.Errorf("heartbeat write: %w", err))
				if l.Err() != nil || l.isDown() {
					return
				}
			}
		}
	}
}

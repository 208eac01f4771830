package netlink

// Rendezvous: how a set of processes becomes a NOMAD cluster.
//
//	worker                    coordinator                   worker
//	  │── Hello{digest,addr} ──►│◄── Hello{digest,addr} ──────│
//	  │◄─ Welcome{rank,map,…} ──│─── Welcome{rank,map,…} ────►│
//	  │◄═══════ mesh dial: Mesh{rank} to every lower rank ═══►│
//	  │── Ready ───────────────►│◄──────────────────── Ready ─│
//	  │◄─ Go ───────────────────│─── Go ─────────────────────►│
//
// The coordinator (always rank 0) listens, collects one Hello per
// expected worker, assigns ranks in arrival order, and broadcasts a
// Welcome carrying the cluster size, the peer address list, the item
// ownership map (which machine each column token starts at) and — for
// resumed runs — the full training state in train.State's own binary
// encoding. Workers then dial every lower-ranked peer to complete the
// full mesh, report Ready, and training starts on Go. A config digest
// in the Hello refuses mismatched invocations (different dataset,
// seed, rank or budget) before any training happens.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/train"
)

// ErrConfigMismatch reports a worker whose training configuration
// digest differs from the coordinator's.
var ErrConfigMismatch = errors.New("netlink: handshake config digest mismatch")

// Dial backoff schedule: 10ms doubling to a 1s cap.
const (
	dialBackoffBase = 10 * time.Millisecond
	dialBackoffCap  = time.Second
)

// dialBackoff returns the wait before dial attempt+1: capped
// exponential growth from dialBackoffBase, with up to 50% added
// jitter derived from seed so concurrent workers desynchronize.
func dialBackoff(attempt int, seed int64) time.Duration {
	d := dialBackoffBase
	for i := 0; i < attempt && d < dialBackoffCap; i++ {
		d *= 2
	}
	if d > dialBackoffCap {
		d = dialBackoffCap
	}
	// splitmix64 step: cheap, stateless jitter from the seed.
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return d + time.Duration(z%uint64(d/2+1))
}

// RejectedError is returned by Join when the coordinator refuses the
// handshake with a FrameError.
type RejectedError struct{ Reason string }

func (e *RejectedError) Error() string { return "netlink: handshake rejected: " + e.Reason }

// Handshake is what a worker learns from the coordinator's Welcome.
type Handshake struct {
	// Owner maps each item (column) to the machine its token starts at.
	Owner []int32
	// State is the resume state for checkpoint-continued runs, nil for
	// fresh ones.
	State *train.State
}

// Coordinator is the rendezvous point of a multi-process cluster. It
// listens immediately (so Addr is known before Run blocks) and becomes
// machine 0 of the mesh.
type Coordinator struct {
	ln        net.Listener
	machines  int
	configSum uint64
	owner     []int32
	state     *train.State
	opts      Options
}

// NewCoordinator listens on the given address for machines-1 workers.
// owner is the item ownership map to broadcast; st, when non-nil, is
// resume state shipped to every worker.
func NewCoordinator(listen string, machines int, configSum uint64, owner []int32, st *train.State, opts Options) (*Coordinator, error) {
	if machines < 2 {
		return nil, fmt.Errorf("netlink: a cluster needs at least 2 machines, got %d", machines)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("netlink: coordinator listen: %w", err)
	}
	return &Coordinator{ln: ln, machines: machines, configSum: configSum, owner: owner, state: st, opts: opts}, nil
}

// Addr returns the coordinator's bound address (useful with ":0").
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// watch force-closes the given resources when ctx ends mid-handshake,
// unblocking any pending accept or read; the returned stop must be
// deferred.
func watch(ctx context.Context, closers ...func()) func() {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			for _, c := range closers {
				c()
			}
		case <-done:
		}
	}()
	return func() { close(done) }
}

// Run performs the coordinator's side of the rendezvous and returns
// the established rank-0 link. It closes the listener before
// returning.
func (c *Coordinator) Run(ctx context.Context) (*TCP, error) {
	defer c.ln.Close()
	deadline := time.Now().Add(c.opts.rendezvousTimeout())
	conns := make(map[int]net.Conn)
	addrs := make([]string, c.machines)
	fail := func(err error) (*TCP, error) {
		for _, conn := range conns {
			conn.Close()
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	stop := watch(ctx, func() { c.ln.Close() })
	defer stop()

	for rank := 1; rank < c.machines; rank++ {
		conn, err := c.ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("netlink: coordinator accept: %w", err))
		}
		conn.SetDeadline(deadline) //nolint:errcheck
		f, err := ReadFrame(conn)
		if err != nil {
			conn.Close()
			return fail(fmt.Errorf("netlink: coordinator handshake read: %w", err))
		}
		if f.Type != FrameHello {
			conn.Close()
			return fail(fmt.Errorf("netlink: expected Hello, got frame type %d", f.Type))
		}
		sum, addr, err := decodeHello(f.Payload)
		if err != nil {
			conn.Close()
			return fail(err)
		}
		if sum != c.configSum {
			WriteFrame(conn, FrameError, 0, []byte("config digest mismatch: every process must run the same dataset, seed and hyper-parameters")) //nolint:errcheck
			conn.Close()
			return fail(ErrConfigMismatch)
		}
		conns[rank] = conn
		addrs[rank] = addr
	}

	for rank, conn := range conns {
		if err := WriteFrame(conn, FrameWelcome, 0, c.welcomePayload(rank, addrs)); err != nil {
			return fail(fmt.Errorf("netlink: send welcome to machine %d: %w", rank, err))
		}
	}
	for rank, conn := range conns {
		f, err := ReadFrame(conn)
		if err != nil || f.Type != FrameReady {
			return fail(fmt.Errorf("netlink: machine %d never became ready (frame %v, err %v)", rank, f.Type, err))
		}
	}
	for rank, conn := range conns {
		if err := WriteFrame(conn, FrameGo, 0, nil); err != nil {
			return fail(fmt.Errorf("netlink: send go to machine %d: %w", rank, err))
		}
	}
	for _, conn := range conns {
		conn.SetDeadline(time.Time{}) //nolint:errcheck
	}
	return newTCP(0, c.machines, conns, c.opts), nil
}

// welcomePayload encodes the Welcome for one worker.
func (c *Coordinator) welcomePayload(rank int, addrs []string) []byte {
	return encodeWelcome(rank, c.machines, c.opts.K, c.configSum, c.owner, addrs, c.state)
}

// encodeWelcome encodes a Welcome payload.
func encodeWelcome(rank, machines, k int, configSum uint64, owner []int32, addrs []string, st *train.State) []byte {
	var buf bytes.Buffer
	le := binary.LittleEndian
	var w [8]byte
	le.PutUint32(w[:4], uint32(int32(rank)))
	buf.Write(w[:4])
	le.PutUint32(w[:4], uint32(int32(machines)))
	buf.Write(w[:4])
	le.PutUint32(w[:4], uint32(int32(k)))
	buf.Write(w[:4])
	flags := uint32(0)
	if st != nil {
		flags |= 1
	}
	le.PutUint32(w[:4], flags)
	buf.Write(w[:4])
	le.PutUint64(w[:], configSum)
	buf.Write(w[:])
	le.PutUint64(w[:], uint64(len(owner)))
	buf.Write(w[:])
	for _, o := range owner {
		le.PutUint32(w[:4], uint32(o))
		buf.Write(w[:4])
	}
	le.PutUint32(w[:4], uint32(len(addrs)))
	buf.Write(w[:4])
	for _, a := range addrs {
		le.PutUint16(w[:2], uint16(len(a)))
		buf.Write(w[:2])
		buf.WriteString(a)
	}
	if st != nil {
		// The resume state travels in train.State's own versioned binary
		// encoding — the exact bytes a checkpoint file holds.
		if err := st.WriteBinary(&buf); err != nil {
			panic(fmt.Sprintf("netlink: encode resume state: %v", err)) // state was validated by the caller
		}
	}
	return buf.Bytes()
}

// helloPayload encodes a worker's Hello.
func helloPayload(configSum uint64, addr string) []byte {
	buf := make([]byte, 0, 10+len(addr))
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], configSum)
	buf = append(buf, w[:]...)
	binary.LittleEndian.PutUint16(w[:2], uint16(len(addr)))
	buf = append(buf, w[:2]...)
	return append(buf, addr...)
}

func decodeHello(payload []byte) (sum uint64, addr string, err error) {
	if len(payload) < 10 {
		return 0, "", fmt.Errorf("netlink: short hello (%d bytes)", len(payload))
	}
	sum = binary.LittleEndian.Uint64(payload)
	n := int(binary.LittleEndian.Uint16(payload[8:]))
	if len(payload) != 10+n {
		return 0, "", fmt.Errorf("netlink: hello declares %d-byte address in %d-byte payload", n, len(payload))
	}
	return sum, string(payload[10 : 10+n]), nil
}

// decodeWelcome parses a Welcome payload.
func decodeWelcome(payload []byte) (rank, machines, k int, sum uint64, owner []int32, addrs []string, st *train.State, err error) {
	le := binary.LittleEndian
	if len(payload) < 32 {
		return 0, 0, 0, 0, nil, nil, nil, fmt.Errorf("netlink: short welcome (%d bytes)", len(payload))
	}
	rank = int(int32(le.Uint32(payload[0:])))
	machines = int(int32(le.Uint32(payload[4:])))
	k = int(int32(le.Uint32(payload[8:])))
	flags := le.Uint32(payload[12:])
	sum = le.Uint64(payload[16:])
	nOwner := le.Uint64(payload[24:])
	if machines < 2 || rank < 1 || rank >= machines || k < 1 {
		return 0, 0, 0, 0, nil, nil, nil, fmt.Errorf("netlink: welcome rank %d of %d (k=%d) out of range", rank, machines, k)
	}
	pos := 32
	if nOwner > uint64(MaxPayload/4) || pos+int(nOwner)*4 > len(payload) {
		return 0, 0, 0, 0, nil, nil, nil, fmt.Errorf("netlink: welcome ownership map overruns payload")
	}
	owner = make([]int32, nOwner)
	for i := range owner {
		owner[i] = int32(le.Uint32(payload[pos:]))
		pos += 4
	}
	if pos+4 > len(payload) {
		return 0, 0, 0, 0, nil, nil, nil, fmt.Errorf("netlink: welcome truncated before address list")
	}
	nAddr := int(le.Uint32(payload[pos:]))
	pos += 4
	if nAddr != machines {
		return 0, 0, 0, 0, nil, nil, nil, fmt.Errorf("netlink: welcome has %d addresses for %d machines", nAddr, machines)
	}
	addrs = make([]string, nAddr)
	for i := range addrs {
		if pos+2 > len(payload) {
			return 0, 0, 0, 0, nil, nil, nil, fmt.Errorf("netlink: welcome truncated in address list")
		}
		n := int(le.Uint16(payload[pos:]))
		pos += 2
		if pos+n > len(payload) {
			return 0, 0, 0, 0, nil, nil, nil, fmt.Errorf("netlink: welcome truncated in address list")
		}
		addrs[i] = string(payload[pos : pos+n])
		pos += n
	}
	if flags&1 != 0 {
		st, err = train.ReadState(bytes.NewReader(payload[pos:]))
		if err != nil {
			return 0, 0, 0, 0, nil, nil, nil, fmt.Errorf("netlink: welcome resume state: %w", err)
		}
	}
	return rank, machines, k, sum, owner, addrs, st, nil
}

// advertiseAddr derives the mesh address a worker announces to the
// coordinator. A wildcard listen host (":0", "0.0.0.0", "[::]") is
// unroutable for peers on other machines, so it is replaced with the
// local IP of the coordinator connection — the interface the cluster
// demonstrably reaches this process on — keeping the listener's port.
// An explicit listen host is respected as given.
func advertiseAddr(ln net.Listener, coord net.Conn) string {
	addr := ln.Addr().String()
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if ip := net.ParseIP(host); ip != nil && !ip.IsUnspecified() {
		return addr
	}
	lhost, _, err := net.SplitHostPort(coord.LocalAddr().String())
	if err != nil {
		return addr
	}
	return net.JoinHostPort(lhost, port)
}

// Join performs a worker's side of the rendezvous: dial the
// coordinator, learn our rank and the cluster map, complete the mesh,
// and return the established link. listen may be empty or ":0" for an
// ephemeral port.
func Join(ctx context.Context, join, listen string, configSum uint64, opts Options) (*TCP, *Handshake, error) {
	if listen == "" {
		listen = ":0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, nil, fmt.Errorf("netlink: worker listen: %w", err)
	}
	defer ln.Close()
	deadline := time.Now().Add(opts.rendezvousTimeout())

	// The coordinator may come up after its workers (CI launches all
	// processes at once), so dialling retries until the rendezvous
	// deadline with capped exponential backoff plus jitter — fast when
	// the coordinator appears quickly, and no thundering herd of
	// synchronized redials when many workers race a slow one.
	d := net.Dialer{Deadline: deadline}
	var coord net.Conn
	for attempt := 0; ; attempt++ {
		var derr error
		coord, derr = d.DialContext(ctx, "tcp", join)
		if derr == nil {
			break
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("netlink: dial coordinator %s: %w", join, derr)
		}
		select {
		case <-ctx.Done():
			return nil, nil, fmt.Errorf("netlink: dial coordinator %s: %w", join, context.Cause(ctx))
		case <-time.After(dialBackoff(attempt, time.Now().UnixNano())):
		}
	}
	conns := map[int]net.Conn{0: coord}
	fail := func(err error) (*TCP, *Handshake, error) {
		for _, conn := range conns {
			conn.Close()
		}
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}
	stop := watch(ctx, func() { ln.Close() }, func() { coord.Close() })
	defer stop()

	coord.SetDeadline(deadline) //nolint:errcheck
	if err := WriteFrame(coord, FrameHello, -1, helloPayload(configSum, advertiseAddr(ln, coord))); err != nil {
		return fail(fmt.Errorf("netlink: send hello: %w", err))
	}
	f, err := ReadFrame(coord)
	if err != nil {
		return fail(fmt.Errorf("netlink: read welcome: %w", err))
	}
	if f.Type == FrameError {
		return fail(&RejectedError{Reason: string(f.Payload)})
	}
	if f.Type != FrameWelcome {
		return fail(fmt.Errorf("netlink: expected Welcome, got frame type %d", f.Type))
	}
	rank, machines, k, sum, owner, addrs, st, err := decodeWelcome(f.Payload)
	if err != nil {
		return fail(err)
	}
	if sum != configSum {
		return fail(ErrConfigMismatch)
	}
	opts.K = k

	// Mesh: accept one connection from every higher rank while dialling
	// every lower one (the coordinator is already connected).
	var mu sync.Mutex
	acceptErr := make(chan error, 1)
	expect := machines - 1 - rank
	go func() {
		for i := 0; i < expect; i++ {
			conn, err := ln.Accept()
			if err != nil {
				acceptErr <- fmt.Errorf("netlink: mesh accept: %w", err)
				return
			}
			conn.SetDeadline(deadline) //nolint:errcheck
			mf, err := ReadFrame(conn)
			if err != nil || mf.Type != FrameMesh || mf.From <= rank || mf.From >= machines {
				conn.Close()
				acceptErr <- fmt.Errorf("netlink: bad mesh introduction (frame %v, err %v)", mf.Type, err)
				return
			}
			mu.Lock()
			conns[mf.From] = conn
			mu.Unlock()
		}
		acceptErr <- nil
	}()
	for r := 1; r < rank; r++ {
		conn, err := d.DialContext(ctx, "tcp", addrs[r])
		if err != nil {
			<-acceptErr
			return fail(fmt.Errorf("netlink: dial machine %d at %s: %w", r, addrs[r], err))
		}
		conn.SetDeadline(deadline) //nolint:errcheck
		if err := WriteFrame(conn, FrameMesh, rank, nil); err != nil {
			conn.Close()
			<-acceptErr
			return fail(fmt.Errorf("netlink: introduce to machine %d: %w", r, err))
		}
		mu.Lock()
		conns[r] = conn
		mu.Unlock()
	}
	if err := <-acceptErr; err != nil {
		return fail(err)
	}

	if err := WriteFrame(coord, FrameReady, rank, nil); err != nil {
		return fail(fmt.Errorf("netlink: send ready: %w", err))
	}
	f, err = ReadFrame(coord)
	if err != nil || f.Type != FrameGo {
		return fail(fmt.Errorf("netlink: waiting for go (frame %v, err %v)", f.Type, err))
	}
	for _, conn := range conns {
		conn.SetDeadline(time.Time{}) //nolint:errcheck
	}
	return newTCP(rank, machines, conns, opts), &Handshake{Owner: owner, State: st}, nil
}

// Loopback builds a whole cluster of real TCP links inside one
// process, every machine on 127.0.0.1 with an ephemeral port — the
// same wire protocol, rendezvous and failure detection as a
// multi-process run, minus the processes. It is the tcp backend of
// single-process distributed training (Pipe is the sim one). The
// returned links are indexed by rank.
func Loopback(ctx context.Context, machines int, configSum uint64, owner []int32, st *train.State, opts Options) ([]cluster.Link, error) {
	coord, err := NewCoordinator("127.0.0.1:0", machines, configSum, owner, st, opts)
	if err != nil {
		return nil, err
	}
	links := make([]cluster.Link, machines)
	errs := make([]error, machines)
	var wg sync.WaitGroup
	for i := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var l *TCP
			if i == 0 {
				l, errs[i] = coord.Run(ctx)
			} else {
				l, _, errs[i] = Join(ctx, coord.Addr(), "127.0.0.1:0", configSum, opts)
			}
			if l != nil {
				links[l.Rank()] = l // ranks are distinct: one writer per slot
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, l := range links {
				if l != nil {
					l.Close() //nolint:errcheck
				}
			}
			return nil, err
		}
	}
	return links, nil
}

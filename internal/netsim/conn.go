package netsim

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// bufSize is each direction's buffer, like a socket's: a writer that
// finds it full waits until the reader drains it.
const bufSize = 256 << 10

// Mesh returns a full mesh of paced in-memory connections: conns[i][j]
// is machine i's end of its connection to j. A write is charged to the
// writing machine's one egress pacer, shared by all its connections,
// and its bytes become readable Latency later. Every wait is on a
// sync.Cond, a sleep or a timer, never on a held mutex, so the mesh
// runs inside a testing/synctest bubble.
func Mesh(machines int, p Profile) []map[int]net.Conn {
	egress := make([]pacer, machines)
	conns := make([]map[int]net.Conn, machines)
	for i := range conns {
		egress[i].bw = p.Bandwidth
		conns[i] = make(map[int]net.Conn, machines-1)
		for j := 0; j < i; j++ {
			ij, ji := newPipe(p.Latency), newPipe(p.Latency)
			conns[i][j] = &conn{in: ji, out: ij, egress: &egress[i]}
			conns[j][i] = &conn{in: ij, out: ji, egress: &egress[j]}
		}
	}
	return conns
}

// pipe is one direction of a connection: a bounded byte ring whose
// bytes arrive lat after they were written.
type pipe struct {
	mu     sync.Mutex
	cond   sync.Cond // broadcast on every read, write, arrival and close
	lat    time.Duration
	buf    []byte
	r, w   int  // cumulative bytes read and written
	ready  int  // cumulative bytes arrived: readable up to here
	closed bool // writer closed: EOF once everything written is read
	gone   bool // reader closed: writes fail
}

func newPipe(lat time.Duration) *pipe {
	q := &pipe{lat: lat, buf: make([]byte, bufSize)}
	q.cond.L = &q.mu
	return q
}

// arrive makes the bytes before end readable.
func (q *pipe) arrive(end int) {
	q.mu.Lock()
	q.ready = max(q.ready, end)
	q.cond.Broadcast()
	q.mu.Unlock()
}

// conn is one end of a connection.
type conn struct {
	in, out *pipe
	egress  *pacer
}

// Write charges len(b) to the egress pacer, then copies b into the
// outbound ring, waiting while the ring is full; the bytes arrive
// after the latency, as Network delivers a message.
func (c *conn) Write(b []byte) (int, error) {
	c.egress.charge(len(b))
	q := c.out
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for n < len(b) && !q.closed && !q.gone {
		m := min(bufSize-(q.w-q.r), len(b)-n)
		if m == 0 {
			q.cond.Wait()
			continue
		}
		k := copy(q.buf[q.w%bufSize:], b[n:n+m])
		copy(q.buf, b[n+k:n+m])
		q.w, n = q.w+m, n+m
		if end := q.w; q.lat > 0 {
			time.AfterFunc(q.lat, func() { q.arrive(end) })
		} else {
			q.ready = end
			q.cond.Broadcast()
		}
	}
	if n < len(b) {
		return n, io.ErrClosedPipe
	}
	return n, nil
}

// Read returns the bytes that have arrived, waiting for some;
// io.EOF once the peer closed and everything it wrote has been read.
func (c *conn) Read(b []byte) (int, error) {
	q := c.in
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.gone {
		if n := min(len(b), q.ready-q.r); n > 0 {
			k := copy(b[:n], q.buf[q.r%bufSize:])
			copy(b[k:n], q.buf)
			q.r += n
			q.cond.Broadcast()
			return n, nil
		}
		if q.closed && q.r == q.w {
			return 0, io.EOF
		}
		q.cond.Wait()
	}
	return 0, net.ErrClosed
}

// Close ends both directions: the peer reads EOF after what was
// written, and its writes fail.
func (c *conn) Close() error {
	c.out.mu.Lock()
	c.out.closed = true
	c.out.cond.Broadcast()
	c.out.mu.Unlock()
	c.in.mu.Lock()
	c.in.gone = true
	c.in.cond.Broadcast()
	c.in.mu.Unlock()
	return nil
}

// meshAddr names every in-memory endpoint; nothing over the mesh sets
// deadlines.
var (
	meshAddr      = &net.UnixAddr{Name: "netsim", Net: "netsim"}
	errNoDeadline = errors.New("netsim: in-memory connections take no deadlines")
)

func (c *conn) LocalAddr() net.Addr              { return meshAddr }
func (c *conn) RemoteAddr() net.Addr             { return meshAddr }
func (c *conn) SetDeadline(time.Time) error      { return errNoDeadline }
func (c *conn) SetReadDeadline(time.Time) error  { return errNoDeadline }
func (c *conn) SetWriteDeadline(time.Time) error { return errNoDeadline }

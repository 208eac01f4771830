package netlink

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"nomad/internal/cluster"
)

// countingConn counts the Read calls made on a connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (dialled, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acc := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			acc <- nil
			return
		}
		acc <- c
	}()
	dialled, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if accepted = <-acc; accepted == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { dialled.Close(); accepted.Close() })
	return dialled, accepted
}

// tokenFrame encodes one rank-k token frame from peer rank from whose
// tokens name items first, first+1, … .
func tokenFrame(t *testing.T, from, first, tokens, k int) []byte {
	t.Helper()
	buf := cluster.NewBatchBuf()
	for i := 0; i < tokens; i++ {
		vec := buf.AddVec(int32(first+i), k)
		for c := range vec {
			vec[c] = float64(first + i + c)
		}
	}
	frame, err := AppendTokenFrame(nil, from, buf.Batch(first), k)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// recvItems collects the first item of every delivered batch until n
// batches have arrived or the channel closes.
func recvItems(t *testing.T, l *TCP, n int) []int32 {
	t.Helper()
	var firsts []int32
	timeout := time.After(10 * time.Second)
	for len(firsts) < n {
		select {
		case inb, ok := <-l.Recv():
			if !ok {
				return firsts
			}
			firsts = append(firsts, inb.Batch.Tokens[0].Item)
			inb.Batch.Release()
		case <-timeout:
			t.Fatalf("%d of %d batches after 10s", len(firsts), n)
		}
	}
	return firsts
}

// TestReaderTakesManyFramesPerRead: frames that are already waiting
// in the socket are taken in by a few large reads, not a header read
// and a payload read each.
func TestReaderTakesManyFramesPerRead(t *testing.T) {
	const frames, tokens, k = 64, 10, 4
	peer, local := tcpPair(t)
	for f := 0; f < frames; f++ {
		if _, err := peer.Write(tokenFrame(t, 1, f*tokens, tokens, k)); err != nil {
			t.Fatal(err)
		}
	}
	conn := &countingConn{Conn: local}
	l := newTCP(0, 2, map[int]net.Conn{1: conn}, Options{K: k, HeartbeatTimeout: -1})
	defer l.Close()
	firsts := recvItems(t, l, frames)
	for f, item := range firsts {
		if item != int32(f*tokens) {
			t.Fatalf("batch %d starts at item %d, want %d", f, item, f*tokens)
		}
	}
	if len(firsts) != frames {
		t.Fatalf("%d batches delivered, want %d", len(firsts), frames)
	}
	// One read for the whole backlog, one more that may already be
	// waiting for the next frame: far below one or two per frame.
	if reads := conn.reads.Load(); reads > frames/8 {
		t.Fatalf("%d Read calls for %d waiting frames, want ≤ %d", reads, frames, frames/8)
	}
}

// TestReaderCorruptFrameMidStream: the good frames ahead of a frame
// with a bad CRC are delivered in order, then the link fails naming
// the peer that sent it.
func TestReaderCorruptFrameMidStream(t *testing.T) {
	const good, tokens, k = 3, 5, 2
	peer, local := tcpPair(t)
	for f := 0; f < good; f++ {
		if _, err := peer.Write(tokenFrame(t, 1, f*tokens, tokens, k)); err != nil {
			t.Fatal(err)
		}
	}
	bad := tokenFrame(t, 1, good*tokens, tokens, k)
	bad[len(bad)-1] ^= 0xff // payload byte: the header's CRC no longer matches
	if _, err := peer.Write(bad); err != nil {
		t.Fatal(err)
	}
	l := newTCP(0, 2, map[int]net.Conn{1: local}, Options{K: k, HeartbeatTimeout: -1})
	defer l.Close()
	firsts := recvItems(t, l, good+1)
	if len(firsts) != good {
		t.Fatalf("%d batches delivered, want the %d ahead of the corrupt frame", len(firsts), good)
	}
	for f, item := range firsts {
		if item != int32(f*tokens) {
			t.Fatalf("batch %d starts at item %d, want %d", f, item, f*tokens)
		}
	}
	var pd *cluster.PeerDownError
	if err := l.Err(); !errors.As(err, &pd) || pd.Rank != 1 || !errors.Is(err, ErrBadCRC) {
		t.Fatalf("Err = %v, want a *cluster.PeerDownError naming peer 1 caused by ErrBadCRC", err)
	}
}

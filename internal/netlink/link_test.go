package netlink

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/factor"
	"nomad/internal/train"
)

func testLoopback(t *testing.T, machines int, opts Options) []cluster.Link {
	t.Helper()
	if opts.K == 0 {
		opts.K = 2
	}
	if opts.RendezvousTimeout == 0 {
		opts.RendezvousTimeout = 10 * time.Second
	}
	links, err := Loopback(context.Background(), machines, 0xfeed, nil, nil, opts)
	if err != nil {
		t.Fatalf("Loopback(%d): %v", machines, err)
	}
	t.Cleanup(func() {
		for _, l := range links {
			l.Close() //nolint:errcheck
		}
	})
	return links
}

func TestLoopbackTokensRoundTrip(t *testing.T) {
	links := testLoopback(t, 3, Options{K: 2})
	batch := cluster.TokenBatch{
		QueueLen: 11,
		Tokens:   []cluster.Token{{Item: 7, Vec: []float64{1.5, -2.5}}},
	}
	if err := links[0].Send(2, batch); err != nil {
		t.Fatalf("Send: %v", err)
	}
	inb := <-links[2].Recv()
	if inb.From != 0 || inb.Batch.QueueLen != 11 || len(inb.Batch.Tokens) != 1 {
		t.Fatalf("inbound = %+v", inb)
	}
	tok := inb.Batch.Tokens[0]
	if tok.Item != 7 || tok.Vec[0] != 1.5 || tok.Vec[1] != -2.5 {
		t.Fatalf("token = %+v", tok)
	}
}

func TestLoopbackCtlAndOrdering(t *testing.T) {
	links := testLoopback(t, 2, Options{K: 1})
	// Tokens then ctl on the same pair must arrive in order.
	for i := 0; i < 10; i++ {
		if err := links[0].Send(1, cluster.TokenBatch{Tokens: []cluster.Token{{Item: int32(i), Vec: []float64{0}}}}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if err := links[0].SendCtl(1, 5, []byte("end")); err != nil {
		t.Fatalf("SendCtl: %v", err)
	}
	// The link's one ordering promise is that the reader enqueues every
	// earlier token before the ctl frame. When both channels are ready,
	// select picks either, so a ctl that wins must find every token it
	// followed already buffered in Recv.
	seen := 0
	next := func(inb cluster.Inbound) {
		t.Helper()
		if int(inb.Batch.Tokens[0].Item) != seen {
			t.Fatalf("token order broken: got %d want %d", inb.Batch.Tokens[0].Item, seen)
		}
		seen++
	}
	var ct cluster.Ctl
	got := false
	for !got {
		select {
		case inb := <-links[1].Recv():
			next(inb)
		case ct = <-links[1].Ctl():
			got = true
			if n := len(links[1].Recv()); n != 10-seen {
				t.Fatalf("ctl overtook tokens: %d of %d pending tokens buffered", n, 10-seen)
			}
		}
	}
	for seen < 10 {
		next(<-links[1].Recv())
	}
	if ct.Kind != 5 || string(ct.Payload) != "end" || ct.From != 0 {
		t.Fatalf("ctl = %+v", ct)
	}
}

func TestLoopbackEOFClosesStreams(t *testing.T) {
	links := testLoopback(t, 3, Options{K: 1})
	if err := links[1].Send(0, cluster.TokenBatch{Tokens: []cluster.Token{{Item: 1, Vec: []float64{2}}}}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for _, l := range links {
		if err := l.CloseSend(); err != nil {
			t.Fatalf("CloseSend: %v", err)
		}
	}
	// The pre-EOF token must still be delivered, then the stream ends.
	got := 0
	for inb := range links[0].Recv() {
		got += len(inb.Batch.Tokens)
	}
	if got != 1 {
		t.Fatalf("delivered %d tokens before close, want 1", got)
	}
	for range links[0].Ctl() {
		t.Fatal("unexpected ctl frame")
	}
	if err := links[0].Err(); err != nil {
		t.Fatalf("Err after orderly shutdown = %v", err)
	}
	if err := links[0].Send(1, cluster.TokenBatch{}); !errors.Is(err, cluster.ErrLinkClosed) {
		t.Fatalf("Send after CloseSend = %v, want ErrLinkClosed", err)
	}
}

// TestLoopbackPeerDeathDetected kills one endpoint abruptly (no EOF —
// what a crashed process looks like) and requires the survivors to
// fail the link with a typed *cluster.PeerDownError and fire the
// OnPeerDown callback.
func TestLoopbackPeerDeathDetected(t *testing.T) {
	var downRank atomic.Int32
	downRank.Store(-1)
	links := testLoopback(t, 3, Options{
		K: 1,
		OnPeerDown: func(self, rank int, err error) {
			downRank.Store(int32(rank))
		},
	})
	victim := links[2].(*TCP)
	victim.Abort()
	// Survivor 0's streams must end and report the failure.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-links[0].Recv():
			if ok {
				continue
			}
		case <-deadline:
			t.Fatal("survivor never noticed the dead peer")
		}
		break
	}
	var pd *cluster.PeerDownError
	if err := links[0].Err(); !errors.As(err, &pd) {
		t.Fatalf("Err = %v, want *cluster.PeerDownError", err)
	}
	if pd.Rank != 2 {
		t.Fatalf("down rank = %d, want 2", pd.Rank)
	}
	if downRank.Load() != 2 {
		t.Fatalf("OnPeerDown rank = %d, want 2", downRank.Load())
	}
	if err := links[0].Send(1, cluster.TokenBatch{}); err == nil {
		t.Fatal("Send on a failed link succeeded")
	}
}

// TestLoopbackHeartbeatTimeout covers the silent-peer case: the
// connection stays open but nothing arrives, so the heartbeat monitor
// must declare the peer down. The "silent" peer is a raw TCP server
// that completes a 2-machine rendezvous and then never writes again.
func TestLoopbackHeartbeatTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // fake coordinator for a 2-machine cluster
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		f, err := ReadFrame(conn)
		if err != nil || f.Type != FrameHello {
			return
		}
		sum, _, _ := decodeHello(f.Payload)
		c := &Coordinator{machines: 2, configSum: sum, opts: Options{K: 1}}
		WriteFrame(conn, FrameWelcome, 0, c.welcomePayload(1, []string{"", ""})) //nolint:errcheck
		if rf, err := ReadFrame(conn); err != nil || rf.Type != FrameReady {
			return
		}
		WriteFrame(conn, FrameGo, 0, nil) //nolint:errcheck
		// ... and then: silence. Keep the conn open so only the
		// heartbeat timeout can notice.
		time.Sleep(time.Minute)
		conn.Close()
	}()
	var fired atomic.Bool
	link, _, err := Join(context.Background(), ln.Addr().String(), "127.0.0.1:0", 0xbeef, Options{
		K:                 1,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
		OnPeerDown:        func(self, rank int, err error) { fired.Store(true) },
	})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer link.Close()
	select {
	case _, ok := <-link.Recv():
		if ok {
			t.Fatal("unexpected inbound batch")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("heartbeat timeout never fired")
	}
	var pd *cluster.PeerDownError
	if err := link.Err(); !errors.As(err, &pd) {
		t.Fatalf("Err = %v, want *cluster.PeerDownError", err)
	}
	if !fired.Load() {
		t.Fatal("OnPeerDown not invoked")
	}
}

func TestRendezvousConfigMismatchRejected(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", 2, 1111, nil, nil, Options{K: 1, RendezvousTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	coordErr := make(chan error, 1)
	go func() {
		_, err := coord.Run(context.Background())
		coordErr <- err
	}()
	_, _, err = Join(context.Background(), coord.Addr(), "127.0.0.1:0", 2222, Options{K: 1, RendezvousTimeout: 5 * time.Second})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("Join err = %v, want *RejectedError", err)
	}
	if err := <-coordErr; !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("coordinator err = %v, want ErrConfigMismatch", err)
	}
}

// TestRendezvousVersionMismatch: a coordinator speaking a different
// protocol version must be rejected by the joiner with a typed
// *VersionError, before any training state is exchanged.
func TestRendezvousVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ReadFrame(conn) //nolint:errcheck // the Hello
		raw := AppendFrame(nil, FrameWelcome, 0, []byte("future"))
		raw[4] = Version + 9 // a build from the future
		conn.Write(raw)      //nolint:errcheck
	}()
	_, _, err = Join(context.Background(), ln.Addr().String(), "127.0.0.1:0", 7, Options{K: 1, RendezvousTimeout: 5 * time.Second})
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Join err = %v, want *VersionError", err)
	}
	// And the coordinator side: a bad-version Hello is rejected too.
	coord, err := NewCoordinator("127.0.0.1:0", 2, 1, nil, nil, Options{K: 1, RendezvousTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	coordErr := make(chan error, 1)
	go func() {
		_, err := coord.Run(context.Background())
		coordErr <- err
	}()
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw := AppendFrame(nil, FrameHello, -1, helloPayload(1, "127.0.0.1:1"))
	raw[4] = Version + 1
	conn.Write(raw) //nolint:errcheck
	defer conn.Close()
	if err := <-coordErr; !errors.As(err, &ve) {
		t.Fatalf("coordinator err = %v, want *VersionError", err)
	}
}

// TestRendezvousBroadcastsOwnershipAndState: the Welcome must carry
// the ownership map and the resume state bit-for-bit.
func TestRendezvousBroadcastsOwnershipAndState(t *testing.T) {
	owner := []int32{0, 1, 1, 0, 2}
	st := &train.State{
		Algorithm: "nomad",
		Seed:      9,
		Updates:   1234,
		Model:     factor.NewInit(3, 5, 2, 9),
		Counts:    []int32{1, 2, 3},
		RNG:       [][4]uint64{{1, 2, 3, 4}},
	}
	coord, err := NewCoordinator("127.0.0.1:0", 2, 77, owner, st, Options{K: 2, RendezvousTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		link *TCP
		err  error
	}
	coordDone := make(chan res, 1)
	go func() {
		l, err := coord.Run(context.Background())
		coordDone <- res{l, err}
	}()
	link, hs, err := Join(context.Background(), coord.Addr(), "127.0.0.1:0", 77, Options{K: 2, RendezvousTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer link.Close()
	cr := <-coordDone
	if cr.err != nil {
		t.Fatalf("coordinator: %v", cr.err)
	}
	defer cr.link.Close()
	if link.Rank() != 1 || link.Machines() != 2 {
		t.Fatalf("rank/machines = %d/%d", link.Rank(), link.Machines())
	}
	if len(hs.Owner) != len(owner) {
		t.Fatalf("owner = %v", hs.Owner)
	}
	for i := range owner {
		if hs.Owner[i] != owner[i] {
			t.Fatalf("owner[%d] = %d, want %d", i, hs.Owner[i], owner[i])
		}
	}
	if hs.State == nil || hs.State.Updates != 1234 || hs.State.Seed != 9 || hs.State.Algorithm != "nomad" {
		t.Fatalf("state = %+v", hs.State)
	}
	if hs.State.Model.M != 3 || hs.State.Model.N != 5 || hs.State.Model.K != 2 {
		t.Fatalf("state model shape = %d×%d×%d", hs.State.Model.M, hs.State.Model.N, hs.State.Model.K)
	}
	for j := 0; j < 5; j++ {
		want := st.Model.ItemRow(j)
		got := hs.State.Model.ItemRow(j)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("state model drifted at item %d coord %d", j, c)
			}
		}
	}
}

func TestLoopbackStats(t *testing.T) {
	links := testLoopback(t, 2, Options{K: 1})
	if err := links[0].Send(1, cluster.TokenBatch{Tokens: []cluster.Token{{Item: 1, Vec: []float64{1}}}}); err != nil {
		t.Fatal(err)
	}
	<-links[1].Recv()
	st := links[0].Stats()
	if st.MessagesSent < 1 || st.BytesSent < int64(headerSize) {
		t.Fatalf("stats = %+v", st)
	}
}

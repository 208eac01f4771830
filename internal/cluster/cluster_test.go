package cluster

import (
	"testing"

	"nomad/internal/netsim"
)

// drainBatches closes the receiving side of a two-link sim cluster and
// collects everything machine 1 received. Both endpoints' send sides
// are closed first so the simulated network drains and shuts down.
func drainBatches(t *testing.T, c *SimCluster) []TokenBatch {
	t.Helper()
	links := c.Links()
	links[0].CloseSend() //nolint:errcheck
	links[1].CloseSend() //nolint:errcheck
	var batches []TokenBatch
	for inb := range links[1].Recv() {
		batches = append(batches, inb.Batch)
	}
	return batches
}

func TestSenderBatches(t *testing.T) {
	c := NewSimCluster(2, netsim.Instant(), 4)
	s := NewSender(c.Links()[0], 3, func() int { return 7 })
	for i := 0; i < 7; i++ {
		s.Add(1, Token{Item: int32(i), Vec: make([]float64, 4)})
	}
	// 7 tokens with batch size 3: two automatic flushes, one pending.
	if s.PendingTotal() != 1 {
		t.Fatalf("pending = %d, want 1", s.PendingTotal())
	}
	if err := s.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if s.PendingTotal() != 0 {
		t.Fatalf("pending after FlushAll = %d", s.PendingTotal())
	}
	batches := drainBatches(t, c)
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3", len(batches))
	}
	if len(batches[0].Tokens) != 3 || len(batches[1].Tokens) != 3 || len(batches[2].Tokens) != 1 {
		t.Fatalf("batch sizes: %d,%d,%d", len(batches[0].Tokens), len(batches[1].Tokens), len(batches[2].Tokens))
	}
	// Token order must be preserved end to end.
	next := int32(0)
	for _, b := range batches {
		if b.QueueLen != 7 {
			t.Fatalf("gossip payload = %d, want 7", b.QueueLen)
		}
		for _, tok := range b.Tokens {
			if tok.Item != next {
				t.Fatalf("token order broken: got %d want %d", tok.Item, next)
			}
			next++
		}
	}
}

func TestSenderFlushEmptyIsNoop(t *testing.T) {
	c := NewSimCluster(2, netsim.Instant(), 4)
	s := NewSender(c.Links()[0], 3, nil)
	if err := s.Flush(1); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if st := c.Links()[0].Stats(); st.MessagesSent != 0 {
		t.Fatal("empty flush sent messages")
	}
	c.Close()
}

func TestSenderWireSizeModelled(t *testing.T) {
	k := 10
	c := NewSimCluster(2, netsim.Instant(), k)
	link := c.Links()[0]
	s := NewSender(link, 100, nil)
	s.Add(1, Token{Item: 1, Vec: make([]float64, k)})
	s.Add(1, Token{Item: 2, Vec: make([]float64, k)})
	if err := s.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	want := int64(8 + 2*netsim.VectorWireSize(k))
	if st := link.Stats(); st.BytesSent != want {
		t.Fatalf("BytesSent = %d, want %d", st.BytesSent, want)
	}
	c.Close()
}

// TestSenderFlushAfterCloseIsSafe is the regression test for the
// teardown ordering hazard: a sender flushing after the underlying
// link has already closed (a peer machine exited first) must be
// an idempotent no-op, not a panic through the transport.
func TestSenderFlushAfterCloseIsSafe(t *testing.T) {
	c := NewSimCluster(2, netsim.Instant(), 2)
	link := c.Links()[0]
	s := NewSender(link, 10, nil)
	s.Add(1, Token{Item: 1, Vec: make([]float64, 2)})
	link.CloseSend() //nolint:errcheck // close under the sender's feet
	if err := s.FlushAll(); err != nil {
		t.Fatalf("FlushAll after close returned %v, want nil (inert)", err)
	}
	// Repeated calls stay no-ops.
	if err := s.FlushAll(); err != nil {
		t.Fatalf("second FlushAll: %v", err)
	}
	if err := s.Flush(1); err != nil {
		t.Fatalf("Flush after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after close: %v", err)
	}
	c.Close()
}

func TestSimLinkSendAfterCloseSendFails(t *testing.T) {
	c := NewSimCluster(2, netsim.Instant(), 1)
	link := c.Links()[0]
	link.CloseSend() //nolint:errcheck
	if err := link.Send(1, TokenBatch{}); err != ErrLinkClosed {
		t.Fatalf("Send after CloseSend = %v, want ErrLinkClosed", err)
	}
	if err := link.CloseSend(); err != nil {
		t.Fatalf("second CloseSend: %v", err)
	}
	c.Close()
}

func TestSimLinkCtlRoundTrip(t *testing.T) {
	c := NewSimCluster(3, netsim.Instant(), 1)
	links := c.Links()
	if err := links[0].SendCtl(2, 7, []byte("payload")); err != nil {
		t.Fatalf("SendCtl: %v", err)
	}
	if err := links[1].SendCtl(-1, 9, nil); err != nil {
		t.Fatalf("broadcast SendCtl: %v", err)
	}
	got := map[uint8]int{}
	for i := 0; i < 2; i++ {
		ct := <-links[2].Ctl()
		got[ct.Kind] = ct.From
		if ct.Kind == 7 && string(ct.Payload) != "payload" {
			t.Fatalf("payload = %q", ct.Payload)
		}
	}
	if got[7] != 0 || got[9] != 1 {
		t.Fatalf("ctl senders = %v", got)
	}
	c.Close()
}

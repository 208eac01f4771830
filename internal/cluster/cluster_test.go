package cluster

import "testing"

// fakeLink records what is sent through it, so the sender and chaos
// tests need no transport (the real one, internal/netlink, imports this
// package). Send deep-copies each batch, as the Link boundary rule
// requires of every implementation; methods no test calls are left to
// the embedded nil Link.
type fakeLink struct {
	Link
	rank, machines int
	closed         bool
	sent           [][]TokenBatch // per destination
	ctl            []Ctl          // sent control frames; From holds the destination
}

// fakeLinks returns a cluster of recording endpoints, indexed by rank.
func fakeLinks(machines int) ([]*fakeLink, []Link) {
	fakes, links := make([]*fakeLink, machines), make([]Link, machines)
	for r := range fakes {
		fakes[r] = &fakeLink{rank: r, machines: machines, sent: make([][]TokenBatch, machines)}
		links[r] = fakes[r]
	}
	return fakes, links
}

func (l *fakeLink) Rank() int     { return l.rank }
func (l *fakeLink) Machines() int { return l.machines }

func (l *fakeLink) Send(dst int, batch TokenBatch) error {
	if l.closed {
		return ErrLinkClosed
	}
	buf := GetBatchBuf()
	for _, t := range batch.Tokens {
		buf.Add(t.Item, t.Vec)
	}
	l.sent[dst] = append(l.sent[dst], buf.HandOff(batch.QueueLen))
	return nil
}

func (l *fakeLink) SendCtl(dst int, kind uint8, payload []byte) error {
	if l.closed {
		return ErrLinkClosed
	}
	l.ctl = append(l.ctl, Ctl{From: dst, Kind: kind, Payload: append([]byte(nil), payload...)})
	return nil
}

func (l *fakeLink) CloseSend() error {
	l.closed = true
	return nil
}

func (l *fakeLink) Stats() LinkStats {
	var st LinkStats
	for _, bs := range l.sent {
		st.MessagesSent += int64(len(bs))
	}
	return st
}

func TestSenderBatches(t *testing.T) {
	fakes, links := fakeLinks(2)
	s := NewSender(links[0], 3, func() int { return 7 })
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
	batches := fakes[0].sent[1]
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
	_, links := fakeLinks(2)
	s := NewSender(links[0], 3, nil)
	if err := s.Flush(1); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if st := links[0].Stats(); st.MessagesSent != 0 {
		t.Fatal("empty flush sent messages")
	}
}

// TestSenderWireSizeModelled: one flush is one message on the link,
// carrying every pending token with its k coordinates — what the
// codec then sizes on the wire.
func TestSenderWireSizeModelled(t *testing.T) {
	k := 10
	fakes, links := fakeLinks(2)
	s := NewSender(links[0], 100, nil)
	s.Add(1, Token{Item: 1, Vec: make([]float64, k)})
	s.Add(1, Token{Item: 2, Vec: make([]float64, k)})
	if err := s.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if st := links[0].Stats(); st.MessagesSent != 1 {
		t.Fatalf("MessagesSent = %d, want 1", st.MessagesSent)
	}
	b := fakes[0].sent[1][0]
	if len(b.Tokens) != 2 || len(b.Tokens[0].Vec) != k || len(b.Tokens[1].Vec) != k {
		t.Fatalf("message = %+v, want two tokens of %d coordinates", b, k)
	}
}

// TestSenderFlushAfterCloseIsSafe is the regression test for the
// teardown ordering hazard: a sender flushing after the underlying
// link has already closed (a peer machine exited first) must be
// an idempotent no-op, not a panic through the transport.
func TestSenderFlushAfterCloseIsSafe(t *testing.T) {
	_, links := fakeLinks(2)
	link := links[0]
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
}

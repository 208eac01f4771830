// Package cluster provides the machine-level plumbing shared by the
// distributed algorithms: nomadic token batching (§3.5: accumulate ~100
// (j, hⱼ) pairs per MPI message), the queue-length gossip payload that
// powers NOMAD's dynamic load balancing (§3.3), the Link transport
// interface, and the chaos wrapper that injects faults into a Link for
// the failover tests.
package cluster

import (
	"errors"
)

// Token is one nomadic item parameter in flight between machines: the
// item index and its current factor row hⱼ. Inside a machine the row
// lives in the model and only the index moves.
type Token struct {
	Item int32
	Vec  []float64
}

// TokenBatch is the unit of network transfer between machines. QueueLen
// carries the sender's current total queue length — the single-integer
// payload of §3.3 that lets receivers route work away from busy peers.
//
// A batch may be arena-backed (see BatchBuf): every token's Vec is
// then a view into one flat float64 payload. Inbound batches
// delivered by a Link own their arena; the consumer copies the
// vectors it needs and calls Release to recycle it.
type TokenBatch struct {
	Tokens   []Token
	QueueLen int

	// buf is the owning arena of a handed-off batch, nil for loose or
	// view-only batches.
	buf *BatchBuf
}

// Release returns an owned batch's arena to the shared pool and
// invalidates the batch's token views. It is a no-op for batches that
// own no arena, so consumers may call it unconditionally — but at
// most once per delivered batch, on the delivered value itself.
//
//nomad:noalloc
func (b *TokenBatch) Release() {
	if b.buf == nil {
		return
	}
	buf := b.buf
	b.buf, b.Tokens = nil, nil
	buf.Release()
}

// Sender accumulates outbound tokens per destination machine and
// flushes them as TokenBatch messages of up to BatchSize tokens over a
// Link. It is intended to be driven by a single sender goroutine per
// machine and is not safe for concurrent use.
//
// Add copies the token's vector into a per-destination arena
// (BatchBuf), so the caller keeps ownership of the vector and may
// recycle it as soon as Add returns; each Flush materializes the
// arena as a view batch, sends it, and Resets the arena — zero
// steady-state allocation.
type Sender struct {
	link      Link
	batchSize int
	queueLen  func() int  // sampled at flush time for the gossip payload
	bufs      []*BatchBuf // per-destination reusable arenas
	dead      []bool      // failover: destinations evicted from routing
	closed    bool
	err       error // first non-closure Send failure, surfaced until Close
}

// NewSender returns a Sender over the given link. queueLen supplies
// the gossip payload; it may be nil, in which case 0 is sent.
func NewSender(link Link, batchSize int, queueLen func() int) *Sender {
	if batchSize < 1 {
		batchSize = 1
	}
	if queueLen == nil {
		queueLen = func() int { return 0 }
	}
	s := &Sender{
		link:      link,
		batchSize: batchSize,
		queueLen:  queueLen,
		bufs:      make([]*BatchBuf, link.Machines()),
		dead:      make([]bool, link.Machines()),
	}
	for i := range s.bufs {
		s.bufs[i] = NewBatchBuf()
	}
	return s
}

// MarkDead evicts dst from the sender's routing: tokens still pending
// for it are dropped (the failover protocol regenerates them from the
// ownership report — they hold no bit anywhere, so they are counted
// missing) and every later Add/Flush toward dst is a no-op. Prefer
// Redirect when the tokens should survive locally instead.
func (s *Sender) MarkDead(dst int) {
	if s.dead[dst] {
		return
	}
	s.dead[dst] = true
	s.bufs[dst].Reset()
}

// Redirect re-routes every token pending for the dead destination to
// live destinations chosen by pick, then marks dead dead. pick must
// never return dead (or another dead destination). The re-adds flush
// through the normal batching path.
func (s *Sender) Redirect(dead int, pick func() int) {
	if s.dead[dead] {
		return
	}
	// The arena's views stay valid while we re-add: Add copies into
	// the destination arenas, and dead's arena is only Reset after.
	batch := s.bufs[dead].Batch(0)
	s.dead[dead] = true
	for _, t := range batch.Tokens {
		s.Add(pick(), t)
	}
	s.bufs[dead].Reset()
}

// Add enqueues a token for dst, flushing automatically when the batch
// for that destination is full. The token's vector is copied; the
// caller may reuse it as soon as Add returns.
//
//nomad:noalloc
func (s *Sender) Add(dst int, t Token) {
	if s.dead[dst] {
		return // evicted destination: counted missing, regenerated by failover
	}
	s.bufs[dst].Add(t.Item, t.Vec) //nomad:alloc-ok arena warm-up growth, amortized away on reuse
	if s.bufs[dst].Len() >= s.batchSize {
		s.Flush(dst) //nolint:errcheck // surfaced by the next FlushAll/Close
	}
}

// Flush sends any pending tokens for dst immediately. Once the
// underlying link reports closure the sender goes inert: the batch is
// dropped (a closed cluster can never deliver it) and every later
// Flush/FlushAll is a no-op instead of a panic through the transport —
// the teardown ordering hazard where a peer machine has already
// exited and closed the link under a straggling sender.
func (s *Sender) Flush(dst int) error {
	if s.closed {
		return s.err
	}
	if s.dead[dst] {
		return s.err
	}
	if s.bufs[dst].Len() == 0 {
		return s.err
	}
	if err := s.link.Send(dst, s.bufs[dst].Batch(s.queueLen())); err != nil {
		if errors.Is(err, ErrLinkClosed) {
			s.closed = true
			return nil // orderly teardown already ended the stream
		}
		var pd *PeerDownError
		if errors.As(err, &pd) && s.link.Err() == nil {
			// Failover: one peer died but the link as a whole is still
			// up. Evict the destination and drop the undeliverable
			// batch — its tokens hold no ownership bit anywhere, so
			// the reconfiguration protocol counts them missing and
			// regenerates them on the dead machine's buddy.
			s.MarkDead(dst)
			return nil
		}
		s.closed = true
		// Real failures (a downed peer outside failover mode, an
		// encode rejection) stick: every later Flush/FlushAll/Close
		// keeps reporting them, so a caller that only checks the final
		// Close still sees the root cause instead of a bare
		// conservation violation.
		s.err = err
		return err
	}
	s.bufs[dst].Reset() // Send copied or encoded; the arena is ours again
	return nil
}

// FlushAll sends every pending batch. It is idempotent and safe to
// call after the underlying link has been closed (the first closure
// marks the sender inert); a real transport failure keeps being
// reported.
func (s *Sender) FlushAll() error {
	if s.closed {
		return s.err
	}
	for dst := 0; dst < s.link.Machines(); dst++ {
		if err := s.Flush(dst); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes everything still pending and ends the machine's
// outbound stream. Idempotent.
func (s *Sender) Close() error {
	err := s.FlushAll()
	s.closed = true
	if cerr := s.link.CloseSend(); err == nil {
		err = cerr
	}
	return err
}

// PendingTotal reports how many tokens are buffered and unsent.
func (s *Sender) PendingTotal() int {
	n := 0
	for _, b := range s.bufs {
		n += b.Len()
	}
	return n
}

package cluster

// Arena-backed token batches: the allocation-free representation of
// the §3.5 unit of network transfer. A BatchBuf is one flat []float64
// payload plus one Token per vector whose Vec is a view into it, so
// building, encoding and decoding a batch never allocates per token.
// Senders keep one BatchBuf per destination and Reset it after every
// flush; receivers decode into pooled BatchBufs that the consumer
// returns with TokenBatch.Release once the tokens have been copied
// out — the explicit hand-off that lets one arena cycle between a
// connection's reader and the training runner forever.
//
// Ownership rules (see also Link.Send):
//
//   - A batch produced by (*BatchBuf).Batch is a view: the arena's
//     owner may Reset and refill it as soon as the batch's consumer
//     (a Link's Send) returns.
//   - A batch produced by (*BatchBuf).HandOff owns its arena: exactly
//     one consumer must call Release when the tokens are no longer
//     needed, after which every view into the batch is invalid.

import "sync"

// BatchBuf is a reusable arena for one TokenBatch: one flat float64
// payload every token vector is a view into, and those views, each
// carrying its item. AddVec appends a token's view as it fills the
// arena and re-points every view only when the payload reallocates, so
// Batch and HandOff hand the views out as they stand. The zero value
// is ready to use. A BatchBuf is not safe for concurrent use; the
// hand-off between goroutines is sequential (build → send → Release).
type BatchBuf struct {
	vals []float64
	toks []Token // toks[i].Vec is token i's stretch of vals, in order
}

// NewBatchBuf returns an empty, unpooled arena (senders keep theirs
// for the life of the run; use GetBatchBuf for the recycling pool).
func NewBatchBuf() *BatchBuf { return &BatchBuf{} }

// batchPool recycles decode-side arenas between a link's readers and
// the runner that consumes their batches.
var batchPool = sync.Pool{New: func() any { return new(BatchBuf) }}

// GetBatchBuf returns an empty arena from the shared pool. Pair it
// with HandOff so the consumer's Release recycles it.
func GetBatchBuf() *BatchBuf {
	b := batchPool.Get().(*BatchBuf)
	b.Reset()
	return b
}

// Release returns the arena to the shared pool. The caller must not
// touch the arena, or any batch materialized from it, afterwards.
//
//nomad:noalloc
func (b *BatchBuf) Release() { batchPool.Put(b) }

// Reset empties the arena, keeping its capacity.
//
//nomad:noalloc
func (b *BatchBuf) Reset() {
	b.vals = b.vals[:0]
	b.toks = b.toks[:0]
}

// Len returns the number of tokens accumulated.
func (b *BatchBuf) Len() int { return len(b.toks) }

// Add copies one token into the arena.
//
//nomad:noalloc
func (b *BatchBuf) Add(item int32, vec []float64) {
	copy(b.AddVec(item, len(vec)), vec)
}

// AddVec appends a token with an uninitialized k-coordinate vector
// and returns that vector for the caller to fill in place — the
// decode path writes wire floats straight into the arena through it.
// The caller must overwrite all k coordinates (reused arena capacity
// holds stale values).
//
//nomad:noalloc
func (b *BatchBuf) AddVec(item int32, k int) []float64 {
	start := len(b.vals)
	if start+k > cap(b.vals) {
		b.vals = append(b.vals, make([]float64, k)...) //nomad:alloc-ok arena warm-up growth, amortized away on reuse
		// The payload moved: every earlier view follows it.
		off := 0
		for i := range b.toks {
			n := len(b.toks[i].Vec)
			b.toks[i].Vec = b.vals[off : off+n : off+n]
			off += n
		}
	}
	b.vals = b.vals[:start+k]
	vec := b.vals[start : start+k : start+k]
	b.toks = append(b.toks, Token{Item: item, Vec: vec})
	return vec
}

// Batch returns the arena's tokens as a TokenBatch of views into the
// flat payload. The arena retains ownership: the caller may Reset and
// refill it as soon as the batch's consumer returns (Link.Send copies
// or encodes before returning).
//
//nomad:noalloc
func (b *BatchBuf) Batch(queueLen int) TokenBatch {
	return TokenBatch{Tokens: b.toks, QueueLen: queueLen}
}

// HandOff is Batch that transfers ownership to the batch: the consumer
// that finishes with the tokens calls TokenBatch.Release, which
// returns the arena to the shared pool.
//
//nomad:noalloc
func (b *BatchBuf) HandOff(queueLen int) TokenBatch {
	return TokenBatch{Tokens: b.toks, QueueLen: queueLen, buf: b}
}

package cluster

import (
	"testing"

	"nomad/internal/netsim"
)

func TestBatchBufViews(t *testing.T) {
	b := NewBatchBuf()
	b.Add(3, []float64{1, 2})
	b.Add(9, []float64{3, 4})
	copy(b.AddVec(12, 2), []float64{5, 6})
	batch := b.Batch(42)
	if batch.QueueLen != 42 || len(batch.Tokens) != 3 {
		t.Fatalf("batch = %+v", batch)
	}
	want := []struct {
		item int32
		vec  []float64
	}{{3, []float64{1, 2}}, {9, []float64{3, 4}}, {12, []float64{5, 6}}}
	for i, w := range want {
		tok := batch.Tokens[i]
		if tok.Item != w.item || len(tok.Vec) != len(w.vec) {
			t.Fatalf("token %d = %+v, want item %d", i, tok, w.item)
		}
		for c := range w.vec {
			if tok.Vec[c] != w.vec[c] {
				t.Fatalf("token %d coord %d = %v, want %v", i, c, tok.Vec[c], w.vec[c])
			}
		}
	}
	// Reset and refill: same arena, new contents, no stale tokens.
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.Add(7, []float64{8, 9})
	batch = b.Batch(1)
	if len(batch.Tokens) != 1 || batch.Tokens[0].Item != 7 || batch.Tokens[0].Vec[1] != 9 {
		t.Fatalf("refilled batch = %+v", batch)
	}
}

// TestBatchBufSteadyStateAllocFree pins the arena build path: after
// warm-up, accumulating and materializing a batch allocates nothing.
func TestBatchBufSteadyStateAllocFree(t *testing.T) {
	b := NewBatchBuf()
	vec := []float64{1, 2, 3, 4}
	for i := 0; i < 100; i++ {
		b.Add(int32(i), vec) // warm the arena to its working size
	}
	b.Batch(0)
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		for i := 0; i < 100; i++ {
			b.Add(int32(i), vec)
		}
		if got := b.Batch(7); len(got.Tokens) != 100 {
			t.Fatalf("batch has %d tokens", len(got.Tokens))
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch build allocates %.1f objects/op, want 0", allocs)
	}
}

func TestCloneBatchIsDeep(t *testing.T) {
	src := TokenBatch{QueueLen: 5, Tokens: []Token{{Item: 1, Vec: []float64{10, 20}}}}
	clone := CloneBatch(src)
	src.Tokens[0].Vec[0] = -1 // mutate the original after the boundary copy
	src.Tokens[0].Item = 99
	if clone.QueueLen != 5 || clone.Tokens[0].Item != 1 || clone.Tokens[0].Vec[0] != 10 {
		t.Fatalf("clone shares storage with its source: %+v", clone)
	}
	clone.Release()
	if clone.Tokens != nil {
		t.Fatal("Release must invalidate the clone's views")
	}
	// Double Release on the same value is a no-op, not a double-free.
	clone.Release()
}

// TestSenderCopiesOnAdd pins the ownership rule: the caller may reuse
// a token's vector as soon as Add returns, because the sender copied
// it into its per-destination arena.
func TestSenderCopiesOnAdd(t *testing.T) {
	c := NewSimCluster(2, netsim.Instant(), 2)
	s := NewSender(c.Links()[0], 10, nil)
	vec := []float64{1, 2}
	s.Add(1, Token{Item: 4, Vec: vec})
	vec[0], vec[1] = -7, -8 // recycled by the caller
	if err := s.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	batches := drainBatches(t, c)
	if len(batches) != 1 || len(batches[0].Tokens) != 1 {
		t.Fatalf("batches = %+v", batches)
	}
	got := batches[0].Tokens[0]
	if got.Item != 4 || got.Vec[0] != 1 || got.Vec[1] != 2 {
		t.Fatalf("delivered token %+v, want the pre-mutation values {4 [1 2]}", got)
	}
}

// TestSimLinkSendClonesBatch pins the boundary rule on the simulated
// network, which delivers payloads by reference: the caller's batch
// (a sender arena) must be reusable the moment
// Send returns.
func TestSimLinkSendClonesBatch(t *testing.T) {
	c := NewSimCluster(2, netsim.Instant(), 1)
	links := c.Links()
	vec := []float64{3}
	if err := links[0].Send(1, TokenBatch{Tokens: []Token{{Item: 2, Vec: vec}}}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	vec[0] = -1 // reuse the backing array immediately
	batches := drainBatches(t, c)
	if len(batches) != 1 || batches[0].Tokens[0].Vec[0] != 3 {
		t.Fatalf("delivered batch saw the caller's reuse: %+v", batches)
	}
}

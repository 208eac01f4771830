package cluster

import "testing"

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

// TestSenderCopiesOnAdd pins the ownership rule: the caller may reuse
// a token's vector as soon as Add returns, because the sender copied
// it into its per-destination arena.
func TestSenderCopiesOnAdd(t *testing.T) {
	fakes, links := fakeLinks(2)
	s := NewSender(links[0], 10, nil)
	vec := []float64{1, 2}
	s.Add(1, Token{Item: 4, Vec: vec})
	vec[0], vec[1] = -7, -8 // recycled by the caller
	if err := s.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	batches := fakes[0].sent[1]
	if len(batches) != 1 || len(batches[0].Tokens) != 1 {
		t.Fatalf("batches = %+v", batches)
	}
	got := batches[0].Tokens[0]
	if got.Item != 4 || got.Vec[0] != 1 || got.Vec[1] != 2 {
		t.Fatalf("delivered token %+v, want the pre-mutation values {4 [1 2]}", got)
	}
}

// TestBatchBufViewsFollowGrowth: the arena keeps each token's view as
// it fills and re-points the views when the payload reallocates, so
// tokens added across any number of reallocations each view exactly
// their own vector, at their own offset of the current payload —
// fresh, after Reset and reuse, and in an arena recycled through
// HandOff → Release → GetBatchBuf.
func TestBatchBufViewsFollowGrowth(t *testing.T) {
	const k = 3
	vec := func(item int32) []float64 { return []float64{float64(item), float64(item) + 0.5, -float64(item)} }
	fill := func(b *BatchBuf, first, n int32) {
		for i := first; i < first+n; i++ {
			if i%2 == 0 {
				b.Add(i, vec(i))
			} else {
				copy(b.AddVec(i, k), vec(i))
			}
		}
	}
	check := func(what string, b *BatchBuf, batch TokenBatch, first, n int32) {
		t.Helper()
		if len(batch.Tokens) != int(n) {
			t.Fatalf("%s: %d tokens, want %d", what, len(batch.Tokens), n)
		}
		for x, tok := range batch.Tokens {
			want := vec(first + int32(x))
			if tok.Item != first+int32(x) || len(tok.Vec) != k || cap(tok.Vec) != k {
				t.Fatalf("%s: token %d = %+v (cap %d), want item %d with a capped %d-vector",
					what, x, tok, cap(tok.Vec), first+int32(x), k)
			}
			if &tok.Vec[0] != &b.vals[x*k] {
				t.Fatalf("%s: token %d does not view the arena's current payload at offset %d", what, x, x*k)
			}
			for c := range want {
				if tok.Vec[c] != want[c] {
					t.Fatalf("%s: token %d coord %d = %v, want %v", what, x, c, tok.Vec[c], want[c])
				}
			}
		}
	}

	b := NewBatchBuf()
	fill(b, 0, 1)
	first := &b.vals[0]
	fill(b, 1, 200) // many reallocations of vals
	if &b.vals[0] == first {
		t.Fatal("the payload never reallocated: the test proves nothing")
	}
	check("across growth", b, b.Batch(0), 0, 201)

	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	fill(b, 1000, 300) // reuse past the warm capacity: grows again
	check("after Reset", b, b.Batch(0), 1000, 300)

	owned := b.HandOff(9)
	if owned.QueueLen != 9 {
		t.Fatalf("QueueLen = %d", owned.QueueLen)
	}
	check("handed off", b, owned, 1000, 300)
	owned.Release()
	b = GetBatchBuf()
	if b.Len() != 0 {
		t.Fatalf("pooled arena holds %d tokens", b.Len())
	}
	fill(b, 7, 50)
	check("recycled", b, b.HandOff(0), 7, 50)
	b.Release()
}

// TestSenderRedirectKeepsVectors: tokens pending for a dead
// destination are re-added to a live one with their own vectors.
func TestSenderRedirectKeepsVectors(t *testing.T) {
	fakes, links := fakeLinks(3)
	s := NewSender(links[0], 100, nil)
	for i := int32(0); i < 40; i++ {
		s.Add(1, Token{Item: i, Vec: []float64{float64(i), -float64(i)}})
	}
	s.Redirect(1, func() int { return 2 })
	if err := s.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	var got []Token
	for _, b := range fakes[0].sent[2] {
		got = append(got, b.Tokens...)
	}
	if len(fakes[0].sent[1]) != 0 {
		t.Fatal("the dead destination received a batch")
	}
	if len(got) != 40 {
		t.Fatalf("%d tokens redirected, want 40", len(got))
	}
	for x, tok := range got {
		if tok.Item != int32(x) || tok.Vec[0] != float64(x) || tok.Vec[1] != -float64(x) {
			t.Fatalf("redirected token %d = %+v", x, tok)
		}
	}
}

package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ req, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024},
	} {
		if got := NewRing[int](tc.req).Cap(); got != tc.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", tc.req, got, tc.want)
		}
	}
}

func TestRingFullEmptyBoundaries(t *testing.T) {
	r := NewRing[int](4)
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !r.Push(i) {
			t.Fatalf("push %d into non-full ring failed", i)
		}
	}
	if r.Push(99) {
		t.Fatal("push into full ring succeeded")
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d => %v,%v", i, v, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from emptied ring succeeded")
	}
	// Refilling after a full drain must work (indices keep running).
	if !r.Push(7) {
		t.Fatal("push after drain failed")
	}
	if v, ok := r.Pop(); !ok || v != 7 {
		t.Fatalf("pop after refill => %v,%v", v, ok)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing[int](8)
	// Drive the indices far past the capacity so every slot wraps many
	// times, interleaving pushes and pops at varying phase.
	next, expect := 0, 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < 1+round%7; i++ {
			if r.Push(next) {
				next++
			}
		}
		for i := 0; i < 1+(round/2)%5; i++ {
			v, ok := r.Pop()
			if !ok {
				break
			}
			if v != expect {
				t.Fatalf("round %d: popped %d, want %d", round, v, expect)
			}
			expect++
		}
	}
	for {
		v, ok := r.Pop()
		if !ok {
			break
		}
		if v != expect {
			t.Fatalf("drain: popped %d, want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d elements, pushed %d", expect, next)
	}
}

func TestRingBatchOps(t *testing.T) {
	r := NewRing[int](8)
	in := []int{0, 1, 2, 3, 4, 5}
	if n := r.PushBatch(in); n != 6 {
		t.Fatalf("PushBatch = %d, want 6", n)
	}
	// Only 2 slots left: a 5-element batch is partially accepted.
	if n := r.PushBatch([]int{6, 7, 8, 9, 10}); n != 2 {
		t.Fatalf("PushBatch into near-full ring = %d, want 2", n)
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	out := make([]int, 3)
	if n := r.PopBatch(out); n != 3 || out[0] != 0 || out[1] != 1 || out[2] != 2 {
		t.Fatalf("PopBatch => %d %v", n, out)
	}
	// Pop more than remains: partial batch.
	big := make([]int, 16)
	if n := r.PopBatch(big); n != 5 {
		t.Fatalf("PopBatch of remainder = %d, want 5", n)
	}
	for i, v := range big[:5] {
		if v != i+3 {
			t.Fatalf("drained order wrong at %d: %d", i, v)
		}
	}
	if n := r.PopBatch(big); n != 0 {
		t.Fatalf("PopBatch from empty = %d, want 0", n)
	}
	if n := r.PushBatch(nil); n != 0 {
		t.Fatalf("PushBatch(nil) = %d, want 0", n)
	}
}

func TestRingBatchWraparound(t *testing.T) {
	r := NewRing[int](8)
	next, expect := 0, 0
	buf := make([]int, 5)
	for round := 0; round < 500; round++ {
		in := []int{next, next + 1, next + 2}
		next += r.PushBatch(in)
		n := r.PopBatch(buf[:1+round%5])
		for i := 0; i < n; i++ {
			if buf[i] != expect {
				t.Fatalf("round %d: got %d want %d", round, buf[i], expect)
			}
			expect++
		}
	}
}

// TestRingSPSCConcurrent hammers one producer against one consumer,
// mixing single and batch operations, and checks exact FIFO delivery.
func TestRingSPSCConcurrent(t *testing.T) {
	const total = 40000
	r := NewRing[int](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for i < total {
			moved := false
			if i%3 == 0 {
				hi := i + 5
				if hi > total {
					hi = total
				}
				batch := make([]int, 0, 5)
				for v := i; v < hi; v++ {
					batch = append(batch, v)
				}
				n := r.PushBatch(batch)
				i += n
				moved = n > 0
			} else if r.Push(i) {
				i++
				moved = true
			}
			if !moved {
				runtime.Gosched() // single-core hosts: let the consumer run
			}
		}
	}()
	buf := make([]int, 7)
	expect := 0
	for expect < total {
		before := expect
		if expect%2 == 0 {
			n := r.PopBatch(buf)
			for i := 0; i < n; i++ {
				if buf[i] != expect {
					t.Fatalf("got %d want %d", buf[i], expect)
				}
				expect++
			}
		} else if v, ok := r.Pop(); ok {
			if v != expect {
				t.Fatalf("got %d want %d", v, expect)
			}
			expect++
		}
		if expect == before {
			runtime.Gosched() // single-core hosts: let the producer run
		}
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("ring not empty after exact-count drain: %d", r.Len())
	}
}

// TestMeshConservation runs p endpoints concurrently, each forwarding
// every received token to a pseudo-random destination, and verifies no
// token is lost or duplicated.
func TestMeshConservation(t *testing.T) {
	const p, tokens, moves = 4, 256, 10000
	m := NewMesh[int](p, 64)
	for tok := 0; tok < tokens; tok++ {
		if !m.Send(tok%p, tok%p, tok) {
			t.Fatalf("seed send %d failed", tok)
		}
	}
	var wg sync.WaitGroup
	var moved atomic.Int64 // global, so no endpoint exits while peers still need its tokens
	for q := 0; q < p; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			buf := make([]int, 16)
			rnd := uint64(q + 1)
			for moved.Load() < moves {
				n := m.RecvBatch(q, buf)
				if n == 0 {
					runtime.Gosched()
					continue
				}
				for i := 0; i < n; i++ {
					rnd = rnd*6364136223846793005 + 1442695040888963407
					dst := int(rnd>>33) % p
					for !m.Send(q, dst, buf[i]) {
						dst = (dst + 1) % p
						runtime.Gosched()
					}
				}
				moved.Add(int64(n))
			}
		}(q)
	}
	wg.Wait()
	got := 0
	for q := 0; q < p; q++ {
		m.Drain(q, func(int) { got++ })
	}
	if got != tokens {
		t.Fatalf("drained %d tokens, seeded %d", got, tokens)
	}
	if m.TotalLen() != 0 {
		t.Fatalf("TotalLen after drain = %d", m.TotalLen())
	}
}

func TestMeshApproxLen(t *testing.T) {
	m := NewMesh[int](3, 16)
	for i := 0; i < 5; i++ {
		m.Send(0, 2, i)
	}
	m.Send(1, 2, 99)
	if got := m.ApproxLen(2); got != 6 {
		t.Fatalf("ApproxLen(2) = %d, want 6", got)
	}
	if got := m.ApproxLen(0); got != 0 {
		t.Fatalf("ApproxLen(0) = %d, want 0", got)
	}
	buf := make([]int, 4)
	if n := m.RecvBatch(2, buf); n != 4 {
		t.Fatalf("RecvBatch = %d, want 4", n)
	}
	if got := m.ApproxLen(2); got != 2 {
		t.Fatalf("ApproxLen(2) after pop = %d, want 2", got)
	}
}

// TestMeshRecvFairness checks the round-robin cursor: a consumer whose
// first lane is always full must still drain the other lanes.
func TestMeshRecvFairness(t *testing.T) {
	m := NewMesh[int](3, 8)
	// Lane (0, src) gets tokens from every src.
	for src := 0; src < 3; src++ {
		for i := 0; i < 8; i++ {
			m.Send(src, 0, src*100+i)
		}
	}
	seen := map[int]bool{}
	buf := make([]int, 4)
	for len(seen) < 24 {
		n := m.RecvBatch(0, buf)
		if n == 0 {
			t.Fatalf("mesh dried up with %d of 24 tokens seen", len(seen))
		}
		for _, v := range buf[:n] {
			if seen[v] {
				t.Fatalf("token %d delivered twice", v)
			}
			seen[v] = true
		}
	}
}

func TestMeshDrainOrder(t *testing.T) {
	m := NewMesh[int](2, 8)
	// Drain must walk lanes src 0..p-1, FIFO within each.
	m.Send(0, 1, 10)
	m.Send(0, 1, 11)
	m.Send(1, 1, 20)
	var got []int
	m.Drain(1, func(v int) { got = append(got, v) })
	want := []int{10, 11, 20}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

// BenchmarkRingBatchTransfer is the transport microbench of the
// worker-scaling harness: tokens/s through one SPSC lane in blocks.
func BenchmarkRingBatchTransfer(b *testing.B) {
	r := NewRing[int32](1 << 12)
	const block = 64
	in := make([]int32, block)
	out := make([]int32, block)
	done := make(chan struct{})
	go func() {
		defer close(done)
		moved := 0
		for moved < b.N {
			moved += r.PopBatch(out)
		}
	}()
	for pushed := 0; pushed < b.N; {
		pushed += r.PushBatch(in)
	}
	<-done
}

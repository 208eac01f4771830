package queue

// Queue semantics of the Mesh as a whole — FIFO, emptiness, no loss
// under concurrency, per-producer order, length accounting — driven
// through the endpoint API the workers use.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFIFOSingleThread: one endpoint's self lane is a FIFO across many
// ring wraps, mixing batch sizes on both sides.
func TestFIFOSingleThread(t *testing.T) {
	m := NewMesh[int](1, 16)
	next, expect := 0, 0
	buf := make([]int, 3)
	for expect < 100 {
		in := make([]int, 0, 5)
		for v := next; v < min(next+5, 100); v++ {
			in = append(in, v)
		}
		next += m.SendBatch(0, 0, in)
		n := m.RecvBatch(0, buf)
		for _, v := range buf[:n] {
			if v != expect {
				t.Fatalf("popped %d, want %d", v, expect)
			}
			expect++
		}
	}
	if n := m.RecvBatch(0, buf); n != 0 {
		t.Fatalf("RecvBatch from drained mesh = %d", n)
	}
}

// TestEmptyPop: an empty mesh yields nothing on any endpoint, leaves
// the destination buffer untouched and reports no backlog.
func TestEmptyPop(t *testing.T) {
	m := NewMesh[string](3, 4)
	buf := []string{"keep"}
	for d := 0; d < m.P(); d++ {
		if n := m.RecvBatch(d, buf); n != 0 || buf[0] != "keep" {
			t.Fatalf("endpoint %d: empty mesh returned %d (%q)", d, n, buf[0])
		}
		if m.ApproxLen(d) != 0 {
			t.Fatalf("endpoint %d: empty mesh has backlog %d", d, m.ApproxLen(d))
		}
		m.Drain(d, func(v string) { t.Fatalf("endpoint %d: drained %q from empty mesh", d, v) })
	}
}

// TestNoLostElements runs every endpoint as producer and consumer at
// once, all-to-all through small lanes (so full lanes refuse sends and
// the producers retry), and checks that every element sent is received
// exactly once.
func TestNoLostElements(t *testing.T) {
	const p, perProducer = 4, 5000
	const total = p * perProducer
	m := NewMesh[int](p, 16)
	var received atomic.Int64
	results := make([][]int, p)
	var wg sync.WaitGroup
	for q := 0; q < p; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			out := make([][]int, p)
			buf := make([]int, 8)
			sent := 0
			for received.Load() < total {
				for ; sent < perProducer && len(out[sent%p]) < 8; sent++ {
					out[sent%p] = append(out[sent%p], q*perProducer+sent)
				}
				for d := range out {
					acc := m.SendBatch(q, d, out[d])
					out[d] = out[d][:copy(out[d], out[d][acc:])]
				}
				n := m.RecvBatch(q, buf)
				results[q] = append(results[q], buf[:n]...)
				received.Add(int64(n))
				if n == 0 {
					runtime.Gosched() // single-core hosts: let the peers run
				}
			}
		}(q)
	}
	wg.Wait()
	seen := make([]bool, total)
	count := 0
	for q, got := range results {
		for _, v := range got {
			if v%perProducer%p != q {
				t.Fatalf("element %d delivered to endpoint %d", v, q)
			}
			if seen[v] {
				t.Fatalf("element %d received twice", v)
			}
			seen[v] = true
			count++
		}
	}
	if count != total {
		t.Fatalf("received %d of %d elements", count, total)
	}
}

// TestPerProducerOrder: with several producers feeding one consumer
// concurrently, each producer's elements arrive in the order sent.
func TestPerProducerOrder(t *testing.T) {
	const p, perProducer = 4, 3000
	m := NewMesh[[2]int](p, 8)
	var wg sync.WaitGroup
	for src := 1; src < p; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < perProducer; {
				if m.Send(src, 0, [2]int{src, i}) {
					i++
				} else {
					runtime.Gosched()
				}
			}
		}(src)
	}
	last := []int{-1, -1, -1, -1}
	buf := make([][2]int, 5)
	for got := 0; got < (p-1)*perProducer; {
		n := m.RecvBatch(0, buf)
		if n == 0 {
			runtime.Gosched()
		}
		for _, v := range buf[:n] {
			if v[1] != last[v[0]]+1 {
				t.Fatalf("producer %d out of order: %d after %d", v[0], v[1], last[v[0]])
			}
			last[v[0]] = v[1]
		}
		got += n
	}
	wg.Wait()
}

// TestLenTracksApproximately: the backlog counts exactly what the lanes
// accepted — refused and partially accepted sends included — and drops
// with every receive and drain.
func TestLenTracksApproximately(t *testing.T) {
	m := NewMesh[int](2, 4)
	if n := m.SendBatch(0, 1, []int{1, 2, 3, 4, 5, 6}); n != 4 {
		t.Fatalf("SendBatch into a 4-slot lane accepted %d", n)
	}
	if m.Send(0, 1, 7) {
		t.Fatal("send into a full lane accepted")
	}
	m.Send(1, 1, 8)
	if got := m.ApproxLen(1); got != 5 {
		t.Fatalf("ApproxLen(1) = %d, want 5", got)
	}
	buf := make([]int, 2)
	m.RecvBatch(1, buf)
	if got := m.ApproxLen(1); got != 3 {
		t.Fatalf("ApproxLen(1) after receiving 2 = %d, want 3", got)
	}
	m.Send(1, 0, 9)
	if got := m.TotalLen(); got != 4 {
		t.Fatalf("TotalLen = %d, want 4", got)
	}
	m.Drain(1, func(int) {})
	if got := m.ApproxLen(1); got != 0 {
		t.Fatalf("ApproxLen(1) after drain = %d, want 0", got)
	}
	if got := m.TotalLen(); got != 1 {
		t.Fatalf("TotalLen after drain = %d, want 1", got)
	}
}

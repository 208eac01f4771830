package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nomad/internal/cluster"
	"nomad/internal/rng"
)

// The receiver's staged delivery on lanes far too small for its
// batches, so most tokens take the overflow path: stage → lane, or
// stage → pending → (retryPending) → lane. Whatever the interleaving
// with the consumers, each lane must hand out its tokens in the order
// they were delivered, pendingN must return to zero, and every one of
// the n tokens must come out exactly once.

const (
	deliveryTokens = 1000
	deliveryBatch  = 16
	deliveryK      = 4
)

// deliveryBatches cuts items 0..n-1, in order, into wire batches.
func deliveryBatches() [][]cluster.Token {
	var batches [][]cluster.Token
	for j := 0; j < deliveryTokens; j += deliveryBatch {
		var b []cluster.Token
		for i := j; i < j+deliveryBatch && i < deliveryTokens; i++ {
			b = append(b, cluster.Token{Item: int32(i), Vec: make([]float64, deliveryK)})
		}
		batches = append(batches, b)
	}
	return batches
}

// requireDelivered checks what the consumers popped, lane by lane.
// Items were delivered in increasing order, so FIFO lanes yield
// increasing items.
func requireDelivered(t *testing.T, mc *meshMachine, lanes [][]int32) {
	t.Helper()
	seen := make([]bool, deliveryTokens)
	total := 0
	for w, items := range lanes {
		for i, j := range items {
			if i > 0 && j <= items[i-1] {
				t.Fatalf("lane %d out of order: item %d popped after item %d", w, j, items[i-1])
			}
			if seen[j] {
				t.Fatalf("item %d delivered twice", j)
			}
			seen[j] = true
			total++
		}
	}
	if total != deliveryTokens {
		t.Fatalf("%d tokens came out of the lanes, %d went in", total, deliveryTokens)
	}
	if n := mc.pendingN.Load(); n != 0 {
		t.Fatalf("pendingN = %d after every token was popped", n)
	}
	if n := mc.mesh.TotalLen(); n != 0 {
		t.Fatalf("mesh still reports %d tokens", n)
	}
}

// TestMeshDeliveryOverflowSequential steps receiver and consumers by
// hand, so that every other batch arrives while its lanes have room
// again but older tokens are still parked: those batches must queue
// behind the parked tokens, not overtake them.
func TestMeshDeliveryOverflowSequential(t *testing.T) {
	const workers = 2
	mc := newMeshMachine(0, workers, 2, deliveryTokens, 1)
	r := rng.New(5)
	scratch := make([]int, workers)
	lanes := make([][]int32, workers)
	pop := func(max int) {
		buf := make([]*distToken, max)
		for w := 0; w < workers; w++ {
			for _, tok := range buf[:mc.mesh.RecvBatch(w, buf)] {
				lanes[w] = append(lanes[w], tok.tok.Item)
			}
		}
	}
	for i, b := range deliveryBatches() {
		if i%2 == 0 {
			mc.retryPending()
		}
		mc.deliverBatch(b, deliveryK, 1, r, scratch)
		parked := 0
		for _, toks := range mc.pending {
			parked += len(toks)
		}
		if n := mc.pendingN.Load(); n != int64(parked) {
			t.Fatalf("batch %d: pendingN = %d with %d tokens parked", i, n, parked)
		}
		if parked == 0 {
			t.Fatalf("batch %d: nothing overflowed a %d-slot lane", i, mc.mesh.RingCap())
		}
		pop(1)
	}
	for mc.pendingN.Load() > 0 || mc.mesh.TotalLen() > 0 {
		pop(3)
		mc.retryPending()
	}
	requireDelivered(t, mc, lanes)
}

// TestMeshDeliveryOverflowConcurrent runs the consumers as goroutines
// against the delivering receiver, the way workers run against
// runMeshReceiver; CI runs it under the race detector.
func TestMeshDeliveryOverflowConcurrent(t *testing.T) {
	const workers = 3
	mc := newMeshMachine(0, workers, 4, deliveryTokens, 1)
	lanes := make([][]int32, workers)
	var popped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf [5]*distToken
			for popped.Load() < deliveryTokens {
				k := mc.mesh.RecvBatch(w, buf[:])
				for _, tok := range buf[:k] {
					lanes[w] = append(lanes[w], tok.tok.Item)
				}
				popped.Add(int64(k))
				if k == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	r := rng.New(6)
	scratch := make([]int, workers)
	for _, b := range deliveryBatches() {
		mc.retryPending()
		mc.deliverBatch(b, deliveryK, 2, r, scratch)
	}
	for mc.pendingN.Load() > 0 {
		mc.retryPending()
		runtime.Gosched()
	}
	wg.Wait()
	requireDelivered(t, mc, lanes)
}

package core

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/factor"
	"nomad/internal/netlink"
	"nomad/internal/netsim"
	"nomad/internal/rng"
	"nomad/internal/train"
)

// The receiver's delivery on lanes far too small for its batches, so
// most tokens wait in pending for a later retryPending before they
// reach their lane. Whatever the interleaving
// with the consumers, each lane must hand out its tokens in the order
// they were delivered, pendingN must return to zero, every one of the
// n tokens must come out exactly once, and each token's vector must be
// in its model row.

const (
	deliveryTokens = 1000
	deliveryBatch  = 16
	deliveryK      = 4
)

// deliveryVec is the vector item j arrives with.
func deliveryVec(j int) []float64 {
	v := make([]float64, deliveryK)
	for l := range v {
		v[l] = float64(j) + float64(l)/8
	}
	return v
}

// deliveryBatches cuts items 0..n-1, in order, into wire batches.
func deliveryBatches() [][]cluster.Token {
	var batches [][]cluster.Token
	for j := 0; j < deliveryTokens; j += deliveryBatch {
		var b []cluster.Token
		for i := j; i < j+deliveryBatch && i < deliveryTokens; i++ {
			b = append(b, cluster.Token{Item: int32(i), Vec: deliveryVec(i)})
		}
		batches = append(batches, b)
	}
	return batches
}

// deliveryMachine is rank 0 of a machines-rank cluster over a fresh
// model of deliveryTokens items.
func deliveryMachine(workers, ringCap, machines, circulate int) *meshMachine {
	return newMeshMachine(0, workers, ringCap, machines, factor.New(1, deliveryTokens, deliveryK), circulate)
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
			if row := mc.md.ItemRow(int(j)); !slices.Equal(row, deliveryVec(int(j))) {
				t.Fatalf("item %d's row holds %v, delivered %v", j, row, deliveryVec(int(j)))
			}
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
	mc := deliveryMachine(workers, 2, 1, 1)
	r := rng.New(5)
	lanes := make([][]int32, workers)
	pop := func(max int) {
		buf := make([]itemToken, max)
		for w := 0; w < workers; w++ {
			for _, tok := range buf[:mc.mesh.RecvBatch(w, buf)] {
				lanes[w] = append(lanes[w], tok.item)
			}
		}
	}
	for i, b := range deliveryBatches() {
		if i%2 == 0 {
			mc.retryPending()
		}
		if bad := mc.deliverBatch(1, b, nil, r); bad >= 0 {
			t.Fatalf("batch %d: token %d rejected", i, bad)
		}
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
	mc := deliveryMachine(workers, 4, 1, 2)
	lanes := make([][]int32, workers)
	var popped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf [5]itemToken
			for popped.Load() < deliveryTokens {
				k := mc.mesh.RecvBatch(w, buf[:])
				for _, tok := range buf[:k] {
					lanes[w] = append(lanes[w], tok.item)
				}
				popped.Add(int64(k))
				if k == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	r := rng.New(6)
	for _, b := range deliveryBatches() {
		mc.retryPending()
		mc.deliverBatch(1, b, nil, r)
	}
	for mc.pendingN.Load() > 0 {
		mc.retryPending()
		runtime.Gosched()
	}
	wg.Wait()
	requireDelivered(t, mc, lanes)
}

// TestVisitPlansFollowedConcurrently runs worker goroutines that follow
// the plans the delivering receiver draws: the receiver writes a
// token's plan, and each worker holding the token reads and advances
// it, ordered only by the lanes' hand-off (CI runs it under the race
// detector). Every token must visit every worker Circulate times, the
// first stop included, and then leave.
func TestVisitPlansFollowedConcurrently(t *testing.T) {
	const workers, circulate = 3, 2
	mc := deliveryMachine(workers, deliveryTokens, 1, circulate) // lanes never fill
	visits := make([][]int, workers)
	var left atomic.Int64
	var wg sync.WaitGroup
	for w := range visits {
		visits[w] = make([]int, deliveryTokens)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf [8]itemToken
			for left.Load() < deliveryTokens {
				k := mc.mesh.RecvBatch(w, buf[:])
				for _, tok := range buf[:k] {
					visits[w][tok.item]++
					if d, ok := mc.plans.nextStop(int(tok.item)); !ok {
						left.Add(1)
					} else if !mc.mesh.Send(w, d, tok) {
						t.Errorf("lane %d→%d full", w, d)
					}
				}
				if k == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	r := rng.New(7)
	for _, b := range deliveryBatches() {
		mc.deliverBatch(1, b, nil, r)
	}
	wg.Wait()
	for w := range visits {
		for j, v := range visits[w] {
			if v != circulate {
				t.Fatalf("item %d visited worker %d %d times, want %d", j, w, v, circulate)
			}
		}
	}
}

// TestReceiverRejectsOutOfRangeItem sends the real receiver, through a
// link over in-memory connections, a batch whose second token names an
// item past the model.
// The run must be failed with an error naming the sending machine —
// not a panic on a model row, a rating list or an ownership bitmap —
// nothing of that batch may be delivered, and the receiver must keep
// draining until the stream ends.
func TestReceiverRejectsOutOfRangeItem(t *testing.T) {
	links := netlink.Pipe(2, netsim.Instant(), netlink.Options{K: deliveryK})
	defer func() {
		for _, l := range links {
			l.Close() //nolint:errcheck
		}
	}()
	mc := deliveryMachine(1, 64, 2, 1)
	batches := [][]cluster.Token{
		{{Item: 3, Vec: deliveryVec(3)}},
		{{Item: 7, Vec: deliveryVec(7)}, {Item: deliveryTokens + 5, Vec: deliveryVec(0)}},
		{{Item: 9, Vec: deliveryVec(9)}},
	}
	for _, b := range batches {
		if err := links[1].Send(0, cluster.TokenBatch{Tokens: b}); err != nil {
			t.Fatal(err)
		}
	}
	links[1].CloseSend() //nolint:errcheck
	links[0].CloseSend() //nolint:errcheck

	var errs []error
	runMeshReceiver(mc, links[0], rng.New(1), 0, nil, func(err error) { errs = append(errs, err) })
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "machine 1 sent item token 1005") {
		t.Fatalf("reject called with %v, want one error naming machine 1 and item 1005", errs)
	}
	var got []int32
	mc.mesh.Drain(0, func(tok itemToken) { got = append(got, tok.item) })
	if !slices.Equal(got, []int32{3}) {
		t.Fatalf("delivered %v, want only the batch before the bad one", got)
	}
	if row := mc.md.ItemRow(7); slices.Equal(row, deliveryVec(7)) {
		t.Fatal("the rejected batch's first token reached its model row")
	}
}

// TestReceiverFilesMarkers sends the real receiver, with a failover
// runtime, a token batch, a failover fence marker for epoch 3 and an
// end-of-circulation marker. The fence marker must reach the agent's
// inbox as its peer's marker input, neither marker may be stored as
// the peer's queue length, and the receiver must stop at the
// end-of-circulation marker.
func TestReceiverFilesMarkers(t *testing.T) {
	links := netlink.Pipe(2, netsim.Instant(), netlink.Options{K: deliveryK})
	defer func() {
		for _, l := range links {
			l.Close() //nolint:errcheck
		}
	}()
	mc := deliveryMachine(1, 64, 2, 1)
	if err := links[1].Send(0, cluster.TokenBatch{Tokens: []cluster.Token{{Item: 3, Vec: deliveryVec(3)}}, QueueLen: 42}); err != nil {
		t.Fatal(err)
	}
	sendMarkers(links[1], 3, nil)
	sendMarkers(links[1], 0, nil)

	cfg := baseConfig()
	cfg.Machines, cfg.Workers, cfg.Failover = 2, 1, true
	fo := newFailoverRuntime(cfg, nil, deliveryTokens, []*meshMachine{mc, deliveryMachine(1, 64, 2, 1)})
	runMeshReceiver(mc, links[0], rng.New(1), 1, fo, func(err error) { t.Errorf("reject: %v", err) })
	want := []foInput{{kind: inMarker, from: 1, foFrame: foFrame{epoch: 3}}}
	if got := fo.m[0].inbox; !reflect.DeepEqual(got, want) {
		t.Errorf("agent inbox %+v, want %+v", got, want)
	}
	if got := mc.lastKnown[1].Load(); got != 42 {
		t.Errorf("peer's queue length is %d, want 42 from its token batch", got)
	}
	var got []int32
	mc.mesh.Drain(0, func(tok itemToken) { got = append(got, tok.item) })
	if !slices.Equal(got, []int32{3}) {
		t.Fatalf("delivered %v, want [3]", got)
	}
}

// TestReceiverOverflowTrainsWithoutNextBatch delivers one batch, over a
// link, to a running machine whose lanes take two tokens, and sends
// nothing after it. The tokens the lane refused wait in the receiver's
// overflow; the worker that empties its lane and parks must have the
// receiver retry them, with no further batch to trigger it, so every
// token is trained and leaves through the port to the peer.
func TestReceiverOverflowTrainsWithoutNextBatch(t *testing.T) {
	const tokens = 16
	links := netlink.Pipe(2, netsim.Instant(), netlink.Options{K: deliveryK})
	defer func() {
		for _, l := range links {
			l.Close() //nolint:errcheck
		}
	}()
	mc := deliveryMachine(1, 2, 2, 1)
	var batch []cluster.Token
	for j := range tokens {
		batch = append(batch, cluster.Token{Item: int32(j), Vec: deliveryVec(j)})
	}
	if err := links[1].Send(0, cluster.TokenBatch{Tokens: batch}); err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Machines, cfg.K, cfg.MaxUpdates = 2, deliveryK, math.MaxInt64
	var stop atomic.Bool
	mr := &machineRun{cfg: cfg, counter: train.NewCounter(2), stop: &stop,
		reject: func(err error) { t.Errorf("reject: %v", err) }, linkErr: func() {}}
	empty := &localRatings{colPtr: make([]int32, deliveryTokens+1)}
	mr.runMachine(mc, links[0], []*localRatings{empty}, 0, rng.New(1), rng.New(2))

	seen := map[int32]bool{}
	deadline := time.After(10 * time.Second)
	for len(seen) < tokens {
		select {
		case inb := <-links[1].Recv():
			for _, tok := range inb.Batch.Tokens {
				seen[tok.Item] = true
			}
			inb.Batch.Release()
		case <-deadline:
			t.Fatalf("%d of %d tokens left the machine; %d still wait in its overflow", len(seen), tokens, mc.pendingN.Load())
		}
	}
	stop.Store(true)
	links[1].CloseSend() //nolint:errcheck
	joinMachines([]*meshMachine{mc})
}

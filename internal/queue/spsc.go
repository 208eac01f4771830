// Package queue provides the token transport that carries NOMAD's
// nomadic item tokens between workers: a mesh of bounded
// single-producer single-consumer rings with batch push/pop (Mesh),
// built from Ring.
//
// The original implementation used Intel TBB's concurrent_queue, which
// the paper notes is "technically not lock-free" but scales nearly
// linearly (§3.5): the queue is not NOMAD's bottleneck. The mesh keeps
// that property without any lock on the token path, amortizes its
// atomics over blocks of tokens, and reports each endpoint's
// approximate backlog with one atomic load, which NOMAD's dynamic load
// balancing (§3.3) uses to route tokens toward lightly loaded workers.
// An endpoint with nothing to do parks until a token or an event that
// is not a token wakes it.
package queue

import (
	"sync/atomic"
)

// A generic body is compiled only where it is instantiated, and
// nomadlint checks the //nomad:noalloc claims of the methods below in
// this package's own compile: instantiate them here.
var _ = NewMesh[int32]

// Ring is a bounded single-producer single-consumer FIFO ring buffer.
// Capacity is rounded up to a power of two so positions wrap with a
// mask instead of a modulo; head and tail live on separate cache lines
// so the producer and consumer never false-share. Steady-state
// operation allocates nothing.
//
// Exactly one goroutine may push and exactly one may pop at a time;
// the two may run concurrently. A full drain (Pop until empty) is safe
// from any single goroutine once producers have stopped.
type Ring[T any] struct {
	buf  []T
	mask uint64

	_ [cacheLinePad]byte
	// head is the next unread slot, advanced by the consumer. The
	// consumer caches the producer's tail to avoid one atomic load per
	// op in the common non-empty case.
	head       atomic.Uint64
	cachedTail uint64

	_ [cacheLinePad]byte
	// tail is the next free slot, advanced by the producer, which
	// symmetrically caches the consumer's head.
	tail       atomic.Uint64
	cachedHead uint64

	_ [cacheLinePad]byte
}

// cacheLinePad separates producer- and consumer-owned fields. 128
// bytes covers adjacent-line prefetchers on current x86 parts.
const cacheLinePad = 128

// NewRing returns an empty ring holding at least capacity elements.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 2 {
		capacity = 2
	}
	c := uint64(1)
	for c < uint64(capacity) {
		c <<= 1
	}
	return &Ring[T]{buf: make([]T, c), mask: c - 1}
}

// Cap returns the ring's fixed capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the current element count. It is exact when the ring is
// quiescent and approximate (never negative) under concurrency.
func (r *Ring[T]) Len() int {
	t, h := r.tail.Load(), r.head.Load()
	if t < h {
		return 0
	}
	return int(t - h)
}

// Push appends v and reports whether there was room.
//
//nomad:noalloc
func (r *Ring[T]) Push(v T) bool {
	t := r.tail.Load()
	if t-r.cachedHead == uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead == uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	return true
}

// Pop removes and returns the oldest element, or reports false if the
// ring is (momentarily) empty.
//
//nomad:noalloc
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	h := r.head.Load()
	if h == r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h == r.cachedTail {
			return zero, false
		}
	}
	v := r.buf[h&r.mask]
	r.buf[h&r.mask] = zero // release references for GC
	r.head.Store(h + 1)
	return v, true
}

// PushBatch appends as many elements of vs as fit, in order, and
// returns how many were accepted. One atomic release publishes the
// whole batch.
//
//nomad:noalloc
func (r *Ring[T]) PushBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	t := r.tail.Load()
	free := uint64(len(r.buf)) - (t - r.cachedHead)
	if free < uint64(len(vs)) {
		r.cachedHead = r.head.Load()
		free = uint64(len(r.buf)) - (t - r.cachedHead)
	}
	n := len(vs)
	if uint64(n) > free {
		n = int(free)
	}
	for i := 0; i < n; i++ {
		r.buf[(t+uint64(i))&r.mask] = vs[i]
	}
	if n > 0 {
		r.tail.Store(t + uint64(n))
	}
	return n
}

// PopBatch removes up to len(dst) oldest elements into dst, in order,
// and returns how many were moved. One atomic release frees the whole
// batch.
//
//nomad:noalloc
func (r *Ring[T]) PopBatch(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	h := r.head.Load()
	avail := r.cachedTail - h
	if avail < uint64(len(dst)) {
		r.cachedTail = r.tail.Load()
		avail = r.cachedTail - h
	}
	n := len(dst)
	if uint64(n) > avail {
		n = int(avail)
	}
	var zero T
	for i := 0; i < n; i++ {
		p := (h + uint64(i)) & r.mask
		dst[i] = r.buf[p]
		r.buf[p] = zero
	}
	if n > 0 {
		r.head.Store(h + uint64(n))
	}
	return n
}

// paddedInt64 is an atomic counter on its own cache line, so the
// consumers' round-robin cursors never false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [cacheLinePad - 8]byte
}

// endpoint is one endpoint's shared line: the approximate backlog of
// its row and its waiter flags. The flags share the backlog's padded
// line, so a producer's check of them, right after its Add, loads a
// line that the Add already owns.
type endpoint struct {
	n    atomic.Int64 // approximate backlog, one Add per batch
	wait atomic.Int32 // running, parkedEmpty or parkedHolding
	full atomic.Bool  // a parkedHolding producer waits for room in a lane of this row
	_    [cacheLinePad - 16]byte
}

// An endpoint's waiter states.
const (
	running       = iota
	parkedEmpty   // parked, holding nothing
	parkedHolding // parked, holding tokens that a full lane refused
)

// Mesh is the batched token transport: a p×p grid of SPSC rings where
// ring (dst, src) carries tokens from endpoint src to endpoint dst.
// Each endpoint owns one consumer role (its row) and one producer role
// per destination (its column), so every ring has exactly one producer
// and one consumer, and no token operation allocates or takes a lock,
// except the channel send that wakes a parked endpoint.
//
// Per-destination backlog estimates are kept in cache-line-padded
// atomics, updated with one Add per batch; ApproxLen is a single
// atomic load, which is what NOMAD's §3.3 load-balance gossip reads.
//
// An endpoint with nothing to do parks (Park) on a one-slot wake
// channel, and whoever ends its wait signals it: a producer, whose
// Send loads the waiter flag after its backlog Add and signals only a
// parked endpoint; a consumer that frees room for a producer parked on
// a full lane; and Wake, for events that are not tokens. Go atomics
// are sequentially consistent, so the parker's "publish the flag, then
// re-check the row" and the producer's "publish the token, then load
// the flag" cannot both miss: no wake is lost.
type Mesh[T any] struct {
	p     int
	rings []*Ring[T]      // rings[dst*p+src]
	ends  []endpoint      // backlog and waiter flags per destination
	curs  []paddedInt64   // consumer round-robin cursor per destination
	wake  []chan struct{} // one slot per endpoint: a pending wake
}

// NewMesh returns a p×p mesh whose rings hold at least ringCap
// elements each.
func NewMesh[T any](p, ringCap int) *Mesh[T] {
	if p < 1 {
		p = 1
	}
	m := &Mesh[T]{
		p:     p,
		rings: make([]*Ring[T], p*p),
		ends:  make([]endpoint, p),
		curs:  make([]paddedInt64, p),
		wake:  make([]chan struct{}, p),
	}
	for i := range m.rings {
		m.rings[i] = NewRing[T](ringCap)
	}
	for d := range m.wake {
		m.wake[d] = make(chan struct{}, 1)
	}
	return m
}

// P returns the endpoint count.
func (m *Mesh[T]) P() int { return m.p }

// RingCap returns the per-lane ring capacity.
func (m *Mesh[T]) RingCap() int { return m.rings[0].Cap() }

// Send enqueues v from src to dst and reports whether the lane had
// room. Only endpoint src may call it for a given src.
//
//nomad:noalloc
func (m *Mesh[T]) Send(src, dst int, v T) bool {
	if !m.rings[dst*m.p+src].Push(v) {
		return false
	}
	m.arrived(dst, 1)
	return true
}

// SendBatch enqueues as many elements of vs as fit from src to dst, in
// order, returning how many were accepted.
//
//nomad:noalloc
func (m *Mesh[T]) SendBatch(src, dst int, vs []T) int {
	n := m.rings[dst*m.p+src].PushBatch(vs)
	if n > 0 {
		m.arrived(dst, n)
	}
	return n
}

// arrived counts n tokens just published into dst's row and wakes dst
// if it is parked.
//
//nomad:noalloc
func (m *Mesh[T]) arrived(dst, n int) {
	e := &m.ends[dst]
	e.n.Add(int64(n))
	if e.wait.Load() != running {
		m.Wake(dst)
	}
}

// RecvBatch dequeues up to len(dst) elements addressed to endpoint d,
// sweeping the row's lanes round-robin from where the previous call
// stopped so no producer is starved. Only endpoint d may call it.
//
//nomad:noalloc
func (m *Mesh[T]) RecvBatch(d int, dst []T) int {
	row := m.rings[d*m.p : (d+1)*m.p]
	start := int(m.curs[d].v.Load())
	got := 0
	for i := 0; i < m.p && got < len(dst); i++ {
		lane := start + i
		if lane >= m.p {
			lane -= m.p
		}
		n := row[lane].PopBatch(dst[got:])
		got += n
		if got == len(dst) {
			// Batch filled mid-sweep: resume at the NEXT lane so a lane
			// that a fast producer keeps full cannot starve the others.
			next := lane + 1
			if next >= m.p {
				next = 0
			}
			m.curs[d].v.Store(int64(next))
		}
	}
	if got > 0 {
		e := &m.ends[d]
		e.n.Add(int64(-got))
		// The row has room again: a producer parked on a full lane of it
		// retries. Rare, so every such producer is woken.
		if e.full.Load() && e.full.Swap(false) {
			for s := range m.ends {
				if m.ends[s].wait.Load() == parkedHolding {
					m.Wake(s)
				}
			}
		}
	}
	return got
}

// ApproxLen returns the approximate backlog of endpoint d: one atomic
// load, no locks. The value is what §3.3 least-loaded routing compares.
//
//nomad:noalloc
func (m *Mesh[T]) ApproxLen(d int) int { return int(m.ends[d].n.Load()) }

// TotalLen returns the approximate total number of tokens in the mesh.
//
//nomad:noalloc
func (m *Mesh[T]) TotalLen() int {
	n := 0
	for d := 0; d < m.p; d++ {
		n += m.ApproxLen(d)
	}
	return n
}

// Drain removes every element addressed to endpoint d, in lane order
// (src 0..p-1, FIFO within each lane), calling fn for each. It must
// only run after all producers have stopped.
func (m *Mesh[T]) Drain(d int, fn func(T)) {
	n := 0
	for src := 0; src < m.p; src++ {
		ring := m.rings[d*m.p+src]
		for {
			v, ok := ring.Pop()
			if !ok {
				break
			}
			fn(v)
			n++
		}
	}
	if n > 0 {
		m.ends[d].n.Add(int64(-n))
	}
}

// Park blocks endpoint d, whose row was just found empty, until a
// token is sent to it or Wake(d) is called. holding says d still holds
// tokens that a full lane refused; such a parker also wakes when a row
// it marked with Blocked frees room. Park first publishes d as parked,
// then runs recheck (nil for none), then looks at d's row once more:
// recheck reporting progress, or a token in the row, ends the park at
// once. recheck is where d re-tests whatever else ends its wait and
// where a holding d marks the rows it waits on and retries its sends.
// Only endpoint d may call it.
func (m *Mesh[T]) Park(d int, holding bool, recheck func() bool) {
	e := &m.ends[d]
	state := int32(parkedEmpty)
	if holding {
		state = parkedHolding
	}
	e.wait.Store(state)
	if (recheck == nil || !recheck()) && e.n.Load() <= 0 {
		<-m.wake[d]
	}
	e.wait.Store(running)
}

// Blocked marks row dst as refusing a parked producer's tokens: the
// next RecvBatch of dst that frees room wakes every parkedHolding
// endpoint. A producer calls it from Park's recheck, before it retries
// its sends, so either the retry sees the room or the consumer sees the
// mark.
func (m *Mesh[T]) Blocked(dst int) { m.ends[dst].full.Store(true) }

// Wake ends endpoint d's park, or its next one if it is not parked: a
// wake that finds no parker is kept in d's slot. It is for events that
// are not tokens, such as a stop; Send wakes a parked destination
// itself.
//
//nomad:noalloc
func (m *Mesh[T]) Wake(d int) {
	m.ends[d].wait.Store(running)
	select {
	case m.wake[d] <- struct{}{}:
	default:
	}
}

// Idle reports whether endpoint d is parked holding nothing.
func (m *Mesh[T]) Idle(d int) bool { return m.ends[d].wait.Load() == parkedEmpty }

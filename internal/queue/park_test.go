package queue

import (
	"runtime"
	"testing"
	"time"
)

// waitOrFail fails the test if done is not closed within a minute: a
// lost wake leaves an endpoint parked for good.
func waitOrFail(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("%s: still parked after a minute (lost wake)", what)
	}
}

// TestMeshParkPingPong passes one token back and forth between two
// endpoints, each of which parks whenever its row is empty, so that
// every round is a park and a wake on each side. A wake lost between a
// parker's re-check and a producer's flag load hangs the exchange.
func TestMeshParkPingPong(t *testing.T) {
	const rounds = 100_000
	m := NewMesh[int](2, 4)
	done := make(chan struct{})
	echo := func(q int) {
		var buf [1]int
		for {
			if m.RecvBatch(q, buf[:]) == 0 {
				m.Park(q, false, nil)
				continue
			}
			if buf[0] == rounds {
				return
			}
			if q == 1 && buf[0] < rounds {
				buf[0]++ // endpoint 1 counts the rounds
			}
			if m.SendBatch(q, 1-q, buf[:]) != 1 {
				t.Error("a one-token lane refused the token")
				return
			}
			if buf[0] == rounds {
				return
			}
		}
	}
	m.Send(0, 1, 0)
	go echo(1)
	go func() { defer close(done); echo(0) }()
	waitOrFail(t, done, "ping-pong")
}

// TestMeshParkHoldingWakesOnRoom sends tokens through a two-slot lane
// whose producer parks holding what the lane refused, and whose
// consumer parks whenever its row is empty. The producer must wake when
// the consumer frees room (Blocked), and every token must arrive once,
// in order.
func TestMeshParkHoldingWakesOnRoom(t *testing.T) {
	const tokens = 20_000
	m := NewMesh[int](2, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf [1]int
		for want := 0; want < tokens; {
			if m.RecvBatch(1, buf[:]) == 0 {
				m.Park(1, false, nil)
				continue
			}
			if buf[0] != want {
				t.Errorf("got token %d, want %d", buf[0], want)
				return
			}
			want++
		}
	}()
	go func() {
		out := make([]int, 0, 8)
		flush := func() bool {
			n := m.SendBatch(0, 1, out)
			out = out[:copy(out, out[n:])]
			return n > 0
		}
		for next := 0; next < tokens || len(out) > 0; {
			for len(out) < cap(out) && next < tokens {
				out = append(out, next)
				next++
			}
			if !flush() {
				m.Park(0, true, func() bool {
					m.Blocked(1)
					return flush()
				})
			}
		}
	}()
	waitOrFail(t, done, "holding producer")
}

// TestMeshWakeWithoutProducer wakes endpoints no token is sent to: a
// wake before the park is kept for it, and a wake during the park ends
// it.
func TestMeshWakeWithoutProducer(t *testing.T) {
	m := NewMesh[int](2, 4)
	m.Wake(1)
	kept := make(chan struct{})
	go func() { defer close(kept); m.Park(1, false, nil) }()
	waitOrFail(t, kept, "wake before park")

	parked := make(chan struct{})
	go func() { defer close(parked); m.Park(0, false, nil) }()
	for !m.Idle(0) {
		runtime.Gosched()
	}
	m.Wake(0)
	waitOrFail(t, parked, "wake during park")
	if m.Idle(0) || m.Idle(1) {
		t.Fatal("a woken endpoint still reads as parked")
	}
}

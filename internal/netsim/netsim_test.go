package netsim

import (
	"sync"
	"testing"
	"time"
)

func TestDeliveryInstant(t *testing.T) {
	n := New(2, Instant())
	n.Send(0, 1, 100, "hello")
	msg := <-n.Recv(1)
	if msg.From != 0 || msg.To != 1 || msg.Size != 100 || msg.Payload != "hello" {
		t.Fatalf("bad message: %+v", msg)
	}
	n.Shutdown()
}

func TestCounters(t *testing.T) {
	n := New(2, Instant())
	n.Send(0, 1, 64, nil)
	n.Send(1, 0, 36, nil)
	<-n.Recv(1)
	<-n.Recv(0)
	if n.BytesSent() != 100 {
		t.Fatalf("BytesSent = %d, want 100", n.BytesSent())
	}
	if n.MessagesSent() != 2 {
		t.Fatalf("MessagesSent = %d, want 2", n.MessagesSent())
	}
	n.Shutdown()
}

func TestPerSenderFIFO(t *testing.T) {
	n := New(2, Instant())
	const count = 1000
	for i := 0; i < count; i++ {
		n.Send(0, 1, 8, i)
	}
	for i := 0; i < count; i++ {
		msg := <-n.Recv(1)
		if msg.Payload.(int) != i {
			t.Fatalf("out of order: got %v at position %d", msg.Payload, i)
		}
	}
	n.Shutdown()
}

func TestShutdownClosesInboxesAfterDrain(t *testing.T) {
	n := New(2, Instant())
	n.Send(0, 1, 8, "last")
	done := make(chan bool)
	go func() {
		var sawLast, closed bool
		for msg := range n.Recv(1) {
			if msg.Payload == "last" {
				sawLast = true
			}
		}
		closed = true
		done <- sawLast && closed
	}()
	n.Shutdown()
	if !<-done {
		t.Fatal("receiver did not observe message then close")
	}
}

func TestSendAfterShutdownIsNoop(t *testing.T) {
	n := New(2, Instant())
	n.Shutdown()
	n.Send(0, 1, 8, nil) // must not panic or deadlock
}

func TestDoubleShutdown(t *testing.T) {
	n := New(1, Instant())
	n.Shutdown()
	n.Shutdown() // must be idempotent
}

func TestSendOutOfRangePanics(t *testing.T) {
	n := New(2, Instant())
	defer n.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Send(0, 5, 8, nil)
}

func TestLatencyDelaysDelivery(t *testing.T) {
	p := Profile{Name: "slow", Latency: 30 * time.Millisecond}
	n := New(2, p)
	start := time.Now()
	n.Send(0, 1, 8, nil)
	<-n.Recv(1)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("message arrived after %v, want >= ~30ms", elapsed)
	}
	n.Shutdown()
}

func TestBandwidthThrottles(t *testing.T) {
	// 1 MB over a 10 MB/s link must take >= ~100ms of serialization.
	p := Profile{Name: "thin", Bandwidth: 10e6}
	n := New(2, p)
	start := time.Now()
	n.Send(0, 1, 1_000_000, nil)
	n.Send(0, 1, 8, "marker") // queued behind the big one
	for msg := range n.Recv(1) {
		if msg.Payload == "marker" {
			break
		}
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("1MB over 10MB/s took only %v", elapsed)
	}
	n.Shutdown()
}

func TestManySendersNoLoss(t *testing.T) {
	const machines, per = 8, 500
	n := New(machines, Instant())
	var wg sync.WaitGroup
	for m := 0; m < machines; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.Send(m, (m+1)%machines, 8, m*per+i)
			}
		}(m)
	}
	received := make(chan int, machines*per)
	var rg sync.WaitGroup
	for m := 0; m < machines; m++ {
		rg.Add(1)
		go func(m int) {
			defer rg.Done()
			for msg := range n.Recv(m) {
				received <- msg.Payload.(int)
			}
		}(m)
	}
	wg.Wait()
	n.Shutdown()
	rg.Wait()
	close(received)
	seen := make(map[int]bool)
	for v := range received {
		if seen[v] {
			t.Fatalf("message %d delivered twice", v)
		}
		seen[v] = true
	}
	if len(seen) != machines*per {
		t.Fatalf("received %d of %d messages", len(seen), machines*per)
	}
}

func TestWireSizes(t *testing.T) {
	if BlockWireSize(10, 100) != 16+8000 {
		t.Fatalf("BlockWireSize(10,100) = %d", BlockWireSize(10, 100))
	}
}

func TestProfiles(t *testing.T) {
	if HPC().Latency >= Commodity().Latency {
		t.Fatal("HPC latency should be below commodity")
	}
	if HPC().Bandwidth <= Commodity().Bandwidth {
		t.Fatal("HPC bandwidth should exceed commodity")
	}
}

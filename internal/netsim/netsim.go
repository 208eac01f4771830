// Package netsim simulates the inter-machine network that the paper's
// distributed experiments run over (MVAPICH2 on the Stampede HPC
// cluster, MPICH2 over ~1 Gb/s Ethernet on AWS m1.xlarge nodes).
//
// Machines are goroutine groups in one process; what netsim adds is the
// *cost* of communication: every message is charged a per-message
// latency plus a serialization delay (size ÷ link bandwidth) on the
// sender's egress link, so senders with more outbound traffic really do
// fall behind, exactly the effect that separates the commodity-cluster
// results (Fig 11) from the HPC results (Fig 8). It comes in two forms
// with one pacer: Mesh's in-memory connections, which NOMAD's TCP link
// runs over on the sim backend, and Network, which carries the
// bulk-synchronous baselines' factor blocks.
//
// Delays shorter than a scheduling quantum are accumulated as a backlog
// and slept in batches, so modelled bandwidth stays accurate even when
// individual messages are microseconds long.
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Profile describes a network technology.
type Profile struct {
	Name      string
	Latency   time.Duration // one-way propagation + software stack delay
	Bandwidth float64       // bytes per second per egress link; 0 = infinite
}

// HPC models a high-performance interconnect (InfiniBand-class):
// microsecond latency, multi-GB/s links.
func HPC() Profile {
	return Profile{Name: "hpc", Latency: 5 * time.Microsecond, Bandwidth: 3e9}
}

// Commodity models the paper's AWS setup: ~1 Gb/s Ethernet with
// sub-millisecond but substantial latency.
func Commodity() Profile {
	return Profile{Name: "commodity", Latency: 300 * time.Microsecond, Bandwidth: 125e6}
}

// Instant is a zero-cost network for unit tests.
func Instant() Profile { return Profile{Name: "instant"} }

// Message is one delivered network message.
type Message struct {
	From, To int
	Size     int // modelled wire size in bytes
	Payload  any
}

// Network connects a fixed set of machines. Construct with New; it
// must be Shutdown when the run finishes.
type Network struct {
	profile  Profile
	machines int

	egress  []chan Message // per-sender serialization queue
	inbox   []chan Message
	wg      sync.WaitGroup
	closed  atomic.Bool
	pending sync.WaitGroup // in-flight latency timers

	bytesSent atomic.Int64
	msgsSent  atomic.Int64
}

// New creates a network of the given number of machines.
func New(machines int, p Profile) *Network {
	if machines <= 0 {
		panic(fmt.Sprintf("netsim: invalid machine count %d", machines))
	}
	n := &Network{
		profile:  p,
		machines: machines,
		egress:   make([]chan Message, machines),
		inbox:    make([]chan Message, machines),
	}
	for i := 0; i < machines; i++ {
		n.egress[i] = make(chan Message, 1024)
		n.inbox[i] = make(chan Message, 1024)
		n.wg.Add(1)
		go n.courier(i)
	}
	return n
}

// pacer is one machine's egress link: each message occupies it for
// size ÷ bandwidth after everything charged before it, which is through
// at free. A sender sleeps that backlog off, its own message included,
// once it reaches a quantum, outside the lock.
type pacer struct {
	mu   sync.Mutex
	bw   float64 // bytes per second; 0 = infinite
	free time.Time
}

func (p *pacer) charge(size int) {
	if p.bw <= 0 {
		return
	}
	const quantum = 200 * time.Microsecond
	p.mu.Lock()
	now := time.Now()
	if p.free.Before(now) {
		p.free = now
	}
	p.free = p.free.Add(time.Duration(float64(size) / p.bw * float64(time.Second)))
	backlog := p.free.Sub(now)
	p.mu.Unlock()
	if backlog >= quantum {
		time.Sleep(backlog)
	}
}

// courier serializes machine id's outbound messages onto its egress
// link, then schedules delivery after the propagation latency.
func (n *Network) courier(id int) {
	defer n.wg.Done()
	egress := pacer{bw: n.profile.Bandwidth}
	for msg := range n.egress[id] {
		egress.charge(msg.Size)
		n.deliver(msg)
	}
}

// deliver hands the message to the destination inbox after the
// latency, without blocking the egress link.
func (n *Network) deliver(msg Message) {
	if n.profile.Latency <= 0 {
		n.inbox[msg.To] <- msg
		return
	}
	n.pending.Add(1)
	time.AfterFunc(n.profile.Latency, func() {
		defer n.pending.Done()
		n.inbox[msg.To] <- msg
	})
}

// Machines returns the number of machines on the network.
func (n *Network) Machines() int { return n.machines }

// Send transmits a payload of the given modelled size from one machine
// to another. It panics on out-of-range machine ids and is a no-op
// after Shutdown.
func (n *Network) Send(from, to, size int, payload any) {
	if from < 0 || from >= n.machines || to < 0 || to >= n.machines {
		panic(fmt.Sprintf("netsim: send %d→%d out of range", from, to))
	}
	if n.closed.Load() {
		return
	}
	n.msgsSent.Add(1)
	n.bytesSent.Add(int64(size))
	n.egress[from] <- Message{From: from, To: to, Size: size, Payload: payload}
}

// Recv returns machine id's inbox channel. The channel is closed by
// Shutdown after all in-flight messages have been delivered.
func (n *Network) Recv(id int) <-chan Message { return n.inbox[id] }

// Shutdown stops accepting sends, waits for in-flight messages to be
// delivered, and closes all inboxes. Receivers should drain their
// inbox until it is closed.
func (n *Network) Shutdown() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	for _, e := range n.egress {
		close(e)
	}
	n.wg.Wait()      // couriers done scheduling deliveries
	n.pending.Wait() // latency timers fired
	for _, in := range n.inbox {
		close(in)
	}
}

// BytesSent returns the cumulative modelled bytes accepted for sending.
func (n *Network) BytesSent() int64 { return n.bytesSent.Load() }

// MessagesSent returns the cumulative number of messages sent.
func (n *Network) MessagesSent() int64 { return n.msgsSent.Load() }

// BlockWireSize returns the modelled wire size of a factor block of
// rows×k float64s plus a small header, as exchanged by the
// bulk-synchronous baselines.
func BlockWireSize(rows, k int) int { return 16 + 8*rows*k }

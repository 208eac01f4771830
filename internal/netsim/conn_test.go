package netsim

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// TestConnFIFOPerDirection: each direction delivers its bytes in the
// order they were written, independently of the other direction.
func TestConnFIFOPerDirection(t *testing.T) {
	conns := Mesh(2, Instant())
	a, b := conns[0][1], conns[1][0]
	if _, self := conns[0][0]; self || len(conns[1]) != 1 {
		t.Fatal("a machine has a connection to itself")
	}
	done := make(chan error, 2)
	write := func(w io.Writer, base byte) {
		for i := 0; i < 1000; i++ {
			if _, err := w.Write([]byte{base + byte(i%7), byte(i), byte(i >> 8)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}
	go write(a, 0)
	go write(b, 100)
	for _, tc := range []struct {
		r    io.Reader
		base byte
	}{{b, 0}, {a, 100}} {
		got := make([]byte, 3000)
		if _, err := io.ReadFull(tc.r, got); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			if want := []byte{tc.base + byte(i%7), byte(i), byte(i >> 8)}; !bytes.Equal(got[3*i:3*i+3], want) {
				t.Fatalf("write %d from base %d arrived as %v, want %v", i, tc.base, got[3*i:3*i+3], want)
			}
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConnWriterBlocksWhenFull: a writer that fills the buffer waits
// until the reader drains it, like a socket's sender.
func TestConnWriterBlocksWhenFull(t *testing.T) {
	conns := Mesh(2, Instant())
	a, b := conns[0][1], conns[1][0]
	if _, err := a.Write(make([]byte, bufSize)); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := a.Write([]byte{1, 2, 3})
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("write into a full buffer returned (%v) before the reader drained it", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := io.ReadFull(b, make([]byte, bufSize/2)); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	rest := make([]byte, bufSize/2+3)
	if _, err := io.ReadFull(b, rest); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest[len(rest)-3:], []byte{1, 2, 3}) {
		t.Fatalf("blocked write arrived as %v", rest[len(rest)-3:])
	}
}

// TestConnCloseGivesPeerEOF: the peer reads what was written before
// the close, then io.EOF; its writes fail, and the closed end's own
// reads fail.
func TestConnCloseGivesPeerEOF(t *testing.T) {
	conns := Mesh(2, Instant())
	a, b := conns[0][1], conns[1][0]
	if _, err := a.Write([]byte("last")); err != nil {
		t.Fatal(err)
	}
	a.Close() //nolint:errcheck
	got, err := io.ReadAll(b)
	if err != nil || string(got) != "last" {
		t.Fatalf("peer read %q, %v; want \"last\" then EOF", got, err)
	}
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after EOF = %v, want io.EOF", err)
	}
	if _, err := b.Write([]byte{1}); err == nil {
		t.Fatal("write toward a closed end succeeded")
	}
	if _, err := a.Read(make([]byte, 1)); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("read on the closed end = %v, want a closed-connection error", err)
	}
}

func TestConnLatencyDelaysDelivery(t *testing.T) {
	conns := Mesh(2, Profile{Name: "slow", Latency: 30 * time.Millisecond})
	start := time.Now()
	if _, err := conns[0][1].Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conns[1][0].Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("byte arrived after %v, want >= ~30ms", elapsed)
	}
}

// TestConnBandwidthSharedEgress: one machine's connections share its
// egress link, so 0.5 MB written to each of two peers at once over
// 10 MB/s takes the serialization time of the whole 1 MB.
func TestConnBandwidthSharedEgress(t *testing.T) {
	conns := Mesh(3, Profile{Name: "thin", Bandwidth: 10e6})
	start := time.Now()
	errs := make(chan error, 2)
	for _, dst := range []int{1, 2} {
		go io.Copy(io.Discard, conns[dst][0]) //nolint:errcheck // ends at the close below
		go func() {
			var err error
			for i := 0; i < 10 && err == nil; i++ {
				_, err = conns[0][dst].Write(make([]byte, 50_000))
			}
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("1MB over a shared 10MB/s egress took only %v", elapsed)
	}
	conns[0][1].Close() //nolint:errcheck
	conns[0][2].Close() //nolint:errcheck
}

package netlink

import (
	"bytes"
	"slices"
	"testing"

	"nomad/internal/factor"
	"nomad/internal/train"
)

// FuzzDecodeHello: arbitrary payloads must never panic the Hello
// decoder, and an accepted one must re-encode to its exact bytes.
func FuzzDecodeHello(f *testing.F) {
	f.Add(helloPayload(1, "127.0.0.1:7070"))
	f.Add(helloPayload(^uint64(0), ""))
	f.Add([]byte{})
	f.Add(append(helloPayload(2, "h:1"), 0))
	f.Fuzz(func(t *testing.T, p []byte) {
		sum, addr, err := decodeHello(p)
		if err != nil {
			return
		}
		if re := helloPayload(sum, addr); !bytes.Equal(re, p) {
			t.Fatalf("accepted hello re-encodes to %x, payload is %x", re, p)
		}
	})
}

// FuzzDecodeWelcome: arbitrary payloads must never panic the Welcome
// decoder — the first peer bytes a joining worker trusts. An accepted
// Welcome must name a worker rank of a real cluster with one address
// per machine, and survive an encode/decode round trip unchanged.
func FuzzDecodeWelcome(f *testing.F) {
	owner := []int32{0, 2, 1, 0}
	addrs := []string{"127.0.0.1:7070", "10.0.0.2:1", ""}
	st := &train.State{Algorithm: "nomad", Seed: 7, Updates: 40, Model: factor.NewInit(3, 4, 2, 7), Counts: []int32{1, 2}}
	f.Add(encodeWelcome(1, 3, 2, 9, owner, addrs, nil))
	f.Add(encodeWelcome(2, 3, 16, 0, nil, addrs, st))
	f.Add([]byte{})
	short := encodeWelcome(1, 3, 2, 9, owner, addrs, nil)
	f.Add(short[:len(short)-3])
	f.Fuzz(func(t *testing.T, p []byte) {
		rank, machines, k, sum, own, as, s, err := decodeWelcome(p)
		if err != nil {
			return
		}
		if rank < 1 || rank >= machines || k < 1 || len(as) != machines {
			t.Fatalf("accepted welcome: rank %d of %d, k %d, %d addresses", rank, machines, k, len(as))
		}
		rank2, machines2, k2, sum2, own2, as2, s2, err := decodeWelcome(encodeWelcome(rank, machines, k, sum, own, as, s))
		if err != nil {
			t.Fatalf("accepted welcome fails to round-trip: %v", err)
		}
		if rank2 != rank || machines2 != machines || k2 != k || sum2 != sum ||
			!slices.Equal(own2, own) || !slices.Equal(as2, as) || (s2 == nil) != (s == nil) {
			t.Fatal("welcome changed in an encode/decode round trip")
		}
	})
}

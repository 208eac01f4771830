package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"nomad/internal/factor"
)

// TestDecodeUserRowsRejects: a user-row payload that names a user
// outside the model, or whose length disagrees with its count, is
// refused whole at both of the decoder's call sites — the multi-process
// gather, which writes the coordinator's model, and failover's replica
// store, whose rows a buddy later installs into its own model. The bad
// user sits in the second row, so a decoder that stored as it went
// would leave the first behind.
func TestDecodeUserRowsRejects(t *testing.T) {
	const m, k = userRowsM, userRowsK
	src, good, bad := userRowCases()
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			md := factor.New(m, 1, k)
			if err := decodeUserRows(tc.payload, m, k, md.SetUserRowFrom64); err == nil {
				t.Error("gather accepted the payload")
			}
			if slices.ContainsFunc(md.WData(), func(v float64) bool { return v != 0 }) {
				t.Error("gather stored a row")
			}
			fm := &foMachine{replicas: map[int]*replicaStore{}}
			if err := fm.storeReplRows(1, tc.payload, m, k); err == nil {
				t.Error("replica store accepted the payload")
			}
			if len(fm.replicas) != 0 {
				t.Error("replica store kept a row")
			}
		})
	}
	md := factor.New(m, 1, k)
	if err := decodeUserRows(good, m, k, md.SetUserRowFrom64); err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{4, 0} {
		if !slices.Equal(md.UserRow(u), src.UserRow(u)) {
			t.Errorf("user %d round-trips to %v, want %v", u, md.UserRow(u), src.UserRow(u))
		}
	}
}

// The shape of userRowCases' payloads.
const userRowsM, userRowsK = 5, 3

type userRowCase struct {
	name    string
	payload []byte
}

// userRowCases returns a model, the appendRows frame of its users
// 4 and 0, and that frame broken four ways: its second user set to M
// and to -1, and its length one byte short and one byte long.
func userRowCases() (src *factor.Model, good []byte, bad []userRowCase) {
	const m, k = userRowsM, userRowsK
	src = factor.NewInit(m, 1, k, 1)
	good = appendRows(nil, []int32{4, 0}, k, src.CopyUserRowTo64)
	withUser := func(u int32) []byte {
		p := slices.Clone(good)
		binary.LittleEndian.PutUint32(p[4+4+8*k:], uint32(u))
		return p
	}
	return src, good, []userRowCase{
		{"user_M", withUser(m)},
		{"user_-1", withUser(-1)},
		{"one_byte_short", good[:len(good)-1]},
		{"one_byte_long", append(slices.Clone(good), 0)},
	}
}

// FuzzDecodeUserRows feeds the peer-facing user-row decoder arbitrary
// bytes for a small model. It must never panic; an error must put
// nothing; a success must put exactly the declared count of rows, each
// for a user in [0, m); and the puts, written back in the frame layout,
// must reproduce the payload byte for byte.
func FuzzDecodeUserRows(f *testing.F) {
	_, good, bad := userRowCases()
	f.Add(good, uint8(userRowsM), uint8(userRowsK))
	for _, tc := range bad {
		f.Add(tc.payload, uint8(userRowsM), uint8(userRowsK))
	}
	f.Fuzz(func(t *testing.T, p []byte, m8, k8 uint8) {
		m, k := int(m8%64), int(k8%9)
		var re []byte
		puts := 0
		err := decodeUserRows(p, m, k, func(u int, row []float64) {
			if u < 0 || u >= m {
				t.Fatalf("put user %d outside [0,%d)", u, m)
			}
			if len(row) != k {
				t.Fatalf("put a row of %d values, want %d", len(row), k)
			}
			puts++
			re = binary.LittleEndian.AppendUint32(re, uint32(u))
			for _, v := range row {
				re = binary.LittleEndian.AppendUint64(re, math.Float64bits(v))
			}
		})
		if err != nil {
			if puts != 0 {
				t.Fatalf("error %v after %d puts", err, puts)
			}
			return
		}
		if count := int(binary.LittleEndian.Uint32(p)); puts != count {
			t.Fatalf("%d puts for a declared count of %d", puts, count)
		}
		frame := append(binary.LittleEndian.AppendUint32(nil, uint32(puts)), re...)
		if !bytes.Equal(frame, p) {
			t.Fatalf("puts re-encode to %x, payload is %x", frame, p)
		}
	})
}

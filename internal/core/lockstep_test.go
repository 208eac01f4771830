package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/train"
	"nomad/internal/vecmath"
)

// TestLockstepModelDigest pins the lockstep runner's result: the model
// and the exported step counts of a fixed run must hash to what the
// runner produced before it trained on the model rows through runBlock
// (recorded there with this same test). K = 16 has a two-list kernel,
// so runBlock runs its lanes; K = 8 has none, so every token is a
// barrier. Both backends must give the same digest.
//
// On this shape the result does not depend on W: each machine's users
// are one contiguous range, split in order among its workers, and a
// token visits them in worker order, so W = 2, 3 and 4 hash alike. One
// W is enough.
func TestLockstepModelDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 2 M updates per run")
	}
	if !vecmath.SIMDEnabled() {
		t.Skip("the digests are the AVX2/FMA kernels'; other dispatches round differently")
	}
	spec := dataset.NetflixLike(0.01)
	spec.Seed = 7
	ds, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{
		16: "bb9281033322e0ac92cedcee6120d97070c52a880fbfca2d4e962a4ab52d891d",
		8:  "bf2d1db137e778238758ad0cea049a00d4c0945423d5d959f3ce5eef7968df45",
	}
	for _, k := range []int{16, 8} {
		for _, backend := range []string{"sim", "tcp"} {
			t.Run(fmt.Sprintf("k%d_%s", k, backend), func(t *testing.T) {
				cfg := train.SynthDefaults("netflix-like")
				cfg.K = k
				cfg.Machines, cfg.Workers = 3, 2
				cfg.Lockstep, cfg.Backend = true, backend
				cfg.Epochs, cfg.EvalPoints, cfg.Seed = 2, 1, 7
				res := runNomad(t, ds, cfg)
				if got := resultDigest(t, res); got != want[k] {
					t.Errorf("digest %s, want %s", got, want[k])
				}
			})
		}
	}
}

// resultDigest hashes a run's saved model, its update total and its
// exported per-rating step counts.
func resultDigest(t *testing.T, res *train.Result) string {
	t.Helper()
	h := sha256.New()
	if err := res.Model.WriteBinary(h); err != nil {
		t.Fatal(err)
	}
	b := binary.LittleEndian.AppendUint64(nil, uint64(res.Updates))
	for _, c := range res.Final.Counts {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// TestDecodeUserRowsRejects: a user-row payload that names a user
// outside the model, or whose length disagrees with its count, is
// refused whole at both of the decoder's call sites — lockstep's gather,
// which writes the coordinator's model, and failover's replica store,
// whose rows a buddy later installs into its own model. The bad user
// sits in the second row, so a decoder that stored as it went would
// leave the first behind.
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
			a := &foAgent{fo: &failoverRuntime{K: k, md: md}, replicas: map[int]*replicaStore{}}
			if err := a.storeReplRows(1, tc.payload); err == nil {
				t.Error("replica store accepted the payload")
			}
			if len(a.replicas) != 0 {
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

// userRowCases returns a model, the appendUserRows frame of its users
// 4 and 0, and that frame broken four ways: its second user set to M
// and to -1, and its length one byte short and one byte long.
func userRowCases() (src *factor.Model, good []byte, bad []userRowCase) {
	const m, k = userRowsM, userRowsK
	src = factor.NewInit(m, 1, k, 1)
	good = appendUserRows(nil, src, []int32{4, 0})
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

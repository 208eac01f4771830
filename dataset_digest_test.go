package nomad

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"nomad/internal/dataset"
)

// TestSynthesizeDigest pins the generator's output bit for bit: the
// shape, every train triple in row-major order (value bits included)
// and every test entry in order, for each profile at two seeds. The
// generator samples in one serial loop and computes values in
// parallel, so every case also runs at GOMAXPROCS 1 and 4 and the two
// digests must agree. Outside -short it also recomputes the
// benchmark's FNV-64 input digest of its two training shapes at seed
// 7 (bench/inputs.go's digestDataset) and asserts the values
// bench/spec.go pins, so a generator change that would make the
// benchmark refuse its inputs fails here first.
func TestSynthesizeDigest(t *testing.T) {
	cases := []struct {
		spec dataset.Spec
		want map[uint64]string // by seed
	}{
		{dataset.NetflixLike(0.002), map[uint64]string{7: "0441af4e1bc64bfc", 42: "11d539a6a5a07dca"}},
		{dataset.YahooLike(0.0005), map[uint64]string{7: "60332da46ed7e53f", 42: "e1ff385c8a6d8237"}},
		{dataset.HugewikiLike(0.00005), map[uint64]string{7: "7c1e34cacce1507b", 42: "94c3756f2e2cdcc7"}},
		{dataset.LongtailLike(0.01), map[uint64]string{7: "14720af9ecdbbe85", 42: "f0f501a185a3e608"}},
		{dataset.Grow(2, 0.001), map[uint64]string{7: "856cb0a61a56eb8e", 42: "433a168f12f20607"}},
	}
	// The pins are amd64's: other GOARCHes may fuse the generator's
	// multiply-adds and use other math.Log code, so there only the
	// GOMAXPROCS agreement is checked.
	pinned := runtime.GOARCH == "amd64"
	for _, c := range cases {
		for _, seed := range []uint64{7, 42} {
			spec := c.spec
			spec.Seed = seed
			t.Run(fmt.Sprintf("%s/seed%d", spec.Name, seed), func(t *testing.T) {
				var got [2]string
				for x, procs := range []int{1, 4} {
					prev := runtime.GOMAXPROCS(procs)
					ds, err := spec.Generate()
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatal(err)
					}
					h := sha256.New()
					digestSplit(h, ds)
					got[x] = hex.EncodeToString(h.Sum(nil))[:16]
				}
				if got[0] != got[1] {
					t.Fatalf("digest %s at GOMAXPROCS 1, %s at 4", got[0], got[1])
				}
				if want := c.want[seed]; pinned && got[0] != want {
					t.Errorf("digest %s, want %s", got[0], want)
				}
			})
		}
	}

	if testing.Short() || !pinned {
		t.Skip("the benchmark shapes synthesize 5.6 M ratings; their pins are amd64's")
	}
	for _, c := range []struct {
		profile string
		scale   float64
		want    string
	}{
		{"netflix", 0.05, "4c73d741b9c89158"},
		{"longtail", 0.5, "b26f40d8803936f1"},
	} {
		ds, err := Synthesize(c.profile, c.scale, 7)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		digestRowMajor(h, ds)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
			t.Errorf("%s %v: benchmark input digest %s, want %s", c.profile, c.scale, got, c.want)
		}
	}
}

// digestSplit hashes a train/test split: shape, train triples
// row-major, then test entries in order.
func digestSplit(h hash.Hash, ds *dataset.Dataset) {
	var buf [16]byte
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(ds.Rows()))
	le.PutUint32(buf[4:], uint32(ds.Cols()))
	le.PutUint32(buf[8:], uint32(ds.Train.NNZ()))
	le.PutUint32(buf[12:], uint32(len(ds.Test)))
	h.Write(buf[:])
	triple := func(i, j int32, v float64) {
		le.PutUint32(buf[0:], uint32(i))
		le.PutUint32(buf[4:], uint32(j))
		le.PutUint64(buf[8:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for i := 0; i < ds.Rows(); i++ {
		cols, vals := ds.Train.Row(i)
		for x, j := range cols {
			triple(int32(i), j, vals[x])
		}
	}
	for _, e := range ds.Test {
		triple(e.Row, e.Col, e.Val)
	}
}

// digestRowMajor is the benchmark's input digest of a training
// workload: shape, then every train rating row-major.
func digestRowMajor(h hash.Hash64, ds *Dataset) {
	var buf [16]byte
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(ds.Users()))
	le.PutUint32(buf[4:], uint32(ds.Items()))
	le.PutUint64(buf[8:], uint64(ds.TrainSize()))
	h.Write(buf[:])
	for u := 0; u < ds.Users(); u++ {
		for _, r := range ds.UserRatings(u) {
			le.PutUint32(buf[0:], uint32(r.User))
			le.PutUint32(buf[4:], uint32(r.Item))
			le.PutUint64(buf[8:], math.Float64bits(r.Value))
			h.Write(buf[:])
		}
	}
}

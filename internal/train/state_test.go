package train

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nomad/internal/factor"
)

// FuzzReadState: arbitrary bytes never panic the checkpoint reader,
// and a state it accepts serializes to bytes it reads back as the same
// serialization (the reader drops only fields the writer zeroes).
func FuzzReadState(f *testing.F) {
	for _, st := range []*State{
		{Algorithm: "nomad", Seed: 7, Updates: 42, Model: factor.NewInitP(3, 2, 4, 7, factor.Float32),
			Counts: []int32{1, 0, 3}, RNG: [][4]uint64{{1, 2, 3, 4}}, Queues: [][]int32{{1}, {}, {0, 1}}},
		{Algorithm: "dsgd", Ring: 3, Bold: &BoldState{Step: 0.01, Prev: 2.5, Primed: true},
			Model: factor.NewInit(2, 2, 1, 1)},
	} {
		var buf bytes.Buffer
		if err := st.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A checkpoint whose model header's M·K wraps to 0.
	var crash bytes.Buffer
	for _, v := range []any{stateMagic, stateVersion, uint32(0), [2]uint64{}, int64(0), [2]uint32{}, [3]float64{},
		uint32(0x4e4d444d), uint32(0), [3]int64{1 << 62, 1, 4}, [4]float64{}} {
		binary.Write(&crash, binary.LittleEndian, v)
	}
	f.Add(crash.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := ReadState(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := st.WriteBinary(&once); err != nil {
			t.Fatal(err)
		}
		again, err := ReadState(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if err := again.WriteBinary(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("a state's serialization does not read back as itself")
		}
	})
}

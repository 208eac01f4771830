package serve

import (
	"bytes"
	"testing"

	"nomad/internal/factor"
	"nomad/internal/train"
)

// servableFiles are the two formats the watcher loads, as bytes: a bare
// model and a checkpoint around another one.
func servableFiles(t testing.TB) (model, checkpoint []byte) {
	t.Helper()
	var m, c bytes.Buffer
	if err := factor.NewInitP(4, 6, 3, 5, factor.Float32).WriteBinary(&m); err != nil {
		t.Fatal(err)
	}
	st := &train.State{Algorithm: "nomad", Seed: 5, Updates: 9, Model: factor.NewInitP(3, 5, 2, 6, factor.Float64),
		Counts: []int32{1, 2}, RNG: [][4]uint64{{1, 2, 3, 4}}, Queues: [][]int32{{0, 4}}}
	if err := st.WriteBinary(&c); err != nil {
		t.Fatal(err)
	}
	return m.Bytes(), c.Bytes()
}

// TestReadModelRejectsTrailingBytes: in either format, a file that is
// exactly what was written loads, and the same file one byte short or
// one byte long does not.
func TestReadModelRejectsTrailingBytes(t *testing.T) {
	model, checkpoint := servableFiles(t)
	for name, file := range map[string][]byte{"model": model, "checkpoint": checkpoint} {
		if _, err := readModel(bytes.NewReader(file)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := readModel(bytes.NewReader(file[:len(file)-1])); err == nil {
			t.Errorf("%s: loaded one byte short", name)
		}
		long := append(bytes.Clone(file), 0)
		if _, err := readModel(bytes.NewReader(long)); err == nil {
			t.Errorf("%s: loaded with a trailing byte", name)
		}
	}
}

// FuzzReadModel feeds the watcher's magic sniffing arbitrary bytes,
// seeded with a valid model, a valid checkpoint and truncations of
// each. It must never panic, and a model it accepts must come back
// unchanged through WriteBinary and readModel.
func FuzzReadModel(f *testing.F) {
	model, checkpoint := servableFiles(f)
	for _, file := range [][]byte{model, checkpoint} {
		for _, n := range []int{len(file), len(file) - 1, len(file) / 2, 4, 0} {
			f.Add(file[:n])
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		md, err := readModel(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := md.WriteBinary(&once); err != nil {
			t.Fatal(err)
		}
		again, err := readModel(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("an accepted model does not read back: %v", err)
		}
		if err := again.WriteBinary(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("an accepted model changed through WriteBinary and readModel")
		}
	})
}

package factor

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"nomad/internal/vecmath"
)

func TestNewShape(t *testing.T) {
	md := New(5, 3, 4)
	if len(md.WData()) != 20 || len(md.HData()) != 12 {
		t.Fatalf("W/H lengths = %d/%d", len(md.WData()), len(md.HData()))
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		d := dims
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", d)
				}
			}()
			New(d[0], d[1], d[2])
		}()
	}
}

func TestInitRange(t *testing.T) {
	k := 16
	md := NewInit(10, 10, k, 7)
	hi := 1 / math.Sqrt(float64(k))
	for _, v := range md.WData() {
		if v < 0 || v >= hi {
			t.Fatalf("W init %v out of [0, %v)", v, hi)
		}
	}
	for _, v := range md.HData() {
		if v < 0 || v >= hi {
			t.Fatalf("H init %v out of [0, %v)", v, hi)
		}
	}
}

func TestInitDeterministic(t *testing.T) {
	a := NewInit(6, 4, 3, 99)
	b := NewInit(6, 4, 3, 99)
	for i := range a.WData() {
		if a.WData()[i] != b.WData()[i] {
			t.Fatal("same seed produced different W")
		}
	}
}

func TestRowsAliasStorage(t *testing.T) {
	md := New(3, 3, 2)
	md.UserRow(1)[0] = 42
	if md.WData()[2] != 42 {
		t.Fatal("UserRow does not alias WData")
	}
	md.ItemRow(2)[1] = 7
	if md.HData()[5] != 7 {
		t.Fatal("ItemRow does not alias HData")
	}
}

func TestPredict(t *testing.T) {
	md := New(2, 2, 2)
	copy(md.UserRow(0), []float64{1, 2})
	copy(md.ItemRow(1), []float64{3, 4})
	if got := md.Predict(0, 1); got != 11 {
		t.Fatalf("Predict = %v, want 11", got)
	}
}

// TestPredictAllocatesNothing: Predict selects its dot per call, and
// selecting one builds nothing, at every rank, under either dispatch,
// at either precision — eval loops call it once per prediction.
func TestPredictAllocatesNothing(t *testing.T) {
	old := vecmath.SIMDEnabled()
	t.Cleanup(func() { vecmath.SetSIMD(old) })
	for _, simd := range []bool{true, false} {
		vecmath.SetSIMD(simd)
		for _, prec := range []Precision{Float64, Float32} {
			for _, k := range []int{8, 16, 32, 100} {
				md := NewInitP(3, 3, k, 1, prec)
				if n := testing.AllocsPerRun(20, func() { md.Predict(1, 2) }); n != 0 {
					t.Errorf("simd=%v %v K=%d: Predict allocates %.1f times", vecmath.SIMDEnabled(), prec, k, n)
				}
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewInit(4, 4, 2, 1)
	b := a.Clone()
	b.UserRow(0)[0] = 1e9
	if a.UserRow(0)[0] == 1e9 {
		t.Fatal("clone shares storage with original")
	}
}

func TestCopyFrom(t *testing.T) {
	a := NewInit(4, 4, 2, 1)
	b := New(4, 4, 2)
	b.CopyFrom(a)
	for i := range a.WData() {
		if a.WData()[i] != b.WData()[i] {
			t.Fatal("CopyFrom missed W data")
		}
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2, 2).CopyFrom(New(3, 2, 2))
}

func TestBinaryRoundTrip(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		md := NewInit(3+int(seed%5), 2+int(seed%7), 1+int(seed%4), seed)
		var buf bytes.Buffer
		if err := md.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if got.M != md.M || got.N != md.N || got.K != md.K {
			return false
		}
		for i := range md.WData() {
			if got.WData()[i] != md.WData()[i] {
				return false
			}
		}
		for i := range md.HData() {
			if got.HData()[i] != md.HData()[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("garbage here not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// header returns a model file header declaring the given shape.
func header(prec Precision, m, n, k int64) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, binHeader{Magic: modelMagic, Prec: uint32(prec), M: m, N: n, K: k})
	return buf.Bytes()
}

// TestReadBinaryRejectsOverflowingShape: M·K = 2⁶²·4 wraps to 0, which
// must not load as a model with 2⁶² users and an empty W slab.
func TestReadBinaryRejectsOverflowingShape(t *testing.T) {
	raw := append(header(Float64, 1<<62, 1, 4), make([]byte, 4*8)...)
	if len(raw) != 64 {
		t.Fatalf("file is %d bytes, want 64", len(raw))
	}
	if md, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatalf("loaded a %d×%d×%d model from 64 bytes", md.M, md.N, md.K)
	}
}

// TestReadBinaryShortStreamAllocationBound: a header declaring 64 GiB
// of factors over a stream of a few bytes fails on EOF having
// allocated at most a chunk or two, not the declared slab.
func TestReadBinaryShortStreamAllocationBound(t *testing.T) {
	raw := append(header(Float64, 1<<33, 1, 1), make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("short stream accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*slabChunk*8 {
		t.Fatalf("allocated %d bytes for a %d-byte stream", got, len(raw))
	}
}

// TestReadSlabGrowsInChunks: a slab larger than the chunk arrives
// intact, its capacity is exactly its length, and a stream that ends
// early fails.
func TestReadSlabGrowsInChunks(t *testing.T) {
	var buf bytes.Buffer
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	binary.Write(&buf, binary.LittleEndian, want)
	got, err := ReadSlab(bytes.NewReader(buf.Bytes()), make([]float64, 0, 3), len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) || cap(got) != len(want) {
		t.Fatalf("got %v (cap %d), want %v", got, cap(got), want)
	}
	if _, err := ReadSlab(bytes.NewReader(buf.Bytes()), make([]float64, 0, 3), len(want)+1); err == nil {
		t.Fatal("short stream accepted")
	}
}

// FuzzReadBinary: arbitrary bytes never panic the reader, and whatever
// it accepts has slabs of its declared shape and writes back as the
// bytes it was read from.
func FuzzReadBinary(f *testing.F) {
	for _, prec := range []Precision{Float64, Float32} {
		var buf bytes.Buffer
		if err := NewInitP(3, 2, 4, 7, prec).WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(append(header(Float64, 1<<62, 1, 4), make([]byte, 4*8)...))
	f.Add(append(header(Float32, 1<<33, 1, 1), make([]byte, 100)...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		md, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			return
		}
		w, h := len(md.w)+len(md.w32), len(md.h)+len(md.h32)
		if w != md.M*md.K || h != md.N*md.K {
			t.Fatalf("%d×%d×%d model with slabs of %d and %d", md.M, md.N, md.K, w, h)
		}
		var out bytes.Buffer
		if err := md.WriteBinary(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, out.Bytes()) {
			t.Fatal("model does not write back as the bytes it was read from")
		}
	})
}

package factor

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestFloat32InitIsNarrowedFloat64Init(t *testing.T) {
	md64 := NewInitP(7, 5, 8, 42, Float64)
	md32 := NewInitP(7, 5, 8, 42, Float32)
	if md32.Precision() != Float32 || md64.Precision() != Float64 {
		t.Fatal("precision not recorded")
	}
	for i := 0; i < md64.M; i++ {
		r64, r32 := md64.UserRow(i), md32.UserRow32(i)
		for l := range r64 {
			if r32[l] != float32(r64[l]) {
				t.Fatalf("w[%d][%d]: float32 init %v != narrowed float64 %v", i, l, r32[l], float32(r64[l]))
			}
		}
	}
	for j := 0; j < md64.N; j++ {
		r64, r32 := md64.ItemRow(j), md32.ItemRow32(j)
		for l := range r64 {
			if r32[l] != float32(r64[l]) {
				t.Fatalf("h[%d][%d] mismatch", j, l)
			}
		}
	}
}

func TestPrecisionMismatchPanics(t *testing.T) {
	md64 := New(3, 3, 4)
	md32 := NewP(3, 3, 4, Float32)
	for name, fn := range map[string]func(){
		"UserRow32 on f64": func() { md64.UserRow32(0) },
		"ItemRow32 on f64": func() { md64.ItemRow32(0) },
		"Flat32 on f64":    func() { Flat[float32](md64) },
		"UserRow on f32":   func() { md32.UserRow(0) },
		"ItemRow on f32":   func() { md32.ItemRow(0) },
		"WData on f32":     func() { md32.WData() },
		"HData on f32":     func() { md32.HData() },
		"Flat64 on f32":    func() { Flat[float64](md32) },
		"CopyFrom mixed":   func() { md64.CopyFrom(md32.Convert(Float64).Convert(Float32)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFloat32RowConversions(t *testing.T) {
	md := NewInitP(4, 6, 8, 9, Float32)
	buf := make([]float64, md.K)
	md.CopyItemRowTo64(2, buf)
	for l, v := range md.ItemRow32(2) {
		if buf[l] != float64(v) {
			t.Fatalf("CopyItemRowTo64 elem %d: %v != %v", l, buf[l], v)
		}
	}
	for l := range buf {
		buf[l] *= 1.5
	}
	md.SetItemRowFrom64(2, buf)
	for l, v := range md.ItemRow32(2) {
		if v != float32(buf[l]) {
			t.Fatalf("SetItemRowFrom64 elem %d: %v != %v", l, v, float32(buf[l]))
		}
	}

	// On a Float64 model the pair is plain copies.
	md64 := NewInit(4, 6, 8, 9)
	md64.CopyItemRowTo64(1, buf)
	for l, v := range md64.ItemRow(1) {
		if buf[l] != v {
			t.Fatalf("f64 CopyItemRowTo64 elem %d differs", l)
		}
	}
}

func TestConvertRoundTrip(t *testing.T) {
	md32 := NewInitP(5, 4, 8, 3, Float32)
	// f32 → f64 → f32 is exact: widening is exact and narrowing a
	// widened value restores it.
	back := md32.Convert(Float64).Convert(Float32)
	for i := 0; i < md32.M; i++ {
		a, b := md32.UserRow32(i), back.UserRow32(i)
		for l := range a {
			if a[l] != b[l] {
				t.Fatalf("convert round trip changed w[%d][%d]", i, l)
			}
		}
	}
}

func TestBinaryRoundTripFloat32(t *testing.T) {
	md := NewInitP(6, 9, 16, 77, Float32)
	var buf bytes.Buffer
	if err := md.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	wantLen := 32 + 4*(md.M*md.K+md.N*md.K) // header + float32 payload
	if buf.Len() != wantLen {
		t.Fatalf("float32 encoding is %d bytes, want %d", buf.Len(), wantLen)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Precision() != Float32 {
		t.Fatalf("round trip lost precision: %v", got.Precision())
	}
	if got.M != md.M || got.N != md.N || got.K != md.K {
		t.Fatalf("shape changed: %dx%dx%d", got.M, got.N, got.K)
	}
	w, h := Flat[float32](md)
	gw, gh := Flat[float32](got)
	for i := range w {
		if w[i] != gw[i] {
			t.Fatalf("w[%d] changed in round trip", i)
		}
	}
	for i := range h {
		if h[i] != gh[i] {
			t.Fatalf("h[%d] changed in round trip", i)
		}
	}
}

// TestBinaryBackCompatZeroReserved: models written before precision
// existed carried a reserved zero uint32 where Prec now lives — they
// must read back as Float64, and Float64 models written today must
// keep writing zero there.
func TestBinaryBackCompatZeroReserved(t *testing.T) {
	md := NewInit(3, 2, 4, 5)
	var buf bytes.Buffer
	if err := md.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if prec := binary.LittleEndian.Uint32(raw[4:8]); prec != 0 {
		t.Fatalf("Float64 model wrote Prec=%d, want 0", prec)
	}
	got, err := ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Precision() != Float64 {
		t.Fatalf("zero reserved field read as %v", got.Precision())
	}
}

func TestReadBinaryRejectsUnknownPrecision(t *testing.T) {
	md := NewInit(3, 2, 4, 5)
	var buf bytes.Buffer
	if err := md.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[4:8], 7)
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected error for unknown precision")
	}
}

func TestPredictFloat32(t *testing.T) {
	md := NewP(2, 2, 4, Float32)
	copy(md.UserRow32(0), []float32{1, 2, 3, 4})
	copy(md.ItemRow32(1), []float32{0.5, 0.25, 1, 2})
	want := float64(float32(1*0.5 + 2*0.25 + 3*1 + 4*2))
	if got := md.Predict(0, 1); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
}

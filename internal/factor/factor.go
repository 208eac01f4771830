// Package factor holds the low-rank factor model W·Hᵀ shared by all
// matrix-completion algorithms.
//
// W is m×k (one row per user) and H is n×k (one row per item), both
// stored as single flat row-major slices so that a row is a contiguous,
// cache-friendly sub-slice. Following §5.1 of the NOMAD paper, entries
// are initialized i.i.d. uniform on (0, 1/√k).
//
// A model carries one of two element precisions. Float64 is the
// default and what every solver supports; Float32 halves the model's
// memory traffic for the SGD-family hot paths that opt in (see
// DESIGN.md §9 for the precision contract). The two precisions use
// disjoint storage and disjoint accessors — UserRow vs UserRow32,
// Flat[float64] vs Flat[float32] — and the accessors panic on a
// precision mismatch rather than silently converting: every conversion
// in the system is explicit, at a token or checkpoint boundary.
package factor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"nomad/internal/rng"
	"nomad/internal/vecmath"
)

// Precision selects the element type of a model's factor storage.
type Precision uint8

const (
	// Float64 is the default precision; all solvers support it.
	Float64 Precision = iota
	// Float32 halves model memory and bandwidth; supported by the
	// SGD-family hot paths that opt in via their precision option.
	Float32
)

func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("Precision(%d)", uint8(p))
	}
}

// Model is a rank-k factorization candidate: A ≈ W·Hᵀ.
type Model struct {
	M, N, K int
	prec    Precision
	w       []float64 // m×k row-major (Float64 models)
	h       []float64 // n×k row-major (Float64 models)
	w32     []float32 // m×k row-major (Float32 models)
	h32     []float32 // n×k row-major (Float32 models)
}

// New returns a zero-valued Float64 model of the given shape.
func New(m, n, k int) *Model { return NewP(m, n, k, Float64) }

// NewP returns a zero-valued model of the given shape and precision.
func NewP(m, n, k int, prec Precision) *Model {
	if m <= 0 || n <= 0 || k <= 0 {
		panic(fmt.Sprintf("factor: invalid shape m=%d n=%d k=%d", m, n, k))
	}
	md := &Model{M: m, N: n, K: k, prec: prec}
	switch prec {
	case Float64:
		md.w = make([]float64, m*k)
		md.h = make([]float64, n*k)
	case Float32:
		md.w32 = make([]float32, m*k)
		md.h32 = make([]float32, n*k)
	default:
		panic(fmt.Sprintf("factor: invalid precision %d", prec))
	}
	return md
}

// NewInit returns a Float64 model initialized like the paper's
// experiments: every entry drawn uniformly from (0, 1/√k), using the
// given seed.
func NewInit(m, n, k int, seed uint64) *Model {
	return NewInitP(m, n, k, seed, Float64)
}

// NewInitP is NewInit at a chosen precision. A Float32 model draws the
// same uniform sequence as the Float64 model with the same seed and
// narrows each entry, so the two initializations agree to one float32
// rounding — the property the float32-vs-float64 RMSE tests lean on.
func NewInitP(m, n, k int, seed uint64, prec Precision) *Model {
	md := NewP(m, n, k, prec)
	r := rng.New(seed)
	hi := 1 / math.Sqrt(float64(k))
	switch prec {
	case Float64:
		for i := range md.w {
			md.w[i] = r.Uniform(0, hi)
		}
		for i := range md.h {
			md.h[i] = r.Uniform(0, hi)
		}
	case Float32:
		for i := range md.w32 {
			md.w32[i] = float32(r.Uniform(0, hi))
		}
		for i := range md.h32 {
			md.h32[i] = float32(r.Uniform(0, hi))
		}
	}
	return md
}

// Precision reports the model's element precision.
func (md *Model) Precision() Precision { return md.prec }

func (md *Model) need(p Precision, what string) {
	if md.prec != p {
		panic(fmt.Sprintf("factor: %s on a %s model", what, md.prec))
	}
}

// UserRow returns user i's factor row wᵢ. The slice aliases model
// storage: writes through it update the model. Panics unless the model
// is Float64.
func (md *Model) UserRow(i int) []float64 {
	md.need(Float64, "UserRow")
	return md.w[i*md.K : i*md.K+md.K]
}

// ItemRow returns item j's factor row hⱼ, aliasing model storage.
// Panics unless the model is Float64.
func (md *Model) ItemRow(j int) []float64 {
	md.need(Float64, "ItemRow")
	return md.h[j*md.K : j*md.K+md.K]
}

// UserRow32 is UserRow for Float32 models.
func (md *Model) UserRow32(i int) []float32 {
	md.need(Float32, "UserRow32")
	return md.w32[i*md.K : i*md.K+md.K]
}

// ItemRow32 is ItemRow for Float32 models.
func (md *Model) ItemRow32(j int) []float32 {
	md.need(Float32, "ItemRow32")
	return md.h32[j*md.K : j*md.K+md.K]
}

// Predict returns the model's estimate of rating (i, j): ⟨wᵢ, hⱼ⟩. For
// Float32 models the product accumulates in float32 — the same
// arithmetic the float32 training kernels use. The dot goes through
// the rank-dispatched kernel, so Predict sees the same SIMD/scalar
// selection as training, and selecting it allocates nothing; eval
// loops that predict in bulk should still hoist vecmath.DotKernelOf
// out of the loop.
func (md *Model) Predict(i, j int) float64 {
	if md.prec == Float32 {
		return float64(vecmath.DotKernelOf[float32](md.K)(md.UserRow32(i), md.ItemRow32(j)))
	}
	return vecmath.DotKernel(md.K)(md.UserRow(i), md.ItemRow(j))
}

// Clone returns a deep copy of the model.
func (md *Model) Clone() *Model {
	c := NewP(md.M, md.N, md.K, md.prec)
	copy(c.w, md.w)
	copy(c.h, md.h)
	copy(c.w32, md.w32)
	copy(c.h32, md.h32)
	return c
}

// CopyFrom overwrites md's parameters with src's. Shape and precision
// must match.
func (md *Model) CopyFrom(src *Model) {
	if md.M != src.M || md.N != src.N || md.K != src.K {
		panic("factor: CopyFrom shape mismatch")
	}
	if md.prec != src.prec {
		panic("factor: CopyFrom precision mismatch")
	}
	copy(md.w, src.w)
	copy(md.h, src.h)
	copy(md.w32, src.w32)
	copy(md.h32, src.h32)
}

// Convert returns a copy of the model at the given precision,
// narrowing or widening every entry. Converting to the model's own
// precision is a Clone.
func (md *Model) Convert(prec Precision) *Model {
	c := NewP(md.M, md.N, md.K, prec)
	switch {
	case md.prec == prec:
		c.CopyFrom(md)
	case prec == Float32:
		for i, v := range md.w {
			c.w32[i] = float32(v)
		}
		for i, v := range md.h {
			c.h32[i] = float32(v)
		}
	default:
		for i, v := range md.w32 {
			c.w[i] = float64(v)
		}
		for i, v := range md.h32 {
			c.h[i] = float64(v)
		}
	}
	return c
}

// WData exposes the flat W array (m×k row-major) of a Float64 model.
// Intended for algorithms that partition rows across workers; each
// worker must touch only its own rows.
func (md *Model) WData() []float64 {
	md.need(Float64, "WData")
	return md.w
}

// HData exposes the flat H array (n×k row-major), with the same
// ownership discipline as WData.
func (md *Model) HData() []float64 {
	md.need(Float64, "HData")
	return md.h
}

// Flat returns the flat W and H arrays (m×k and n×k row-major) of a
// model whose precision is T, with the ownership discipline of WData.
// It panics on a precision mismatch, like every typed accessor.
func Flat[T vecmath.Float](md *Model) (w, h []T) {
	if w, ok := any(md.w).([]T); ok {
		md.need(Float64, "Flat[float64]")
		return w, any(md.h).([]T)
	}
	md.need(Float32, "Flat[float32]")
	return any(md.w32).([]T), any(md.h32).([]T)
}

// CopyItemRowTo64 widens item j's row into dst (length K), whatever the
// model's precision. Used at token boundaries: the distributed wire
// format stays float64 regardless of model precision.
func (md *Model) CopyItemRowTo64(j int, dst []float64) {
	if md.prec == Float32 {
		row := md.ItemRow32(j)
		for l, v := range row {
			dst[l] = float64(v)
		}
		return
	}
	copy(dst, md.ItemRow(j))
}

// SetItemRowFrom64 narrows src (length K) into item j's row, whatever
// the model's precision — the receiving half of CopyItemRowTo64.
func (md *Model) SetItemRowFrom64(j int, src []float64) {
	if md.prec == Float32 {
		row := md.ItemRow32(j)
		for l, v := range src {
			row[l] = float32(v)
		}
		return
	}
	copy(md.ItemRow(j), src)
}

// PrefetchItemRow hints item j's row toward the cache, whatever the
// model's precision (vecmath.Prefetch: nothing is read, so it cannot
// race). The token boundary hints a whole batch of rows before it
// copies any of them, so their misses overlap.
//
//nomad:noalloc
func (md *Model) PrefetchItemRow(j int) {
	if md.prec == Float32 {
		vecmath.Prefetch(md.h32, j*md.K, md.K)
		return
	}
	vecmath.Prefetch(md.h, j*md.K, md.K)
}

// CopyUserRowTo64 widens user i's row into dst (length K), whatever
// the model's precision. The replication plane ships user rows as
// float64 regardless of model precision, mirroring the token wire
// format.
func (md *Model) CopyUserRowTo64(i int, dst []float64) {
	if md.prec == Float32 {
		row := md.UserRow32(i)
		for l, v := range row {
			dst[l] = float64(v)
		}
		return
	}
	copy(dst, md.UserRow(i))
}

// SetUserRowFrom64 narrows src (length K) into user i's row, whatever
// the model's precision — the receiving half of CopyUserRowTo64, used
// when a buddy re-materializes a dead machine's user rows.
func (md *Model) SetUserRowFrom64(i int, src []float64) {
	if md.prec == Float32 {
		row := md.UserRow32(i)
		for l, v := range src {
			row[l] = float32(v)
		}
		return
	}
	copy(md.UserRow(i), src)
}

// UserNorm returns the Euclidean norm ‖wᵢ‖ of user i's factor row,
// accumulated in float64 at either precision. The serving layer's
// norm-bounded candidate pruning multiplies it against item norms for
// an admissible score upper bound (|⟨wᵢ,hⱼ⟩| ≤ ‖wᵢ‖·‖hⱼ‖).
func (md *Model) UserNorm(i int) float64 {
	if md.prec == Float32 {
		return norm32(md.UserRow32(i))
	}
	return norm64(md.UserRow(i))
}

// ItemNorm returns the Euclidean norm ‖hⱼ‖ of item j's factor row,
// accumulated in float64 at either precision.
func (md *Model) ItemNorm(j int) float64 {
	if md.prec == Float32 {
		return norm32(md.ItemRow32(j))
	}
	return norm64(md.ItemRow(j))
}

func norm64(row []float64) float64 {
	var s float64
	for _, v := range row {
		s += v * v
	}
	return math.Sqrt(s)
}

func norm32(row []float32) float64 {
	var s float64
	for _, v := range row {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

const modelMagic uint32 = 0x4e4d444d // "NMDM"

// binHeader is the on-disk model header. Prec occupies what was a
// reserved zero field, so Float64 models round-trip with readers and
// writers from before precision existed.
type binHeader struct {
	Magic   uint32
	Prec    uint32
	M, N, K int64
}

// WriteBinary serializes the model. Float32 models write float32
// payloads — half the bytes, and exact round-tripping at their own
// precision.
func (md *Model) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := binHeader{Magic: modelMagic, Prec: uint32(md.prec),
		M: int64(md.M), N: int64(md.N), K: int64(md.K)}
	if err := binary.Write(bw, binary.LittleEndian, &hdr); err != nil {
		return fmt.Errorf("factor: write header: %w", err)
	}
	var werr, herr error
	if md.prec == Float32 {
		werr = binary.Write(bw, binary.LittleEndian, md.w32)
		herr = binary.Write(bw, binary.LittleEndian, md.h32)
	} else {
		werr = binary.Write(bw, binary.LittleEndian, md.w)
		herr = binary.Write(bw, binary.LittleEndian, md.h)
	}
	if werr != nil {
		return fmt.Errorf("factor: write W: %w", werr)
	}
	if herr != nil {
		return fmt.Errorf("factor: write H: %w", herr)
	}
	return bw.Flush()
}

// slabChunk bounds what ReadBinary allocates ahead of the data: a slab
// of up to this many values is read in one piece, a larger one in
// pieces of this size as they arrive.
const slabChunk = 1 << 23

// ReadBinary deserializes a model written by WriteBinary, restoring its
// precision. A header whose shape overflows is rejected, and one that
// declares more values than the stream holds fails on EOF after at most
// one slabChunk per slab.
func ReadBinary(r io.Reader) (*Model, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr binHeader
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("factor: read header: %w", err)
	}
	if hdr.Magic != modelMagic {
		return nil, fmt.Errorf("factor: bad magic %#x", hdr.Magic)
	}
	if hdr.Prec > uint32(Float32) {
		return nil, fmt.Errorf("factor: unknown precision %d", hdr.Prec)
	}
	const maxVals = math.MaxInt / 8 // a slab's byte size must fit in an int
	if hdr.M <= 0 || hdr.N <= 0 || hdr.K <= 0 || hdr.M > maxVals/hdr.K || hdr.N > maxVals/hdr.K {
		return nil, fmt.Errorf("factor: corrupt header m=%d n=%d k=%d", hdr.M, hdr.N, hdr.K)
	}
	m, n, k := int(hdr.M), int(hdr.N), int(hdr.K)
	md := &Model{M: m, N: n, K: k, prec: Precision(hdr.Prec)}
	var werr, herr error
	if md.prec == Float32 {
		w, h := make([]float32, 0, min(m*k, slabChunk)), make([]float32, 0, min(n*k, slabChunk))
		if md.w32, werr = ReadSlab(br, w, m*k); werr == nil {
			md.h32, herr = ReadSlab(br, h, n*k)
		}
	} else {
		w, h := make([]float64, 0, min(m*k, slabChunk)), make([]float64, 0, min(n*k, slabChunk))
		if md.w, werr = ReadSlab(br, w, m*k); werr == nil {
			md.h, herr = ReadSlab(br, h, n*k)
		}
	}
	if werr != nil {
		return nil, fmt.Errorf("factor: read W: %w", werr)
	}
	if herr != nil {
		return nil, fmt.Errorf("factor: read H: %w", herr)
	}
	return md, nil
}

// ReadSlab reads n little-endian values into the empty slab s, in
// pieces of at most cap(s), growing the slab (to exactly n) only as the
// data arrives — so a length read from a file costs at most cap(s)
// values before the data behind it is confirmed. The checkpoint reader
// shares it.
func ReadSlab[T int32 | float32 | float64](r io.Reader, s []T, n int) ([]T, error) {
	chunk := max(cap(s), 1)
	for len(s) < n {
		c := min(n-len(s), chunk)
		if cap(s)-len(s) < c {
			s = append(make([]T, 0, min(n, 2*cap(s))), s...)
		}
		if err := binary.Read(r, binary.LittleEndian, s[len(s):len(s)+c]); err != nil {
			return nil, err
		}
		s = s[:len(s)+c]
	}
	return s, nil
}

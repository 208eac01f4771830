// Package netlink is NOMAD's machine link: a length-prefixed binary
// wire protocol, a coordinator rendezvous that assigns machine ranks
// and broadcasts the item (column) ownership map, and a mesh Link with
// heartbeat-based peer failure detection. It implements cluster.Link
// over real TCP sockets (Loopback, Coordinator, Join) or over netsim's
// paced in-memory connections (Pipe), so both backends of internal/core
// run one link.
//
// Every frame on the wire is:
//
//	offset  size  field
//	0       4     magic "NMLK" (little-endian uint32 0x4e4d4c4b)
//	4       1     protocol version (currently 1)
//	5       1     frame type
//	6       2     reserved (zero)
//	8       4     sender rank (int32; -1 before rank assignment)
//	12      4     payload length (uint32)
//	16      4     CRC-32 (IEEE) of the payload
//	20      n     payload
//
// Frames with a bad magic, an unsupported version, an oversized length
// or a CRC mismatch are rejected before any payload interpretation.
// Token payloads reuse the little-endian layout of the train.State
// checkpoint format (int32 indices, raw float64 bits), and the
// rendezvous broadcasts resume state with train.State's own encoder.
package netlink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"nomad/internal/cluster"
)

// Magic identifies a netlink frame ("NMLK").
const Magic uint32 = 0x4e4d4c4b

// Version is the wire-protocol version spoken by this build. A peer
// announcing any other version is rejected at the first frame.
const Version byte = 1

// FrameType tags the meaning of a frame's payload.
type FrameType byte

// Frame types. Hello/Welcome/Mesh/Ready/Go belong to the rendezvous;
// Tokens/Ctl/EOF/Heartbeat to the established link. Types 7 and 8 are
// retired; an established link rejects them like any unknown type.
const (
	FrameHello     FrameType = 1  // worker → coordinator: config digest + advertised address
	FrameWelcome   FrameType = 2  // coordinator → worker: rank, cluster map, ownership, resume state
	FrameTokens    FrameType = 3  // token batch (§3.5 unit of transfer)
	FrameCtl       FrameType = 4  // opaque control frame (kind byte + payload)
	FrameEOF       FrameType = 5  // orderly end of the sender's stream
	FrameHeartbeat FrameType = 6  // liveness probe
	FrameMesh      FrameType = 9  // peer → peer: identifies the dialler's rank
	FrameReady     FrameType = 10 // worker → coordinator: mesh established
	FrameGo        FrameType = 11 // coordinator → worker: start training
	FrameError     FrameType = 12 // handshake rejection, payload is the reason
)

// headerSize is the fixed frame-header length.
const headerSize = 20

// MaxPayload bounds a frame payload (256 MiB). Length prefixes beyond
// it are rejected before any allocation; payloads under it are read in
// bounded chunks so a corrupt length in a short stream fails on EOF,
// not on an up-front allocation.
const MaxPayload = 1 << 28

// VersionError reports a peer speaking an unsupported protocol
// version.
type VersionError struct {
	Got, Want byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("netlink: protocol version %d, this build speaks %d", e.Got, e.Want)
}

// Wire-format rejection errors.
var (
	ErrBadMagic = errors.New("netlink: bad frame magic")
	ErrBadCRC   = errors.New("netlink: frame payload CRC mismatch")
	ErrOversize = errors.New("netlink: frame payload exceeds MaxPayload")
)

// Frame is one decoded wire frame.
type Frame struct {
	Type    FrameType
	From    int
	Payload []byte
}

// beginFrame appends a frame header with the payload length and CRC
// still zero; finishFrame patches them once the payload has been
// encoded in place. Together they let a frame be serialized into one
// reusable buffer with a single pass over the payload bytes.
func beginFrame(buf []byte, typ FrameType, from int) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	hdr[4] = Version
	hdr[5] = byte(typ)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(int32(from)))
	return append(buf, hdr[:]...)
}

// finishFrame fills in the payload length and CRC of the frame whose
// header starts at off, the payload being everything encoded after it.
func finishFrame(buf []byte, off int) []byte {
	payload := buf[off+headerSize:]
	binary.LittleEndian.PutUint32(buf[off+12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[off+16:], crc32.ChecksumIEEE(payload))
	return buf
}

// AppendFrame appends the encoded frame to buf and returns it. The
// payload may be nil.
//
//nomad:noalloc
func AppendFrame(buf []byte, typ FrameType, from int, payload []byte) []byte {
	off := len(buf)
	buf = beginFrame(buf, typ, from)
	buf = append(buf, payload...)
	return finishFrame(buf, off)
}

// AppendTokenFrame appends one complete FrameTokens frame, encoding
// the batch's token vectors directly into the frame buffer — the
// single copy of the send path. With a buffer of sufficient capacity
// (a connection's reusable write buffer after warm-up) it allocates
// nothing. Oversized batches are rejected before any encoding.
//
//nomad:noalloc
func AppendTokenFrame(buf []byte, from int, batch cluster.TokenBatch, k int) ([]byte, error) {
	if batchWireSize(len(batch.Tokens), k) > MaxPayload {
		return nil, ErrOversize
	}
	off := len(buf)
	buf = beginFrame(buf, FrameTokens, from)
	buf, err := AppendTokenBatch(buf, batch, k)
	if err != nil {
		return nil, err
	}
	return finishFrame(buf, off), nil
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, typ FrameType, from int, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrOversize
	}
	_, err := w.Write(AppendFrame(make([]byte, 0, headerSize+len(payload)), typ, from, payload))
	return err
}

// ReadFrame reads and validates one frame. It rejects bad magic,
// version mismatches, oversized lengths and CRC mismatches with typed
// errors; a stream truncated mid-frame surfaces io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := readFrame(r, nil)
	return f, err
}

// ReadFrameReuse is ReadFrame with a caller-owned payload arena: the
// frame's payload is read into buf (grown as needed) and aliases it.
// The returned buffer must be passed to the next call once the frame
// has been fully consumed — the explicit hand-off that lets one
// buffer serve a connection's whole inbound stream with zero
// steady-state allocation. Payload bytes that must outlive the next
// read (control frames queued for later) are copied by the caller.
func ReadFrameReuse(r io.Reader, buf []byte) (Frame, []byte, error) {
	return readFrame(r, buf)
}

//nomad:noalloc
func readFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	// The header is read into the reusable buffer too (a stack array
	// would escape through the io.Reader interface and cost one heap
	// allocation per frame); every header field is parsed into locals
	// before the payload read below overwrites it.
	buf = slices.Grow(buf[:0], headerSize)[:headerSize] //nomad:alloc-ok reusable buffer warm-up growth
	hdr := buf[:headerSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, buf, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != Magic {
		return Frame{}, buf, ErrBadMagic
	}
	if hdr[4] != Version {
		return Frame{}, buf, &VersionError{Got: hdr[4], Want: Version} //nomad:alloc-ok rejection path, terminal for the stream
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return Frame{}, buf, fmt.Errorf("netlink: reserved header bytes must be zero") //nomad:alloc-ok rejection path, terminal for the stream
	}
	f := Frame{
		Type: FrameType(hdr[5]),
		From: int(int32(binary.LittleEndian.Uint32(hdr[8:]))),
	}
	length := binary.LittleEndian.Uint32(hdr[12:])
	if length > MaxPayload {
		return Frame{}, buf, ErrOversize
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[16:])
	if length > 0 {
		// Chunked read, directly into the payload buffer: the buffer
		// grows only as data actually arrives, so a corrupt length
		// prefix on a short stream fails with ErrUnexpectedEOF after at
		// most one chunk instead of provoking a giant up-front
		// allocation.
		const chunk = 1 << 20
		payload := buf[:0]
		for remaining := int(length); remaining > 0; {
			c := min(remaining, chunk)
			start := len(payload)
			payload = slices.Grow(payload, c)[:start+c] //nomad:alloc-ok reusable buffer warm-up growth
			if _, err := io.ReadFull(r, payload[start:]); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return Frame{}, payload, err
			}
			remaining -= c
		}
		buf = payload
		f.Payload = payload
	}
	if crc32.ChecksumIEEE(f.Payload) != wantCRC {
		return Frame{}, buf, ErrBadCRC
	}
	return f, buf, nil
}

// tokenWireSize is the encoded size of one rank-k token: the item
// index plus the raw float64 coordinates.
func tokenWireSize(k int) int { return 4 + 8*k }

// batchWireSize is the encoded payload size of a TokenBatch of rank-k
// tokens.
func batchWireSize(tokens, k int) int { return 12 + tokens*tokenWireSize(k) }

// AppendTokenBatch encodes a token batch: the sender's gossiped queue
// length (§3.3), the token count, then each (j, hⱼ) pair with hⱼ as
// raw little-endian float64 bits — the same scalar layout the
// train.State checkpoint uses. Every token must have exactly k
// coordinates. The payload is pre-sized once and each vector is
// stored straight into it with one copy (putFloats), so a buffer with
// warm capacity costs zero allocations.
//
//nomad:noalloc
func AppendTokenBatch(buf []byte, batch cluster.TokenBatch, k int) ([]byte, error) {
	le := binary.LittleEndian
	base := len(buf)
	buf = slices.Grow(buf, batchWireSize(len(batch.Tokens), k))[:base+batchWireSize(len(batch.Tokens), k)] //nomad:alloc-ok reusable buffer warm-up growth
	le.PutUint64(buf[base:], uint64(int64(batch.QueueLen)))
	le.PutUint32(buf[base+8:], uint32(len(batch.Tokens)))
	pos := base + 12
	for i := range batch.Tokens {
		t := &batch.Tokens[i]
		if len(t.Vec) != k {
			return nil, fmt.Errorf("netlink: token %d has %d coordinates, link rank is %d", t.Item, len(t.Vec), k) //nomad:alloc-ok malformed-batch error path
		}
		le.PutUint32(buf[pos:], uint32(t.Item))
		pos += 4
		putFloats(buf[pos:], t.Vec)
		pos += 8 * k
	}
	return buf, nil
}

// tokenBatchCount validates a payload's wire-declared token count
// against the length of the payload actually received — before any
// allocation, and without ever multiplying the wire-supplied count
// (which could overflow): the count must equal the number of whole
// rank-k tokens the payload's bytes can hold.
//
//nomad:noalloc
func tokenBatchCount(payload []byte, k int) (int, error) {
	if len(payload) < 12 {
		return 0, fmt.Errorf("netlink: token batch payload %d bytes, want ≥ 12", len(payload)) //nomad:alloc-ok malformed-batch error path
	}
	count := int(binary.LittleEndian.Uint32(payload[8:]))
	per := tokenWireSize(k)
	rem := len(payload) - 12
	if rem%per != 0 || count != rem/per {
		//nomad:alloc-ok malformed-batch error path
		return 0, fmt.Errorf("netlink: token batch declares %d rank-%d tokens but payload holds %d bytes of token data",
			count, k, rem)
	}
	return count, nil
}

// DecodeTokenBatch decodes an AppendTokenBatch payload, validating the
// declared count against the payload length before allocating. The
// returned batch owns freshly allocated vectors; DecodeTokenBatchInto
// is the allocation-free arena variant.
func DecodeTokenBatch(payload []byte, k int) (cluster.TokenBatch, error) {
	count, err := tokenBatchCount(payload, k)
	if err != nil {
		return cluster.TokenBatch{}, err
	}
	batch := cluster.TokenBatch{QueueLen: int(int64(binary.LittleEndian.Uint64(payload)))}
	pos := 12
	batch.Tokens = make([]cluster.Token, count)
	for i := 0; i < count; i++ {
		item := int32(binary.LittleEndian.Uint32(payload[pos:]))
		pos += 4
		vec := make([]float64, k)
		for c := 0; c < k; c++ {
			vec[c] = math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:]))
			pos += 8
		}
		batch.Tokens[i] = cluster.Token{Item: item, Vec: vec}
	}
	return batch, nil
}

// DecodeTokenBatchInto decodes an AppendTokenBatch payload into the
// given arena, validating the declared count first. The returned
// batch's vectors are views into the arena and the batch owns it:
// the consumer calls Release when the tokens have been copied out,
// which recycles a pooled arena (cluster.GetBatchBuf) for the next
// frame. With a warm arena the decode allocates nothing.
//
//nomad:noalloc
func DecodeTokenBatchInto(payload []byte, k int, buf *cluster.BatchBuf) (cluster.TokenBatch, error) {
	count, err := tokenBatchCount(payload, k)
	if err != nil {
		return cluster.TokenBatch{}, err
	}
	le := binary.LittleEndian
	buf.Reset()
	pos := 12
	for i := 0; i < count; i++ {
		item := int32(le.Uint32(payload[pos:]))
		pos += 4
		vec := buf.AddVec(item, k) //nomad:alloc-ok arena warm-up growth, amortized away on reuse
		getFloats(vec, payload[pos:])
		pos += 8 * k
	}
	return buf.HandOff(int(int64(le.Uint64(payload)))), nil
}

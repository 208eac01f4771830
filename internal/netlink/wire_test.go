package netlink

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"nomad/internal/cluster"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello nomad")
	if err := WriteFrame(&buf, FrameTokens, 3, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if f.Type != FrameTokens || f.From != 3 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("frame = %+v", f)
	}
}

func TestFrameRoundTripEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameEOF, -1, nil); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if f.Type != FrameEOF || f.From != -1 || len(f.Payload) != 0 {
		t.Fatalf("frame = %+v", f)
	}
}

func TestFrameRejectsBadMagic(t *testing.T) {
	raw := AppendFrame(nil, FrameTokens, 0, []byte("x"))
	raw[0] ^= 0xff
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestFrameRejectsVersionMismatch(t *testing.T) {
	raw := AppendFrame(nil, FrameTokens, 0, []byte("x"))
	raw[4] = Version + 41
	var ve *VersionError
	_, err := ReadFrame(bytes.NewReader(raw))
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *VersionError", err)
	}
	if ve.Got != Version+41 || ve.Want != Version {
		t.Fatalf("version error = %+v", ve)
	}
}

func TestFrameRejectsCorruptPayload(t *testing.T) {
	raw := AppendFrame(nil, FrameTokens, 0, []byte("payload-bytes"))
	raw[headerSize+4] ^= 0x01 // flip one payload bit; CRC must catch it
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("err = %v, want ErrBadCRC", err)
	}
}

func TestFrameRejectsCorruptCRC(t *testing.T) {
	raw := AppendFrame(nil, FrameCtl, 1, []byte("abc"))
	raw[16] ^= 0xff // corrupt the stored CRC itself
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("err = %v, want ErrBadCRC", err)
	}
}

func TestFrameRejectsTruncation(t *testing.T) {
	raw := AppendFrame(nil, FrameTokens, 0, bytes.Repeat([]byte("q"), 100))
	for _, cut := range []int{1, headerSize - 1, headerSize, headerSize + 50, len(raw) - 1} {
		_, err := ReadFrame(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if cut >= headerSize && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	raw := AppendFrame(nil, FrameTokens, 0, nil)
	binary.LittleEndian.PutUint32(raw[12:], MaxPayload+1)
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrOversize) {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
	// A large-but-legal length on a short stream must fail on EOF
	// without a giant up-front allocation.
	binary.LittleEndian.PutUint32(raw[12:], MaxPayload)
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestTokenBatchRoundTrip(t *testing.T) {
	const k = 5
	batch := cluster.TokenBatch{
		QueueLen: 42,
		Tokens: []cluster.Token{
			{Item: 0, Vec: []float64{1, 2, 3, 4, 5}},
			{Item: 999, Vec: []float64{-0.5, 1e300, 0, -0, 3.14}},
		},
	}
	payload, err := AppendTokenBatch(nil, batch, k)
	if err != nil {
		t.Fatalf("AppendTokenBatch: %v", err)
	}
	got, err := DecodeTokenBatch(payload, k)
	if err != nil {
		t.Fatalf("DecodeTokenBatch: %v", err)
	}
	if got.QueueLen != 42 || len(got.Tokens) != 2 {
		t.Fatalf("decoded = %+v", got)
	}
	for i, tok := range got.Tokens {
		if tok.Item != batch.Tokens[i].Item {
			t.Fatalf("token %d item = %d", i, tok.Item)
		}
		for c := range tok.Vec {
			if tok.Vec[c] != batch.Tokens[i].Vec[c] {
				t.Fatalf("token %d coord %d = %v, want %v", i, c, tok.Vec[c], batch.Tokens[i].Vec[c])
			}
		}
	}
}

// TestFloatCodecMatchesPortable: the bulk vector copy the codec takes
// on little-endian hosts writes and reads exactly the bytes of the
// per-coordinate form, for every bit pattern class and at an offset
// that is not 8-byte aligned (token vectors start 4 bytes after the
// item index).
func TestFloatCodecMatchesPortable(t *testing.T) {
	vec := []float64{0, math.Copysign(0, -1), 1, -1e300, 5e-324, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8dead0000beef), math.Pi}
	bulk := make([]byte, 4+8*len(vec))
	want := make([]byte, len(bulk))
	putFloats(bulk[4:], vec)
	putFloatsPortable(want[4:], vec)
	if !bytes.Equal(bulk, want) {
		t.Fatalf("putFloats wrote % x, portable form % x", bulk, want)
	}
	got := make([]float64, len(vec))
	getFloats(got, want[4:])
	for i := range vec {
		if math.Float64bits(got[i]) != math.Float64bits(vec[i]) {
			t.Fatalf("coordinate %d decoded to bits %#x, want %#x", i, math.Float64bits(got[i]), math.Float64bits(vec[i]))
		}
	}
	putFloats(nil, nil)
	getFloats(nil, nil)
}

func TestTokenBatchRejectsWrongRank(t *testing.T) {
	if _, err := AppendTokenBatch(nil, cluster.TokenBatch{
		Tokens: []cluster.Token{{Item: 1, Vec: make([]float64, 3)}},
	}, 4); err == nil {
		t.Fatal("encoding a rank-3 token on a rank-4 link accepted")
	}
	payload, _ := AppendTokenBatch(nil, cluster.TokenBatch{
		Tokens: []cluster.Token{{Item: 1, Vec: make([]float64, 4)}},
	}, 4)
	if _, err := DecodeTokenBatch(payload, 5); err == nil {
		t.Fatal("decoding with the wrong rank accepted")
	}
	if _, err := DecodeTokenBatch(payload[:len(payload)-1], 4); err == nil {
		t.Fatal("truncated batch payload accepted")
	}
	if _, err := DecodeTokenBatch(nil, 4); err == nil {
		t.Fatal("empty batch payload accepted")
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder: it must
// never panic, and everything it accepts must round-trip back to the
// identical encoding (so the decoder can't silently canonicalize).
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, FrameTokens, 0, []byte("seed-payload")))
	f.Add(AppendFrame(nil, FrameEOF, -1, nil))
	f.Add(AppendFrame(nil, FrameCtl, 3, []byte{1, 0, 0, 0}))
	tb, _ := AppendTokenBatch(nil, cluster.TokenBatch{QueueLen: 7, Tokens: []cluster.Token{{Item: 5, Vec: []float64{1, 2}}}}, 2)
	f.Add(AppendFrame(nil, FrameTokens, 1, tb))
	f.Add([]byte{})
	f.Add([]byte{0x4b, 0x4c, 0x4d, 0x4e})
	corrupt := AppendFrame(nil, FrameHello, 0, []byte("x"))
	corrupt[17] ^= 0xaa
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		re := AppendFrame(nil, fr.Type, fr.From, fr.Payload)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("accepted frame does not re-encode to its wire form")
		}
	})
}

// FuzzDecodeTokenBatch: arbitrary payloads must never panic the token
// decoder, and accepted batches must re-encode identically.
func FuzzDecodeTokenBatch(f *testing.F) {
	for _, k := range []int{1, 2, 16} {
		p, _ := AppendTokenBatch(nil, cluster.TokenBatch{QueueLen: 3, Tokens: []cluster.Token{{Item: 9, Vec: make([]float64, k)}}}, k)
		f.Add(p, k)
	}
	f.Add([]byte{}, 1)
	// An inflated wire count over a short payload: the decoder must
	// validate the count against the bytes actually present before any
	// allocation, never trusting (or multiplying) the wire value.
	inflated, _ := AppendTokenBatch(nil, cluster.TokenBatch{QueueLen: 1, Tokens: []cluster.Token{{Item: 4, Vec: make([]float64, 2)}}}, 2)
	binary.LittleEndian.PutUint32(inflated[8:], 1<<30)
	f.Add(inflated, 2)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		if k < 1 || k > 64 {
			return
		}
		batch, err := DecodeTokenBatch(data, k)
		if err != nil {
			return
		}
		re, err := AppendTokenBatch(nil, batch, k)
		if err != nil {
			t.Fatalf("accepted batch fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted batch does not re-encode to its wire form")
		}
	})
}

// TestBufferedReadMatchesUnbuffered: a frame read through a
// bufio.Reader, as the link's reader reads, whether or not the frame
// fits the buffer, is accepted or rejected exactly as through the bare
// stream: the same payload, or the same error for every truncation
// point and for a bad CRC.
func TestBufferedReadMatchesUnbuffered(t *testing.T) {
	good := AppendFrame(nil, FrameTokens, 2, bytes.Repeat([]byte("q"), 100))
	badCRC := append([]byte(nil), good...)
	badCRC[headerSize+7] ^= 0x01
	inputs := [][]byte{good, badCRC}
	for cut := 0; cut < len(good); cut++ {
		inputs = append(inputs, good[:cut])
	}
	for _, size := range []int{16, 64, readBufSize} {
		for _, raw := range inputs {
			want, wantErr := ReadFrame(bytes.NewReader(raw))
			got, gotErr := ReadFrame(bufio.NewReaderSize(bytes.NewReader(raw), size))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got.Type != want.Type || got.From != want.From ||
				!bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("buffer %d, %d bytes: got (%+v, %v), unbuffered (%+v, %v)",
					size, len(raw), got, gotErr, want, wantErr)
			}
		}
	}
}

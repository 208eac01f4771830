package netlink

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether a float64 in memory already has the
// wire's byte order, so a vector crosses the codec as one copy.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// putFloats stores src at dst as raw little-endian float64 bits. dst
// must hold at least 8·len(src) bytes.
//
//nomad:noalloc
func putFloats(dst []byte, src []float64) {
	if hostLittleEndian {
		copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(src))), 8*len(src)))
		return
	}
	putFloatsPortable(dst, src)
}

// getFloats loads len(dst) raw little-endian float64s from src, which
// must hold at least 8·len(dst) bytes.
//
//nomad:noalloc
func getFloats(dst []float64, src []byte) {
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*len(dst)), src)
		return
	}
	getFloatsPortable(dst, src)
}

// putFloatsPortable and getFloatsPortable are the per-coordinate forms
// big-endian hosts take.
func putFloatsPortable(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

func getFloatsPortable(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

//go:build !amd64

package vecmath

import "unsafe"

// Pure-Go fallback surface for GOARCHes without assembly kernels: SIMD
// is never available and the dispatcher always falls through to the
// portable kernels.

const simdAvailable = false

func featureList() string { return "" }

// asmSeam is never consulted here: simdOn stays false.
func asmSeam[T Float]() *seam[T] { return nil }

func prefetchT0(unsafe.Pointer, uintptr) {}

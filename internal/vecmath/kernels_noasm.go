//go:build !amd64

package vecmath

import "unsafe"

// Pure-Go fallback surface for GOARCHes without assembly kernels: SIMD
// is never available and the dispatcher always falls through to the
// portable unrolled kernels.

const simdAvailable = false

func featureList() string { return "" }

func simdKernelFor(k int) (Kernel, bool) { return Kernel{}, false }

func simdKernelFor32(k int) (Kernel32, bool) { return Kernel32{}, false }

func simdDotRows(k int) (DotRowsFunc, bool) { return nil, false }

func simdDotRows32(k int) (DotRowsFunc32, bool) { return nil, false }

func simdDotGather(k int) (DotGatherFunc, bool) { return nil, false }

func simdDotGather32(k int) (DotGatherFunc32, bool) { return nil, false }

func prefetchT0(unsafe.Pointer, uintptr) {}

package vecmath

// Micro-benchmarks for the per-rating hot-path kernels, reference vs
// specialized, across the ranks that matter (K = 8, 16, 32 have fully
// unrolled variants; 100 is the paper's Table 1 rank and exercises the
// generic fallback). ns/op here is ns/update for the Step kernels —
// the quantity NOMAD's throughput claims reduce to. Run with:
//
//	go test ./internal/vecmath -run '^$' -bench . -benchtime 100000x

import (
	"fmt"
	"testing"

	"nomad/internal/rng"
)

var benchWidths = []int{8, 16, 32, 100}

func benchRows(k int) (w, h []float64) {
	r := rng.New(uint64(k))
	w = make([]float64, k)
	h = make([]float64, k)
	fill(r, w)
	fill(r, h)
	return w, h
}

func BenchmarkDotReference(b *testing.B) {
	for _, k := range benchWidths {
		w, h := benchRows(k)
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = Dot(w, h)
			}
			_ = sink
		})
	}
}

func BenchmarkDotKernel(b *testing.B) {
	for _, k := range benchWidths {
		w, h := benchRows(k)
		dot := KernelFor(k).Dot
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = dot(w, h)
			}
			_ = sink
		})
	}
}

// BenchmarkDotRowsKernel is the batched dot over a cache-resident block
// of 64 rows; ns/op is ns per row, comparable with BenchmarkDotKernel.
func BenchmarkDotRowsKernel(b *testing.B) {
	for _, k := range benchWidths {
		const block = 64
		r := rng.New(uint64(k))
		user := make([]float64, k)
		rows := make([]float64, block*k)
		out := make([]float64, block)
		fill(r, user)
		fill(r, rows)
		dotRows := DotRowsKernel(k)
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i += block {
				dotRows(user, rows, out)
			}
		})
	}
}

// BenchmarkStepReference is the pre-optimization square-loss path as
// the solvers ran it: Dot, then a separate SGDUpdateGrad with the
// residual — two row traversals per rating.
func BenchmarkStepReference(b *testing.B) {
	for _, k := range benchWidths {
		w, h := benchRows(k)
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := 0.7 - Dot(w, h)
				SGDUpdateGrad(w, h, g, 1e-6, 1e-3)
			}
		})
	}
}

func BenchmarkStepFused(b *testing.B) {
	for _, k := range benchWidths {
		w, h := benchRows(k)
		step := KernelFor(k).Step
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				step(w, h, 0.7, 1e-6, 1e-3)
			}
		})
	}
}

func BenchmarkGradReference(b *testing.B) {
	for _, k := range benchWidths {
		w, h := benchRows(k)
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SGDUpdateGrad(w, h, 0.1, 1e-6, 1e-3)
			}
		})
	}
}

func BenchmarkGradKernel(b *testing.B) {
	for _, k := range benchWidths {
		w, h := benchRows(k)
		grad := KernelFor(k).Grad
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				grad(w, h, 0.1, 1e-6, 1e-3)
			}
		})
	}
}

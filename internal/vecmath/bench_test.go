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

// BenchmarkItemPassCold is the in-tree witness of the gap between the
// item pass's arithmetic and its memory: the K=16 batched pass over a
// shuffled user list, once against a W table far larger than the
// last-level cache (every user row is a miss unless something fetched
// it ahead) and once against a table that stays cache-resident (the
// arithmetic alone). ns/rating is reported for both; the distance
// between them is what look-ahead prefetching has to hide.
func BenchmarkItemPassCold(b *testing.B) {
	const k = 16
	b.Run("f64", func(b *testing.B) {
		pass := KernelFor(k).ItemPass
		if pass == nil {
			b.Skip("no batched item pass under NOMAD_REFERENCE_KERNELS")
		}
		benchItemPassRows(b, k, func(w []float64, users []int32, vals []float64, counts []int32, h []float64, steps []float64) {
			pass(w, users, vals, counts, h, 1e-3, steps, nil)
		})
	})
	b.Run("f32", func(b *testing.B) {
		pass := KernelFor32(k).ItemPass
		if pass == nil {
			b.Skip("no batched item pass under NOMAD_REFERENCE_KERNELS")
		}
		benchItemPassRows(b, k, func(w []float32, users []int32, vals []float64, counts []int32, h []float32, steps []float64) {
			pass(w, users, vals, counts, h, 1e-3, steps, nil)
		})
	})
}

func benchItemPassRows[T float32 | float64](b *testing.B, k int,
	pass func(w []T, users []int32, vals []float64, counts []int32, h []T, steps []float64)) {
	const (
		coldRows     = 1 << 20 // 128 MB of float64 rows at K=16, 64 MB of float32
		residentRows = 256
		list         = 4096 // ratings per call: one popular item's local list
	)
	steps := make([]float64, 4096)
	for t := range steps {
		steps[t] = 1e-6
	}
	for _, shape := range []struct {
		name string
		rows int
	}{{"cold", coldRows}, {"resident", residentRows}} {
		b.Run(shape.name, func(b *testing.B) {
			r := rng.New(uint64(shape.rows))
			w := make([]T, shape.rows*k)
			for i := range w {
				w[i] = T(r.Uniform(-1, 1))
			}
			h := make([]T, k)
			for i := range h {
				h[i] = T(r.Uniform(-1, 1))
			}
			users := make([]int32, max(shape.rows, list))
			for x := range users {
				users[x] = int32(x % shape.rows)
			}
			r.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
			vals := make([]float64, list)
			for x := range vals {
				vals[x] = 0.7
			}
			counts := make([]int32, list)
			b.ResetTimer()
			lo, calls := 0, 0
			for done := 0; done < b.N; done += list {
				if calls++; calls%1024 == 0 {
					clear(counts) // stay inside the tabulated steps
				}
				pass(w, users[lo:lo+list], vals, counts, h, steps)
				if lo += list; lo+list > len(users) {
					lo = 0
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64((b.N+list-1)/list*list), "ns/rating")
		})
	}
}

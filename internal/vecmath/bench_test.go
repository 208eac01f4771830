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
	"strings"
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
		dotRows := DotRowsKernel[float64](k)
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
// item pass's arithmetic and its memory, and between one dependency
// chain and two: the K=16 batched pass over shuffled user lists against
// a W table far larger than the last-level cache (every user row is a
// miss unless something fetched it ahead), one about the size of it,
// and one that stays cache-resident (the arithmetic alone) — through
// the single-list kernel, and ("pair") two lists at a time through the
// two-list kernel. ns/rating is reported for all; cold minus resident
// is what look-ahead prefetching has to hide, single minus pair what a
// second chain buys.
func BenchmarkItemPassCold(b *testing.B) {
	const k = 16
	b.Run("f64", func(b *testing.B) {
		kn := KernelFor(k)
		benchItemPassRows(b, k, func(w []float64, a, c ItemList[float64], steps []float64) {
			kn.ItemPass(w, a.Users, a.Vals, a.Counts, a.H, 1e-3, steps, nil)
			kn.ItemPass(w, c.Users, c.Vals, c.Counts, c.H, 1e-3, steps, nil)
		}, func(w []float64, a, c ItemList[float64], steps []float64) {
			kn.ItemPassPair(w, a, c, 1e-3, steps, nil)
		}, kn.ItemPassPair != nil)
	})
	b.Run("f32", func(b *testing.B) {
		kn := KernelOf[float32](k)
		benchItemPassRows(b, k, func(w []float32, a, c ItemList[float32], steps []float64) {
			kn.ItemPass(w, a.Users, a.Vals, a.Counts, a.H, 1e-3, steps, nil)
			kn.ItemPass(w, c.Users, c.Vals, c.Counts, c.H, 1e-3, steps, nil)
		}, func(w []float32, a, c ItemList[float32], steps []float64) {
			kn.ItemPassPair(w, a, c, 1e-3, steps, nil)
		}, kn.ItemPassPair != nil)
	})
}

// benchItemPassRows times single (two lists, one after the other) and,
// when the dispatch has a two-list kernel, pair (the same two lists in
// lockstep) on each table shape.
func benchItemPassRows[T Float](b *testing.B, k int,
	single, pair func(w []T, a, c ItemList[T], steps []float64), havePair bool) {
	const (
		coldRows     = 1 << 20 // 128 MB of float64 rows at K=16, 64 MB of float32
		l3Rows       = 1 << 16 // 8 MB of float64 rows: about one last-level cache
		residentRows = 256
		list         = 4096 // ratings per list: one popular item's local list
	)
	steps := make([]float64, 4096)
	for t := range steps {
		steps[t] = 1e-6
	}
	for _, shape := range []struct {
		name string
		rows int
		pass func(w []T, a, c ItemList[T], steps []float64)
	}{
		{"cold", coldRows, single}, {"l3", l3Rows, single}, {"resident", residentRows, single},
		{"pair/cold", coldRows, pair}, {"pair/l3", l3Rows, pair}, {"pair/resident", residentRows, pair},
	} {
		b.Run(shape.name, func(b *testing.B) {
			if !havePair && strings.HasPrefix(shape.name, "pair") {
				b.Skip("no two-list kernel on this dispatch")
			}
			r := rng.New(uint64(shape.rows))
			w := make([]T, shape.rows*k)
			for i := range w {
				w[i] = T(r.Uniform(-1, 1))
			}
			users := make([]int32, max(shape.rows, 2*list))
			for x := range users {
				users[x] = int32(x % shape.rows)
			}
			r.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
			var l [2]ItemList[T]
			for i := range l {
				l[i] = ItemList[T]{Vals: make([]float64, list), Counts: make([]int32, list), H: make([]T, k)}
				for x := range l[i].Vals {
					l[i].Vals[x] = 0.7
				}
				for x := range l[i].H {
					l[i].H[x] = T(r.Uniform(-1, 1))
				}
			}
			b.ResetTimer()
			lo, calls := 0, 0
			for done := 0; done < b.N; done += 2 * list {
				if calls++; calls%1024 == 0 {
					clear(l[0].Counts) // stay inside the tabulated steps
					clear(l[1].Counts)
				}
				l[0].Users, l[1].Users = users[lo:lo+list], users[lo+list:lo+2*list]
				shape.pass(w, l[0], l[1], steps)
				if lo += 2 * list; lo+2*list > len(users) {
					lo = 0
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64((b.N+2*list-1)/(2*list)*(2*list)), "ns/rating")
		})
	}
}

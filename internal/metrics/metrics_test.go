package metrics

import (
	"math"
	"runtime"
	"testing"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/sparse"
	"nomad/internal/vecmath"
)

func exactModel(t *testing.T) (*factor.Model, []sparse.Entry) {
	t.Helper()
	md := factor.New(2, 2, 2)
	copy(md.UserRow(0), []float64{1, 0})
	copy(md.UserRow(1), []float64{0, 1})
	copy(md.ItemRow(0), []float64{2, 0})
	copy(md.ItemRow(1), []float64{0, 3})
	test := []sparse.Entry{
		{Row: 0, Col: 0, Val: 2}, // predicted exactly
		{Row: 1, Col: 1, Val: 3}, // predicted exactly
	}
	return md, test
}

func TestRMSEZeroForExactModel(t *testing.T) {
	md, test := exactModel(t)
	if got := RMSE(md, dataset.IndexTest(md.M, test)); got != 0 {
		t.Fatalf("RMSE = %v, want 0", got)
	}
}

func TestRMSEKnownValue(t *testing.T) {
	md, _ := exactModel(t)
	test := []sparse.Entry{
		{Row: 0, Col: 0, Val: 4}, // error 2
		{Row: 1, Col: 1, Val: 3}, // error 0
	}
	want := math.Sqrt((4.0 + 0.0) / 2.0)
	if got := RMSE(md, dataset.IndexTest(md.M, test)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMSE = %v, want %v", got, want)
	}
}

func TestRMSEEmptyTestSet(t *testing.T) {
	md, _ := exactModel(t)
	if got := RMSE(md, dataset.IndexTest(md.M, nil)); !math.IsNaN(got) {
		t.Fatalf("RMSE on empty set = %v, want NaN", got)
	}
}

func TestRMSELargeParallelMatchesSerial(t *testing.T) {
	md := factor.NewInit(100, 50, 8, 3)
	var test []sparse.Entry
	for i := 0; i < 100; i++ {
		for j := 0; j < 50; j += 7 {
			test = append(test, sparse.Entry{Row: int32(i), Col: int32(j), Val: 1.0})
		}
	}
	var serial float64
	for _, e := range test {
		d := e.Val - md.Predict(int(e.Row), int(e.Col))
		serial += d * d
	}
	serial = math.Sqrt(serial / float64(len(test)))
	if got := RMSE(md, dataset.IndexTest(md.M, test)); math.Abs(got-serial) > 1e-12 {
		t.Fatalf("parallel RMSE %v != serial %v", got, serial)
	}
}

// TestRMSEUserMajorBitExact holds RMSE to its documented order,
// written out here with the per-entry kernel: users cut into
// GOMAXPROCS ranges of about equal entry counts, each range summing
// (v − DotKernel(k))² user by user in split order, the partials added
// in range order. The result is equal to the last bit in both
// precisions, under several GOMAXPROCS settings, on tables with many
// users and few items and the reverse, for test sets of 1 to 1000
// entries that name the first and last row of both tables, include
// users with no entries and repeat entries. It also stays within
// 1e-12 relative of the sum in the split's own entry order.
func TestRMSEUserMajorBitExact(t *testing.T) {
	const k = 16
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, prec := range []factor.Precision{factor.Float64, factor.Float32} {
		for _, shape := range [][2]int{{300, 40}, {20000, 40}, {40, 20000}} {
			m, n := shape[0], shape[1]
			md := factor.NewInitP(m, n, k, 5, prec)
			predict := func(e sparse.Entry) float64 {
				if prec == factor.Float32 {
					return float64(vecmath.DotKernelOf[float32](k)(md.UserRow32(int(e.Row)), md.ItemRow32(int(e.Col))))
				}
				return vecmath.DotKernel(k)(md.UserRow(int(e.Row)), md.ItemRow(int(e.Col)))
			}
			for _, size := range []int{1, 7, 8, 9, 1000} {
				test := make([]sparse.Entry, size)
				for x := range test {
					test[x] = sparse.Entry{Row: int32((x * 131) % m), Col: int32((x * 7) % n), Val: float64(1 + x%5)}
				}
				test[0].Row, test[0].Col = 0, int32(n-1)
				test[size-1].Row, test[size-1].Col = int32(m-1), 0
				test = append(test, test[:min(size, 5)]...) // duplicates
				ix := dataset.IndexTest(m, test)

				var entryOrder float64
				for _, e := range test {
					d := e.Val - predict(e)
					entryOrder += d * d
				}
				entryOrder = math.Sqrt(entryOrder / float64(len(test)))

				for _, procs := range []int{1, 2, 3, 8} {
					runtime.GOMAXPROCS(procs)
					byUser := make([][]sparse.Entry, m)
					for _, e := range test {
						byUser[e.Row] = append(byUser[e.Row], e)
					}
					var total float64
					first := 0 // first user of the current range
					for r := 1; r <= procs; r++ {
						end := m
						if r < procs {
							// The first user whose entries start at or
							// past r·len/procs.
							at, seen := r*len(test)/procs, 0
							for end = 0; end < m && seen < at; end++ {
								seen += len(byUser[end])
							}
						}
						var part float64
						for u := first; u < end; u++ {
							for _, e := range byUser[u] {
								d := e.Val - predict(e)
								part += d * d
							}
						}
						total += part
						first = max(first, end)
					}
					want := math.Sqrt(total / float64(len(test)))
					got := RMSE(md, ix)
					if got != want {
						t.Errorf("%v, %d×%d, %d entries, GOMAXPROCS %d: RMSE %v, the user-major loop %v", prec, m, n, len(test), procs, got, want)
					}
					if math.Abs(got-entryOrder) > 1e-12*entryOrder {
						t.Errorf("%v, %d×%d, %d entries, GOMAXPROCS %d: RMSE %v, entry-order sum %v", prec, m, n, len(test), procs, got, entryOrder)
					}
				}
			}
		}
	}
	md := factor.NewInit(3, 3, k, 5)
	if got := RMSE(md, dataset.IndexTest(3, nil)); !math.IsNaN(got) {
		t.Errorf("RMSE on an empty split = %v, want NaN", got)
	}
}

// TestRMSEAllocs: the user-major index is built once per dataset, and
// an evaluation after that allocates per goroutine, never per user:
// a constant count at GOMAXPROCS 1 (where AllocsPerRun measures), and
// at GOMAXPROCS 4 a count and a byte total far below one per user.
func TestRMSEAllocs(t *testing.T) {
	const m, n, k = 20000, 40, 16
	b := sparse.NewBuilder(m, n, m)
	test := make([]sparse.Entry, 0, 2*m)
	for i := 0; i < m; i++ {
		b.Add(i, i%n, 1)
		test = append(test, sparse.Entry{Row: int32(i), Col: int32((i + 1) % n), Val: 2})
		if i%3 == 0 {
			test = append(test, sparse.Entry{Row: int32(i), Col: int32((i + 2) % n), Val: 3})
		}
	}
	train, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ds := &dataset.Dataset{Train: train, Test: test}
	md := factor.NewInit(m, n, k, 5)
	ix := ds.TestByUser()
	eval := func() { RMSE(md, ds.TestByUser()) }

	allocs := testing.AllocsPerRun(20, eval)
	if allocs > 8 {
		t.Errorf("%v allocations per evaluation at GOMAXPROCS 1, ceiling 8", allocs)
	}

	const procs, runs = 4, 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	eval()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		eval()
	}
	runtime.ReadMemStats(&after)
	if ds.TestByUser() != ix {
		t.Fatal("a later evaluation rebuilt the index")
	}
	mallocs := (after.Mallocs - before.Mallocs) / runs
	if mallocs > 4*procs+4 {
		t.Errorf("%d allocations per evaluation at GOMAXPROCS %d, ceiling %d", mallocs, procs, 4*procs+4)
	}
	indexBytes := uint64(4*(m+1) + 12*len(test))
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if bytes > indexBytes/8 {
		t.Errorf("%d bytes allocated per evaluation at GOMAXPROCS %d; the index alone is %d", bytes, procs, indexBytes)
	}
	t.Logf("per evaluation: %v allocations at GOMAXPROCS 1; %d allocations, %d bytes at GOMAXPROCS %d", allocs, mallocs, bytes, procs)
}

func TestObjectiveHandComputed(t *testing.T) {
	md, _ := exactModel(t)
	train, err := sparse.FromEntries(2, 2, []sparse.Entry{
		{Row: 0, Col: 0, Val: 3}, // error 1
	})
	if err != nil {
		t.Fatal(err)
	}
	lambda := 0.5
	// J = 1/2 [ (3-2)^2 + 0.5*(|w0|^2 + |h0|^2) ] = 1/2 [1 + 0.5*(1+4)]
	want := 0.5 * (1 + 0.5*5)
	if got := Objective(md, train, lambda); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Objective = %v, want %v", got, want)
	}
}

func TestObjectiveNonNegative(t *testing.T) {
	md := factor.NewInit(30, 20, 4, 9)
	b := sparse.NewBuilder(30, 20, 0)
	for i := 0; i < 30; i++ {
		b.Add(i, i%20, float64(i%5))
	}
	train, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := Objective(md, train, 0.1); got < 0 {
		t.Fatalf("Objective negative: %v", got)
	}
}

func TestTraceFinalBest(t *testing.T) {
	var tr Trace
	if !math.IsNaN(tr.Final().RMSE) {
		t.Fatal("empty trace should report NaN")
	}
	tr.Add(1, 100, 0.95)
	tr.Add(2, 200, 0.91)
	tr.Add(3, 300, 0.93)
	if tr.Final().RMSE != 0.93 {
		t.Fatalf("Final = %+v", tr.Final())
	}
}

func TestThroughput(t *testing.T) {
	tp := Throughput{Updates: 1000, Seconds: 2, Workers: 5}
	if got := tp.PerWorkerPerSec(); got != 100 {
		t.Fatalf("PerWorkerPerSec = %v, want 100", got)
	}
	if (Throughput{}).PerWorkerPerSec() != 0 {
		t.Fatal("zero throughput should be 0")
	}
}

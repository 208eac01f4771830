package metrics

import (
	"math"
	"runtime"
	"testing"

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
	if got := RMSE(md, test); got != 0 {
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
	if got := RMSE(md, test); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMSE = %v, want %v", got, want)
	}
}

func TestRMSEEmptyTestSet(t *testing.T) {
	md, _ := exactModel(t)
	if got := RMSE(md, nil); !math.IsNaN(got) {
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
	if got := RMSE(md, test); math.Abs(got-serial) > 1e-12 {
		t.Fatalf("parallel RMSE %v != serial %v", got, serial)
	}
}

// TestRMSELookAheadChangesNoBit holds RMSE to the loop it was before
// the row look-ahead, written out here: same chunks, same entries in
// the same order through the same dispatched dot, same partial sums
// added in the same order — so the result is equal to the last bit, in
// both precisions, with the user table, the item table or neither past
// residentBytes, for test sets shorter than, as long as and longer than
// the look-ahead, naming the first and the last row of both tables.
func TestRMSELookAheadChangesNoBit(t *testing.T) {
	const k = 16
	for _, prec := range []factor.Precision{factor.Float64, factor.Float32} {
		for _, shape := range [][2]int{{300, 40}, {20000, 40}, {40, 20000}} {
			m, n := shape[0], shape[1]
			md := factor.NewInitP(m, n, k, 5, prec)
			for _, size := range []int{1, rmseAhead - 1, rmseAhead, rmseAhead + 1, 1000} {
				test := make([]sparse.Entry, size)
				for x := range test {
					test[x] = sparse.Entry{Row: int32((x * 131) % m), Col: int32((x * 7) % n), Val: float64(1 + x%5)}
				}
				test[0].Row, test[0].Col = 0, int32(n-1)
				test[size-1].Row, test[size-1].Col = int32(m-1), 0

				workers := runtime.GOMAXPROCS(0)
				if workers > size {
					workers = 1
				}
				chunk := (size + workers - 1) / workers
				var total float64
				for lo := 0; lo < size; lo += chunk {
					var part float64
					for _, e := range test[lo:min(lo+chunk, size)] {
						var pred float64
						if prec == factor.Float32 {
							pred = float64(vecmath.DotKernel32(k)(md.UserRow32(int(e.Row)), md.ItemRow32(int(e.Col))))
						} else {
							pred = vecmath.DotKernel(k)(md.UserRow(int(e.Row)), md.ItemRow(int(e.Col)))
						}
						d := e.Val - pred
						part += d * d
					}
					total += part
				}
				if got, want := RMSE(md, test), math.Sqrt(total/float64(size)); got != want {
					t.Errorf("%v, %d×%d, %d entries: RMSE %v, the loop without look-ahead %v", prec, m, n, size, got, want)
				}
			}
		}
	}
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

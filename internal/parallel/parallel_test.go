package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	err := quick.Check(func(nRaw, wRaw uint8) bool {
		n := int(nRaw % 200)
		workers := int(wRaw%8) + 1
		touched := make([]int32, n)
		For(workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&touched[i], 1)
			}
		})
		for _, c := range touched {
			if c != 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(4, 0, func(_, _, _ int) { called = true })
	For(4, -3, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestForSerialFallback(t *testing.T) {
	var calls int
	For(1, 100, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 100 {
			t.Fatalf("serial call got (%d,%d,%d)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("serial fallback made %d calls", calls)
	}
}

func TestForDistinctWorkerIDs(t *testing.T) {
	n, workers := 64, 4
	seen := make([]int32, workers)
	For(workers, n, func(w, _, _ int) {
		atomic.AddInt32(&seen[w], 1)
	})
	for w, c := range seen {
		if c != 1 {
			t.Fatalf("worker %d invoked %d times", w, c)
		}
	}
}

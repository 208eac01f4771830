package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values out of 100", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("seed 0 stream looks degenerate: only %d distinct values", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Split(0)
	b := parent.Split(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d/1000 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("bucket %d count %d too far from expected %.0f", i, c, expected)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Uniform out of [-2,3): %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(1.5, 2.0)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1.5) > 0.02 {
		t.Errorf("mean = %v, want ~1.5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2.0) > 0.03 {
		t.Errorf("stddev = %v, want ~2.0", math.Sqrt(variance))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	p := make([]int, 257)
	r.Perm(p)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("not a permutation: value %d", v)
		}
		seen[v] = true
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(17)
	const n, trials = 5, 50000
	counts := make([]int, n)
	p := make([]int, n)
	for i := 0; i < trials; i++ {
		r.Perm(p)
		counts[p[0]]++
	}
	expected := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("first-element bucket %d count %d far from %.0f", i, c, expected)
		}
	}
}

func TestShuffleProperty(t *testing.T) {
	r := New(23)
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		rr := New(seed)
		rr.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
		seen := make([]bool, n)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestAliasMatchesWeights(t *testing.T) {
	r := New(43)
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(r, weights)
	const n = 200000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[a.Sample()]++
	}
	total := 10.0
	for i, w := range weights {
		want := float64(n) * w / total
		if math.Abs(float64(counts[i])-want) > 5*math.Sqrt(want) {
			t.Errorf("alias bucket %d: got %d want ~%.0f", i, counts[i], want)
		}
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a := NewAlias(New(1), []float64{5})
	for i := 0; i < 100; i++ {
		if a.Sample() != 0 {
			t.Fatal("single-outcome alias returned nonzero")
		}
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a := NewAlias(New(2), []float64{1, 0, 1})
	for i := 0; i < 20000; i++ {
		if a.Sample() == 1 {
			t.Fatal("zero-weight outcome sampled")
		}
	}
}

func TestAliasPanics(t *testing.T) {
	for _, weights := range [][]float64{{}, {0, 0}, {-1, 2}} {
		w := weights
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAlias(%v) did not panic", w)
				}
			}()
			NewAlias(New(1), w)
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1000)
	}
	_ = sink
}

func BenchmarkAlias(b *testing.B) {
	w := make([]float64, 1<<16)
	for i := range w {
		w[i] = float64(i%97) + 1
	}
	a := NewAlias(New(1), w)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = a.Sample()
	}
	_ = sink
}

func TestQuadRangeAndUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 7, 20000
	var counts [n]int
	for i := 0; i < draws; i++ {
		a, b, c, d := r.Quad(n)
		for _, v := range []int{a, b, c, d} {
			if v < 0 || v >= n {
				t.Fatalf("Quad value %d out of [0,%d)", v, n)
			}
			counts[v]++
		}
	}
	want := float64(4*draws) / n
	for v, got := range counts {
		if float64(got) < 0.9*want || float64(got) > 1.1*want {
			t.Errorf("value %d drawn %d times, want ≈%.0f", v, got, want)
		}
	}
}

func TestQuadPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quad(0) did not panic")
		}
	}()
	New(1).Quad(0)
}

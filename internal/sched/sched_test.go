package sched

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPowerAtZero(t *testing.T) {
	s := Power{Alpha: 0.012, Beta: 0.05}
	if got := s.Step(0); got != 0.012 {
		t.Fatalf("Step(0) = %v, want alpha", got)
	}
}

func TestPowerMonotoneDecreasing(t *testing.T) {
	err := quick.Check(func(aRaw, bRaw uint16, tRaw uint8) bool {
		alpha := 0.001 + float64(aRaw)/1e6
		beta := 0.001 + float64(bRaw)/1e6
		s := Power{Alpha: alpha, Beta: beta}
		tt := int(tRaw)
		return s.Step(tt+1) < s.Step(tt) || s.Step(tt+1) == s.Step(tt) && beta == 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPowerMatchesFormula(t *testing.T) {
	s := Power{Alpha: 0.00075, Beta: 0.01}
	for _, tt := range []int{0, 1, 2, 10, 100, 1000} {
		want := 0.00075 / (1 + 0.01*math.Pow(float64(tt), 1.5))
		if got := s.Step(tt); math.Abs(got-want) > 1e-15 {
			t.Fatalf("Step(%d) = %v, want %v", tt, got, want)
		}
	}
}

func TestConstant(t *testing.T) {
	c := Constant(0.5)
	for _, tt := range []int{0, 1, 1000000} {
		if c.Step(tt) != 0.5 {
			t.Fatal("Constant changed over time")
		}
	}
}

func TestBoldDriverGrowsOnImprovement(t *testing.T) {
	b := NewBoldDriver(0.1)
	b.Observe(100) // primes
	step := b.Observe(90)
	if math.Abs(step-0.1*1.05) > 1e-12 {
		t.Fatalf("step after improvement = %v, want %v", step, 0.105)
	}
}

func TestBoldDriverShrinksOnRegression(t *testing.T) {
	b := NewBoldDriver(0.1)
	b.Observe(100)
	step := b.Observe(200)
	if math.Abs(step-0.05) > 1e-12 {
		t.Fatalf("step after regression = %v, want 0.05", step)
	}
}

func TestBoldDriverFirstObservationPrimesOnly(t *testing.T) {
	b := NewBoldDriver(0.1)
	if step := b.Observe(100); step != 0.1 {
		t.Fatalf("first observation changed step to %v", step)
	}
}

func TestBoldDriverSequence(t *testing.T) {
	b := NewBoldDriver(1)
	b.Observe(10)
	b.Observe(9)  // grow -> 1.05
	b.Observe(8)  // grow -> 1.1025
	b.Observe(12) // shrink -> 0.55125
	want := 1.05 * 1.05 * 0.5
	if math.Abs(b.Step-want) > 1e-12 {
		t.Fatalf("step = %v, want %v", b.Step, want)
	}
}

package partition

import "testing"

func TestCarveShareProportional(t *testing.T) {
	counts := []int64{600, 300, 100}
	quota := CarveShare(counts)
	// The newcomer should end up with ≈ 1000/4 = 250, carved off each
	// donor proportionally to its holdings: 150/75/25.
	if quota[0] != 150 || quota[1] != 75 || quota[2] != 25 {
		t.Fatalf("quota = %v, want [150 75 25]", quota)
	}
	var donated int64
	for i, q := range quota {
		if q > counts[i] {
			t.Fatalf("donor %d asked for %d of its %d items", i, q, counts[i])
		}
		donated += q
	}
	if target := int64(1000 / 4); donated > target {
		t.Fatalf("donated %d, more than the newcomer's %d share", donated, target)
	}
}

func TestCarveShareEdges(t *testing.T) {
	for _, q := range CarveShare([]int64{0, 0}) {
		if q != 0 {
			t.Fatal("empty donors asked to donate")
		}
	}
	// One donor with everything: the newcomer gets ≈ half.
	quota := CarveShare([]int64{10})
	if quota[0] != 5 {
		t.Fatalf("single-donor quota = %v, want [5]", quota)
	}
	// Rounding must never exceed holdings even for tiny counts.
	for _, counts := range [][]int64{{1, 1, 1}, {2, 0, 1}, {1}} {
		for i, q := range CarveShare(counts) {
			if q < 0 || q > counts[i] {
				t.Fatalf("counts %v: quota %d for donor %d outside [0,%d]", counts, q, i, counts[i])
			}
		}
	}
}

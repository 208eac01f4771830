package partition

// CarveShare computes the scale-out donation quotas: counts[i] is how
// many items owner i currently holds, and the returned quota[i] is how
// many it should hand to a new member so that the newcomer ends up
// with ≈ 1/(len(counts)+1) of the total, carved off each donor
// proportionally to its load (§3.3's balance goal applied to a
// resize). Donors with nothing to give donate nothing; rounding keeps
// every quota within each donor's holdings.
func CarveShare(counts []int64) []int64 {
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	quota := make([]int64, len(counts))
	if total == 0 {
		return quota
	}
	target := total / int64(len(counts)+1)
	for i, c := range counts {
		q := target * c / total
		if q > c {
			q = c
		}
		quota[i] = q
	}
	return quota
}

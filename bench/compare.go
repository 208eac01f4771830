package main

import (
	"fmt"
	"io"
	"math"
)

// verdict compares one metric of a candidate run against a reference
// run under the metric's bound:
//
//	unresolved  either side's interquartile spread exceeds the bound, so
//	            a difference of bound size could not be told from noise
//	worse       the candidate's median is worse by more than the bound
//	better      it is better by more than the bound
//	same        otherwise
func verdict(d metricDef, ref, cand summary) string {
	bound := d.Bound * math.Abs(ref.Median)
	if d.AbsBound {
		bound = d.Bound
	}
	if ref.Q3-ref.Q1 > bound || cand.Q3-cand.Q1 > bound {
		return "unresolved"
	}
	gain := cand.Median - ref.Median
	if d.Better == "lower" {
		gain = -gain
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > bound:
		return "better"
	}
	return "same"
}

// runCompare prints one row per workload x end-to-end metric present
// in both result sets and exits 1 when any row is worse or unresolved.
func runCompare(refPath, candPath string, stdout, stderr io.Writer) int {
	ref, err := readResultSet(refPath)
	if err == nil {
		var cand resultSet
		if cand, err = readResultSet(candPath); err == nil {
			return compareSets(ref, cand, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareSets(ref, cand resultSet, stdout io.Writer) int {
	byName := map[string]result{}
	for _, r := range cand.Results {
		if !r.Traced {
			byName[r.Workload] = r
		}
	}
	fmt.Fprintf(stdout, "%-13s %-18s %12s %22s %12s %22s %7s  %s\n", "workload", "metric", "ref", "[q1, q3]", "cand", "[q1, q3]", "bound", "verdict")
	bad, rows := 0, 0
	for _, a := range ref.Results {
		b, ok := byName[a.Workload]
		if a.Traced || !ok {
			continue
		}
		for _, d := range endToEnd {
			sa, okA := a.EndToEnd[d.Name]
			sb, okB := b.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(d, sa, sb)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			rows++
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			if d.AbsBound {
				bound = fmt.Sprintf("%.2g", d.Bound)
			}
			fmt.Fprintf(stdout, "%-13s %-18s %12.6g [%9.5g, %9.5g] %12.6g [%9.5g, %9.5g] %7s  %s\n",
				a.Workload, d.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, bound, v)
		}
		if a.Failed != b.Failed || a.Correct != b.Correct {
			fmt.Fprintf(stdout, "%-13s ops_failed %d/%d -> %d/%d, correct %v -> %v\n", a.Workload, a.Failed, a.Attempted, b.Failed, b.Attempted, a.Correct, b.Correct)
		}
	}
	if rows == 0 {
		fmt.Fprintln(stdout, "no workload is in both result sets")
		return 2
	}
	if bad > 0 {
		return 1
	}
	return 0
}

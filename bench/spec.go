package main

import "nomad"

// Hyper-parameters are the repository defaults everywhere (K=16,
// λ=0.05, default step schedule, float64, SPSC transport): a workload
// differs from the others only in its inputs and its load.
const rank = 16

// workload is one named set of inputs plus the load applied to it.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	// Inputs: a synthetic rating matrix of this profile and scale.
	Profile string
	Scale   float64

	// Training load (Serve == false): a fresh Session per segment with
	// these options and this fixed epoch budget.
	Options    func() []nomad.Option
	Epochs     int
	EvalPoints int
	// Workers is machines × workers per machine: the busy threads that
	// worker-ns per update is charged to.
	Workers int
	// TargetRatio places the quality target of time_to_target_s at this
	// multiple of the segment's own final test RMSE; 0 on shapes whose
	// test RMSE does not generalise. A fixed RMSE cannot be used: the
	// reachable RMSE moves by 6 % from seed to seed (0.70 to 0.75 after
	// 40 epochs), which moved the crossing of a fixed 0.80 by 27 %.
	TargetRatio float64
	// CeilRMSE fails a segment whose final test RMSE is above it: the
	// does-not-diverge / no-lost-update gauge.
	CeilRMSE float64

	// Serving load.
	Serve bool
	Swap  bool // models alternate through a watch directory while queries run
}

var workloads = []workload{
	{
		Name:    "shm-netflix",
		Why:     "few items with ~5K ratings each: kernel and cache misses are the whole run, token transport is noise; the only shape with a time-to-target",
		Profile: "netflix", Scale: 0.05,
		Options: func() []nomad.Option { return []nomad.Option{nomad.WithWorkers(2)} },
		Epochs:  30, EvalPoints: 30, Workers: 2,
		TargetRatio: 1.13, CeilRMSE: 0.90,
	},
	{
		Name:    "shm-longtail",
		Why:     "300K items with ~4 ratings each on 2 shared-memory workers: queue mesh pop/route/push and the worker loop outweigh the kernel",
		Profile: "longtail", Scale: 0.5,
		Options: func() []nomad.Option { return []nomad.Option{nomad.WithWorkers(2)} },
		Epochs:  36, EvalPoints: 4, Workers: 2,
		CeilRMSE: 1.20,
	},
	{
		Name:    "tcp-longtail",
		Why:     "same data over 2 loopback TCP machines x 1 worker: netlink codec, sender batching and syscalls carry the gap to shm-longtail",
		Profile: "longtail", Scale: 0.5,
		Options: func() []nomad.Option {
			return []nomad.Option{nomad.WithCluster(2, "tcp"), nomad.WithWorkers(1)}
		},
		Epochs: 12, EvalPoints: 4, Workers: 2,
		CeilRMSE: 1.20,
	},
	{
		Name:    "serve-steady",
		Why:     "read path only on a generated 40Kx300K model: index scan, top-n heap, dot kernel and net/http, closed loop then open loop at 100 qps",
		Profile: "longtail", Scale: 0.5,
		Serve: true,
	},
	{
		Name:    "serve-swap",
		Why:     "models hot-swapped through the watch directory under the same 100 qps open loop: load, index build, promote and drain run beside reads",
		Profile: "longtail", Scale: 0.5,
		Serve: true, Swap: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef describes one metric the benchmark prints. Bound is the
// share of the reference median by which the metric may worsen before
// -compare calls it worse (AbsBound: an absolute amount instead).
type metricDef struct {
	Name     string
	Unit     string
	Better   string // "higher" or "lower"
	Bound    float64
	AbsBound bool
}

// endToEnd lists what a user of the trainer or the server sees. Each
// workload reports the subset that exists for it (see README.md).
var endToEnd = []metricDef{
	{Name: "updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.07},
	{Name: "segment_s", Unit: "s", Better: "lower", Bound: 0.07},
	{Name: "segment_q3_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "time_to_target_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "final_rmse", Unit: "rmse", Better: "lower", Bound: 0.02},
	{Name: "capacity_qps", Unit: "1/s", Better: "higher", Bound: 0.07},
	{Name: "goodput_qps", Unit: "1/s", Better: "higher", Bound: 0.01},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "p75_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "p90_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "ok_share", Unit: "share", Better: "higher", Bound: 0.01, AbsBound: true},
	{Name: "cold_ready_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "swap_visible_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// role maps the metrics of BENCHMARK.json, which every workload must
// report, onto the workload's own end-to-end metric that plays that
// role. scale converts units.
type role struct {
	Name   string
	Unit   string
	Source func(w workload) (metric string, scale float64)
}

var roles = []role{
	{"throughput_per_s", "1/s", func(w workload) (string, float64) {
		switch {
		case !w.Serve:
			return "updates_per_s", 1
		case w.Swap:
			return "goodput_qps", 1
		}
		return "capacity_qps", 1
	}},
	{"ready_s", "s", func(w workload) (string, float64) {
		switch {
		case w.Serve:
			return "cold_ready_s", 1
		case w.TargetRatio > 0:
			return "time_to_target_s", 1
		}
		return "segment_s", 1
	}},
	{"tail_ms", "ms", func(w workload) (string, float64) {
		// The serving tails are gated below the percentile one would like.
		// Across ten seeds p95 spread up to 16 % on serve-steady. On
		// serve-swap a model load keeps the server busy for 15-20 % of
		// every window and stalls 5-10 % of its requests, so each higher
		// percentile sits on the edge of a mixture: p75 spread 18 %, p90
		// 22-26 %, p95 24-43 %, against a largest allowed bound of 25 %.
		// Only the median is safely inside the undisturbed share; what
		// swaps cost readers is counted by ok_share and goodput.
		switch {
		case w.Swap:
			return "p50_ms", 1
		case w.Serve:
			return "p90_ms", 1
		}
		return "segment_q3_ms", 1
	}},
	{"ok_share", "share", func(workload) (string, float64) { return "ok_share", 1 }},
	{"peak_rss_mb", "MB", func(workload) (string, float64) { return "peak_rss_mb", 1 }},
	{"setup_s", "s", func(workload) (string, float64) { return "setup_s", 1 }},
}

// pinnedDigests are the input digests at seed 7, full scale. A run at
// that seed whose inputs hash differently fails: a change to
// internal/dataset (or to the benchmark's own generators) cannot
// silently change the workload.
const pinnedSeed = 7

var pinnedDigests = map[string]string{
	"shm-netflix":  "4c73d741b9c89158",
	"shm-longtail": "b26f40d8803936f1",
	"tcp-longtail": "b26f40d8803936f1",
	"serve-steady": "b26f40d8803936f1-603cfb92bd396533",
	"serve-swap":   "b26f40d8803936f1-f1875e116fb6201a",
}

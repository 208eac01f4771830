// Package nomad is a from-scratch Go implementation of NOMAD — the
// Non-locking, stOchastic Multi-machine algorithm for Asynchronous and
// Decentralized matrix completion (Yun, Yu, Hsieh, Vishwanathan,
// Dhillon; VLDB 2014) — together with the baselines the paper evaluates
// against (DSGD, DSGD++, FPSGD**, CCD++, ALS, GraphLab-style locking
// ALS, Hogwild) and a simulated multi-machine cluster.
//
// This package is the public facade: build a Dataset (from your own
// ratings or the synthetic generators), configure a Session with
// functional options, and Run it:
//
//	ds, _ := nomad.Synthesize("netflix", 0.002, 42)
//	s, _ := nomad.NewSession(ds, nomad.WithWorkers(4), nomad.WithStopConditions(nomad.MaxEpochs(10)))
//	res, _ := s.Run(ctx)
//	fmt.Println(res.TestRMSE)
//
// Sessions are cancellable (Run honours ctx), observable (Subscribe
// streams typed Events) and restartable (Checkpoint/Resume serialize
// the full training state).
//
// The paper's tables and figures are regenerated by cmd/nomad-bench and
// the repository-root benchmarks; see DESIGN.md and EXPERIMENTS.md.
package nomad

import (
	"nomad/internal/als"
	"nomad/internal/ccd"
	"nomad/internal/core"
	"nomad/internal/dsgd"
	"nomad/internal/fpsgd"
	"nomad/internal/glals"
	"nomad/internal/hogwild"
	"nomad/internal/train"
)

// TracePoint is one sample of the convergence trace: the TraceEvent
// the run streamed when it took the sample.
type TracePoint = TraceEvent

// Result reports a completed training run.
type Result struct {
	Algorithm string
	Model     *Model
	TestRMSE  float64 // final RMSE on the dataset's test split
	Updates   int64   // SGD updates (or rating-touches) performed
	Seconds   float64 // wall-clock duration

	// Simulated-network accounting (zero for single-machine runs).
	BytesSent    int64
	MessagesSent int64

	Trace []TracePoint
}

// registry returns a fresh instance of each solver.
func registry() map[string]train.Algorithm {
	algos := []train.Algorithm{
		core.New(), dsgd.New(), dsgd.NewPP(), fpsgd.New(),
		ccd.New(), als.New(), glals.New(), glals.NewBiasSGD(), hogwild.New(),
	}
	m := make(map[string]train.Algorithm, len(algos))
	for _, a := range algos {
		m[a.Name()] = a
	}
	return m
}

// Algorithms lists the available solver names.
func Algorithms() []string {
	return []string{"nomad", "dsgd", "dsgdpp", "fpsgd", "ccd", "als", "glals", "biassgd", "hogwild"}
}

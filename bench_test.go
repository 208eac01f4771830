package nomad

// This file maps every table and figure of the paper's evaluation to a
// testing.B benchmark, as indexed in DESIGN.md §3. Each benchmark runs
// the corresponding experiment at a reduced scale and reports the final
// RMSE of its first series (when the experiment produces series) so
// regressions in convergence quality show up next to regressions in
// speed. Run the full set with:
//
//	go test -bench=. -benchmem
//
// For larger-scale regeneration with readable output use
// cmd/nomad-bench (e.g. `go run ./cmd/nomad-bench -exp fig5 -scale 0.01`).

import (
	"testing"

	"nomad/internal/experiments"
)

// benchOpts keeps each experiment benchmark in the seconds range.
func benchOpts() experiments.Options {
	return experiments.Options{
		Scale:    0.0005,
		Epochs:   3,
		Seconds:  0.25,
		K:        8,
		Workers:  2,
		Machines: 2,
		Seed:     7,
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) > 0 {
			b.ReportMetric(res.Series[0].Final(), "final-rmse")
		}
	}
}

// --- Tables ---------------------------------------------------------

func BenchmarkTable1Defaults(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2DatasetGen(b *testing.B) { benchExperiment(b, "table2") }

// --- Method figures -------------------------------------------------

func BenchmarkFig1AccessPattern(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFig4Partitioning(b *testing.B)  { benchExperiment(b, "fig4") }

// --- §5.2 shared memory ----------------------------------------------

func BenchmarkFig5SharedMemory(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig6UpdatesVsCores(b *testing.B)     { benchExperiment(b, "fig6L") }
func BenchmarkFig6Throughput(b *testing.B)         { benchExperiment(b, "fig6R") }
func BenchmarkFig7CPUTimeScaling(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig18UpdatesVsCoresAll(b *testing.B) { benchExperiment(b, "fig18") }

// --- §5.3 HPC cluster -------------------------------------------------

func BenchmarkFig8DistributedHPC(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9MachineScaling(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10UpdatesVsMachines(b *testing.B)    { benchExperiment(b, "fig10L") }
func BenchmarkFig10Throughput(b *testing.B)           { benchExperiment(b, "fig10R") }
func BenchmarkFig19UpdatesVsMachinesAll(b *testing.B) { benchExperiment(b, "fig19") }

// --- §5.4 commodity cluster -------------------------------------------

func BenchmarkFig11Commodity(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig15CommodityUpdates(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16CommodityThroughput(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17CommodityCPUTime(b *testing.B)    { benchExperiment(b, "fig17") }

// --- §5.5 weak scaling -------------------------------------------------

func BenchmarkFig12WeakScaling(b *testing.B) { benchExperiment(b, "fig12") }

// --- Appendices A, B, E ------------------------------------------------

func BenchmarkFig13LambdaSweep(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14RankSweep(b *testing.B)   { benchExperiment(b, "fig14") }
func BenchmarkFig20LambdaGrid(b *testing.B)  { benchExperiment(b, "fig20") }

// --- Appendix F (GraphLab comparators) ----------------------------------

func BenchmarkFig21GraphLabShared(b *testing.B)    { benchExperiment(b, "fig21") }
func BenchmarkFig22GraphLabHPC(b *testing.B)       { benchExperiment(b, "fig22") }
func BenchmarkFig23GraphLabCommodity(b *testing.B) { benchExperiment(b, "fig23") }

// --- Ablations (design choices called out in DESIGN.md) ------------------

func BenchmarkAblationLoadBalance(b *testing.B)     { benchExperiment(b, "abl-lb") }
func BenchmarkAblationPartition(b *testing.B)       { benchExperiment(b, "abl-part") }
func BenchmarkAblationBatchSize(b *testing.B)       { benchExperiment(b, "abl-batch") }
func BenchmarkAblationSerializability(b *testing.B) { benchExperiment(b, "abl-serial") }
func BenchmarkAblationCirculation(b *testing.B)     { benchExperiment(b, "abl-circ") }

// --- Micro: the core SGD path -------------------------------------------

// BenchmarkTrainNomadEpoch measures one full NOMAD epoch on the
// benchmark dataset through the public API.
func BenchmarkTrainNomadEpoch(b *testing.B) {
	ds, err := Synthesize("netflix", 0.0005, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runSession(ds, WithStopConditions(MaxEpochs(1)), WithWorkers(2), WithSeed(7))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Updates), "updates")
	}
}

package main

// The -json mode emits a machine-readable benchmark record so the
// repository's hot-path performance is tracked as data, not prose.
// BENCH_hotpath.json at the repository root is the committed
// trajectory: each perf PR re-runs
//
//	go run ./cmd/nomad-bench -json BENCH_hotpath.json
//
// and commits the result. One invocation measures ALL sides of the
// current PR's hot-path A/B — since the SIMD PR that is the portable
// Go kernels ("baseline") against the AVX2/FMA assembly kernels
// ("after") and the assembly kernels on a float32 model
// ("after_float32"), all on the shipping SPSC transport — interleaved
// rep by rep in one process, because the benchmark boxes are small
// shared VMs whose speed drifts between invocations: interleaving
// lands all sides under the same machine conditions, which separate
// runs cannot guarantee. The measured workload is fixed (the
// BenchmarkTrainNomadEpoch hot path, plus the fig5/fig6 experiments on
// the shipping configuration) so records stay comparable across PRs.
// (PR 3–5 records had transport A/Bs: mutex baseline vs spsc after.)

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	nomad "nomad"
	"nomad/internal/benchenv"
	"nomad/internal/experiments"
	"nomad/internal/vecmath"
)

// benchRecord is one measured side of the A/B.
type benchRecord struct {
	Env benchenv.Env `json:"env"`
	// Kernels records the vecmath side in use: "simd" for the AVX2/FMA
	// assembly kernels, "portable" for the pure-Go unrolled set (the
	// baseline of this PR's A/B; PR 3–5 records said "fused" for the
	// same thing). Transport is the token transport, "spsc" on every
	// side since PR 5's A/B closed.
	Kernels   string `json:"kernels"`
	Transport string `json:"transport"`
	// Precision is the factor-model element type of the measured runs.
	Precision string `json:"precision"`
	// Options are the experiment options the fig5/fig6 runs were
	// measured under — always jsonOptions, recorded so the file is
	// self-describing. Empty for the baseline record, which measures
	// only the hot path.
	Options *experiments.Options `json:"options,omitempty"`
	Hotpath hotpathStats         `json:"hotpath"`
	// TokenBound is the fine-grained-token companion workload: the
	// longtail profile's ≈4.5 ratings/item make per-token cost — the
	// cache misses a token's offsets, rating slices and rows bring,
	// then the transport — not SGD arithmetic, the worker loop's
	// dominant term (EXPERIMENTS.md "Where an SGD update waits") —
	// the regime the batched SPSC mesh exists for. (The pinned netflix
	// hotpath has ≈2.8K ratings/item, so there the transport is ≈0.1%
	// of the work and the A/B reads as parity; see EXPERIMENTS.md.)
	TokenBound  hotpathStats `json:"hotpath_token_transport"`
	Experiments []expRecord  `json:"experiments,omitempty"`
}

// hotpathStats measures the BenchmarkTrainNomadEpoch workload: NOMAD
// shared-memory training on the benchmark dataset through the public
// API. Epoch* fields replicate the benchmark exactly (one epoch,
// setup included); Steady* fields amortize setup over several epochs,
// which is the per-update throughput the paper's claims are about.
type hotpathStats struct {
	Dataset           string  `json:"dataset"`
	Scale             float64 `json:"scale"`
	Workers           int     `json:"workers"`
	Seed              uint64  `json:"seed"`
	Reps              int     `json:"reps"`
	EpochUpdates      int64   `json:"epoch_updates"`
	EpochBestUPS      float64 `json:"epoch_best_updates_per_sec"`
	EpochMeanUPS      float64 `json:"epoch_mean_updates_per_sec"`
	SteadyEpochs      int     `json:"steady_epochs"`
	SteadyUpdates     int64   `json:"steady_updates"`
	SteadyBestUPS     float64 `json:"steady_best_updates_per_sec"`
	SteadyMeanUPS     float64 `json:"steady_mean_updates_per_sec"`
	SteadyNsPerUpdate float64 `json:"steady_wall_ns_per_update"`
	FinalRMSE         float64 `json:"final_rmse"`
}

// expRecord summarizes one experiment's outcome: final RMSE per series
// (convergence figures) or the raw table (throughput figures).
type expRecord struct {
	ID     string             `json:"id"`
	Title  string             `json:"title"`
	Series map[string]float64 `json:"series_final_rmse,omitempty"`
	Table  [][]string         `json:"table,omitempty"`
}

// jsonExperiments is the fixed experiment set of the record.
var jsonExperiments = []string{"fig5", "fig6L", "fig6R"}

// jsonOptions returns the pinned experiment options of the record.
// The -scale/-workers/... flags deliberately do not apply here:
// records are only useful if every PR measures the same thing.
func jsonOptions() experiments.Options {
	return experiments.Options{}.WithDefaults()
}

// runJSON measures every side of the A/B and merges them into path as
// "baseline", "after" and "after_float32".
func runJSON(path string) error {
	// Validate the merge target before spending minutes measuring.
	doc, err := loadDoc(path)
	if err != nil {
		return err
	}

	base := newRecord("portable", "spsc", "float64")
	after := newRecord("simd", "spsc", "float64")
	f32 := newRecord("simd", "spsc", "float32")
	if err := measureHotpathAB(&base, &after, &f32); err != nil {
		return fmt.Errorf("hotpath: %w", err)
	}

	// Figure regressions are tracked on the shipping configuration.
	vecmath.SetSIMD(vecmath.SIMDAvailable())
	opts := jsonOptions()
	after.Options = &opts
	for _, id := range jsonExperiments {
		res, err := experiments.Run(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		er := expRecord{ID: res.ID, Title: res.Title}
		if len(res.Series) > 0 {
			er.Series = make(map[string]float64, len(res.Series))
			for _, s := range res.Series {
				er.Series[s.Label] = s.Final()
			}
		}
		if res.Table != nil {
			er.Table = append([][]string{res.Table.Headers}, res.Table.Rows...)
		}
		after.Experiments = append(after.Experiments, er)
		fmt.Printf("   [json: %s done]\n", id)
	}

	return writeDoc(path, doc, map[string]benchRecord{
		"baseline": base, "after": after, "after_float32": f32})
}

func newRecord(kernels, transport, precision string) benchRecord {
	return benchRecord{
		Env:       benchenv.Capture(),
		Kernels:   kernels,
		Transport: transport,
		Precision: precision,
	}
}

// measureHotpathAB runs the BenchmarkTrainNomadEpoch workload plus
// the per-token-bound longtail workload on every kernel side,
// alternating sides within each rep so machine-speed drift cancels
// out of the comparison.
func measureHotpathAB(base, after, f32 *benchRecord) error {
	// Best-of-9 on each workload: the best rep is the least-disturbed
	// one — the standard way to compare compute-bound code under noise.
	const (
		profile   = "netflix"
		scale     = 0.0005
		ltProfile = "longtail"
		ltScale   = 0.05
		workers   = 2
		seed      = 7
		reps      = 9
		steadyE   = 5
	)
	sides := []struct {
		rec  *benchRecord
		simd bool
		prec nomad.Precision
	}{
		{base, false, nomad.Float64},
		{after, true, nomad.Float64},
		{f32, true, nomad.Float32},
	}
	for _, s := range sides {
		s.rec.Hotpath = hotpathStats{Dataset: profile, Scale: scale, Workers: workers,
			Seed: seed, Reps: reps, SteadyEpochs: steadyE}
		s.rec.TokenBound = hotpathStats{Dataset: ltProfile, Scale: ltScale, Workers: workers,
			Seed: seed, Reps: reps, SteadyEpochs: steadyE}
	}
	ds, err := nomad.Synthesize(profile, scale, seed)
	if err != nil {
		return err
	}
	lt, err := nomad.Synthesize(ltProfile, ltScale, seed)
	if err != nil {
		return err
	}
	train := func(ds *nomad.Dataset, epochs int, prec nomad.Precision) (*nomad.Result, error) {
		// A fresh Session per rep: the pinned benchmark measures cold
		// runs, not resumed continuations.
		s, err := nomad.NewSession(ds,
			nomad.WithWorkers(workers),
			nomad.WithSeed(seed),
			nomad.WithPrecision(prec),
			nomad.WithStopConditions(nomad.MaxEpochs(epochs)))
		if err != nil {
			return nil, err
		}
		return s.Run(context.Background())
	}
	defer vecmath.SetSIMD(vecmath.SIMDAvailable())
	// Warm-up reps: first-run effects (page faults, scheduler ramp-up)
	// belong to no side of the A/B. Each rep measures, per side:
	// netflix single-epoch + steady, then longtail single-epoch + steady.
	if _, err := train(ds, 1, nomad.Float64); err != nil {
		return err
	}
	if _, err := train(lt, 1, nomad.Float64); err != nil {
		return err
	}
	steady := func(ds *nomad.Dataset, st *hotpathStats, prec nomad.Precision) error {
		sres, err := train(ds, steadyE, prec)
		if err != nil {
			return err
		}
		sups := float64(sres.Updates) / sres.Seconds
		st.SteadyMeanUPS += sups / reps
		if sups > st.SteadyBestUPS {
			st.SteadyBestUPS = sups
			st.SteadyUpdates = sres.Updates
			st.SteadyNsPerUpdate = 1e9 * sres.Seconds / float64(sres.Updates)
			st.FinalRMSE = sres.TestRMSE
		}
		return nil
	}
	for i := 0; i < reps; i++ {
		for _, side := range sides {
			side.rec.Kernels = kernelSide(side.simd)
			res, err := train(ds, 1, side.prec)
			if err != nil {
				return err
			}
			ups := float64(res.Updates) / res.Seconds
			side.rec.Hotpath.EpochMeanUPS += ups / reps
			if ups > side.rec.Hotpath.EpochBestUPS {
				side.rec.Hotpath.EpochBestUPS = ups
				side.rec.Hotpath.EpochUpdates = res.Updates
			}
			if err := steady(ds, &side.rec.Hotpath, side.prec); err != nil {
				return err
			}
			ltres, err := train(lt, 1, side.prec)
			if err != nil {
				return err
			}
			ltups := float64(ltres.Updates) / ltres.Seconds
			side.rec.TokenBound.EpochMeanUPS += ltups / reps
			if ltups > side.rec.TokenBound.EpochBestUPS {
				side.rec.TokenBound.EpochBestUPS = ltups
				side.rec.TokenBound.EpochUpdates = ltres.Updates
			}
			if err := steady(lt, &side.rec.TokenBound, side.prec); err != nil {
				return err
			}
		}
	}
	vecmath.SetSIMD(vecmath.SIMDAvailable())
	for _, rec := range []struct {
		name string
		r    *benchRecord
	}{{"baseline", base}, {"after", after}, {"after_float32", f32}} {
		fmt.Printf("   [json: hotpath %s (%s/%s): best %.2fM updates/s steady (%.1f ns/update), %.2fM single-epoch, final RMSE %.4f]\n",
			rec.name, rec.r.Kernels, rec.r.Precision,
			rec.r.Hotpath.SteadyBestUPS/1e6, rec.r.Hotpath.SteadyNsPerUpdate,
			rec.r.Hotpath.EpochBestUPS/1e6, rec.r.Hotpath.FinalRMSE)
		fmt.Printf("   [json: token-bound %s (%s): best %.2fM updates/s steady (%.1f ns/update), final RMSE %.4f]\n",
			rec.name, rec.r.TokenBound.Dataset, rec.r.TokenBound.SteadyBestUPS/1e6,
			rec.r.TokenBound.SteadyNsPerUpdate, rec.r.TokenBound.FinalRMSE)
	}
	return nil
}

// loadDoc reads the JSON object at path (empty if absent), so labels
// from other runs survive a re-measure.
func loadDoc(path string) (map[string]json.RawMessage, error) {
	doc := map[string]json.RawMessage{}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return doc, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("existing %s is not a JSON object: %w", path, err)
	}
	return doc, nil
}

// writeDoc stores the records under their labels and rewrites path,
// preserving any other labels in doc.
func writeDoc(path string, doc map[string]json.RawMessage, recs map[string]benchRecord) error {
	for label, rec := range recs {
		enc, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		doc[label] = enc
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

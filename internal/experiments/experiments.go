// Package experiments regenerates every table and figure of the
// paper's evaluation (§5 and Appendices A–F) on the synthetic datasets,
// at a configurable scale. Each experiment is a named Runner in the
// Registry; cmd/nomad-bench and the repository-root benchmarks drive
// them.
//
// Axes match the paper: convergence figures report test RMSE against
// wall-clock seconds, update counts, or seconds×workers; throughput
// figures report updates/worker/second. Absolute values differ from the
// paper (different hardware, simulated network, scaled data) — the
// reproduced object is the *shape*: who wins, roughly by how much, and
// where behaviour crosses over. EXPERIMENTS.md records paper-vs-measured
// for each id.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"nomad/internal/dataset"
	"nomad/internal/metrics"
	"nomad/internal/textplot"
	"nomad/internal/train"
)

// Options are the global knobs of an experiment run.
type Options struct {
	Scale    float64 // dataset scale factor (fraction of Table 2 sizes)
	Epochs   int     // training sweeps per run (NOMAD scaling figures)
	Seconds  float64 // wall-clock budget per run (solver-comparison figures)
	K        int     // latent dimension
	Workers  int     // threads per machine ("cores")
	Machines int     // machines for distributed experiments
	Seed     uint64
}

// WithDefaults fills unset fields with the standard small-scale values.
func (o Options) WithDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.002
	}
	if o.Epochs <= 0 {
		o.Epochs = 10
	}
	if o.Seconds <= 0 {
		o.Seconds = 1.5
	}
	if o.K <= 0 {
		o.K = 16
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Machines <= 0 {
		o.Machines = 4
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Series is one labeled convergence curve.
type Series struct {
	Label  string
	Points []metrics.Point
}

// Final returns the last RMSE of the series (NaN if empty).
func (s Series) Final() float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	return s.Points[len(s.Points)-1].RMSE
}

// Table is simple tabular output.
type Table struct {
	Headers []string
	Rows    [][]string
}

// Result is the output of one experiment.
type Result struct {
	ID     string
	Title  string
	XAxis  string // "seconds", "updates", "seconds×workers", or "" for tables
	Notes  []string
	Series []Series
	Table  *Table
}

// Runner regenerates one experiment.
type Runner func(Options) (*Result, error)

// Registry maps experiment ids (see DESIGN.md §3) to runners.
var Registry = map[string]Runner{}

// register is called from the per-figure files' init functions.
func register(id string, r Runner) {
	if _, dup := Registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	Registry[id] = r
}

// IDs returns all registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, o Options) (*Result, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r(o.WithDefaults())
}

// --- dataset cache -------------------------------------------------

var (
	cacheMu sync.Mutex
	cache   = map[string]*dataset.Dataset{}
)

// profileScale normalizes the three profiles to comparable total
// sizes at a given Options.Scale: Yahoo has 2.55× and Hugewiki 27.6×
// Netflix's rating count, which at full size is exactly the paper's
// point but at experiment scale would make run times incomparable.
// Each profile keeps its defining ratings-per-item ratio.
var profileScale = map[string]float64{
	"netflix":  1,
	"yahoo":    1 / 2.55,
	"hugewiki": 1 / 27.6,
}

// data returns the named profile generated at the options' scale,
// cached for the lifetime of the process so sweeps share one dataset.
func data(profile string, o Options) (*dataset.Dataset, error) {
	scale := o.Scale
	if f, ok := profileScale[profile]; ok {
		scale *= f
	}
	key := fmt.Sprintf("%s|%g|%d", profile, scale, o.Seed)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if ds, ok := cache[key]; ok {
		return ds, nil
	}
	spec, err := dataset.ByName(profile, scale)
	if err != nil {
		return nil, err
	}
	spec.Seed = o.Seed
	ds, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	cache[key] = ds
	return ds, nil
}

// baseConfig returns the synthetic-data hyper-parameters for a profile
// under the given options, with an epoch (update-count) budget.
func baseConfig(profile string, o Options) train.Config {
	cfg := train.SynthDefaults(profile + "-like")
	cfg.K = o.K
	cfg.Epochs = o.Epochs
	cfg.Seed = o.Seed
	cfg.EvalPoints = 12
	cfg.Workers = o.Workers
	cfg.Machines = 1
	return cfg
}

// timedConfig returns baseConfig with the stop condition switched to
// the wall-clock budget — the paper's solver comparisons give every
// algorithm equal time, not equal updates.
func timedConfig(profile string, o Options) train.Config {
	cfg := baseConfig(profile, o)
	cfg.Epochs = 0
	cfg.Deadline = time.Duration(o.Seconds * float64(time.Second))
	return cfg
}

// runSeries trains one algorithm and converts its trace to a Series
// with the requested x-axis.
func runSeries(label string, algo train.Algorithm, ds *dataset.Dataset, cfg train.Config, xAxis string, scaleX float64) (Series, *train.Result, error) {
	res, err := algo.Train(context.Background(), ds, cfg, nil)
	if err != nil {
		return Series{}, nil, fmt.Errorf("%s: %w", label, err)
	}
	s := Series{Label: label}
	for _, p := range res.Trace.Points {
		q := p
		if xAxis == "seconds×workers" {
			q.Seconds = p.Seconds * scaleX
		}
		s.Points = append(s.Points, q)
	}
	return s, res, nil
}

// --- rendering -----------------------------------------------------

// Render writes a Result as human-readable text: notes, table, an
// ASCII chart of the convergence curves (the regenerated figure), then
// the raw series data.
func Render(w io.Writer, r *Result) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	if r.Table != nil {
		renderTable(w, r.Table)
	}
	if len(r.Series) > 0 {
		if err := renderChart(w, r); err != nil {
			return err
		}
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "-- %s\n", s.Label)
		switch r.XAxis {
		case "updates":
			fmt.Fprintf(w, "   %-14s %s\n", "updates", "testRMSE")
			for _, p := range s.Points {
				fmt.Fprintf(w, "   %-14d %.6f\n", p.Updates, p.RMSE)
			}
		default:
			fmt.Fprintf(w, "   %-14s %s\n", r.XAxis, "testRMSE")
			for _, p := range s.Points {
				fmt.Fprintf(w, "   %-14.3f %.6f\n", p.Seconds, p.RMSE)
			}
		}
	}
	fmt.Fprintln(w)
	return nil
}

// renderChart draws the result's series as an ASCII figure. Charts cap
// at 8 series (the marker alphabet); larger sweeps plot the first 8
// and say so.
func renderChart(w io.Writer, r *Result) error {
	series := r.Series
	const maxSeries = 8
	if len(series) > maxSeries {
		fmt.Fprintf(w, "   (chart shows first %d of %d series)\n", maxSeries, len(series))
		series = series[:maxSeries]
	}
	ts := make([]textplot.Series, 0, len(series))
	for _, s := range series {
		p := textplot.Series{Label: s.Label}
		for _, pt := range s.Points {
			if r.XAxis == "updates" {
				p.X = append(p.X, float64(pt.Updates))
			} else {
				p.X = append(p.X, pt.Seconds)
			}
			p.Y = append(p.Y, pt.RMSE)
		}
		ts = append(ts, p)
	}
	return textplot.Render(w, ts, textplot.Options{Width: 64, Height: 14, XLabel: r.XAxis, YLabel: "testRMSE"})
}

func renderTable(w io.Writer, t *Table) {
	widths := make([]int, len(t.Headers))
	for c, h := range t.Headers {
		widths[c] = len(h)
	}
	for _, row := range t.Rows {
		for c, cell := range row {
			if c < len(widths) && len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for c, cell := range cells {
			parts[c] = fmt.Sprintf("%-*s", widths[c], cell)
		}
		fmt.Fprintf(w, "   %s\n", strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for c := range sep {
		sep[c] = strings.Repeat("-", widths[c])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// fmtF formats a float compactly for table cells.
func fmtF(v float64) string { return fmt.Sprintf("%.4f", v) }

// fmtI formats an int for table cells.
func fmtI(v int64) string { return fmt.Sprintf("%d", v) }

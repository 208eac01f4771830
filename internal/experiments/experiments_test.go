package experiments

import (
	"strings"
	"testing"
)

// tinyOpts keeps experiment smoke tests fast.
func tinyOpts() Options {
	return Options{Scale: 0.0003, Epochs: 3, Seconds: 0.3, K: 8, Workers: 2, Machines: 2, Seed: 5}
}

func TestRegistryComplete(t *testing.T) {
	// Every experiment promised in DESIGN.md's index must be registered.
	want := []string{
		"table1", "table2", "fig1", "fig4",
		"fig5", "fig6L", "fig6R", "fig7",
		"fig8", "fig9", "fig10L", "fig10R", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig20", "fig21", "fig22", "fig23",
		"abl-lb", "abl-part", "abl-batch", "abl-serial", "abl-circ",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d entries, DESIGN.md lists %d", len(Registry), len(want))
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("fig99", tinyOpts()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTables(t *testing.T) {
	for _, id := range []string{"table1", "table2", "fig1", "fig4"} {
		res, err := Run(id, tinyOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Table == nil || len(res.Table.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
}

func TestFig5SmokeAndShape(t *testing.T) {
	res, err := Run("fig5", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 9 { // 3 datasets × 3 algorithms
		t.Fatalf("fig5 has %d series, want 9", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) < 2 {
			t.Errorf("series %q too short", s.Label)
			continue
		}
		// Every solver must improve over the initial model at its best
		// point — except CCD++ on hugewiki-like data, which overfits
		// from the start at small λ (the deterioration the paper's own
		// Fig 5 shows).
		if strings.Contains(s.Label, "hugewiki ccd") {
			continue
		}
		first := s.Points[0].RMSE
		best := first
		for _, p := range s.Points[1:] {
			if p.RMSE < best {
				best = p.RMSE
			}
		}
		if best >= first {
			t.Errorf("series %q never improved from %.4f", s.Label, first)
		}
		if strings.Contains(s.Label, "nomad") && s.Final() >= first {
			t.Errorf("nomad series %q regressed: %.4f -> %.4f", s.Label, first, s.Final())
		}
	}
}

func TestFig6ThroughputTable(t *testing.T) {
	res, err := Run("fig6R", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != len(coreSweep) {
		t.Fatalf("fig6R rows = %d, want %d", len(res.Table.Rows), len(coreSweep))
	}
}

func TestAblationLoadBalance(t *testing.T) {
	res, err := Run("abl-lb", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("abl-lb rows = %d, want 2", len(res.Table.Rows))
	}
}

func TestRenderSeriesAndTable(t *testing.T) {
	res, err := Run("table1", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Render(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "table1") || !strings.Contains(out, "netflix-like") {
		t.Errorf("render output missing content:\n%s", out)
	}
}

func TestRenderChartsConvergenceFigures(t *testing.T) {
	res, err := Run("fig21", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Render(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The ASCII figure must be present: axis frame and legend markers.
	if !strings.Contains(out, "+----") {
		t.Errorf("chart frame missing:\n%s", out)
	}
	if !strings.Contains(out, "* netflix nomad") {
		t.Errorf("chart legend missing:\n%s", out)
	}
}

func TestDistributedComparisonSmoke(t *testing.T) {
	// fig8's four-way distributed comparison at tiny scale: all series
	// must exist and improve at their best point.
	res, err := Run("fig8", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 12 { // 3 profiles × 4 algorithms
		t.Fatalf("fig8 series = %d, want 12", len(res.Series))
	}
	for _, s := range res.Series {
		// CCD++ on hugewiki-like data overfits from the start at small
		// λ — the deterioration the paper itself shows in Figs 5 and 8
		// — so it is exempt from the improvement check.
		if strings.Contains(s.Label, "hugewiki ccd") {
			continue
		}
		first := s.Points[0].RMSE
		best := first
		for _, p := range s.Points[1:] {
			if p.RMSE < best {
				best = p.RMSE
			}
		}
		if best >= first {
			t.Errorf("series %q never improved from %.4f", s.Label, first)
		}
	}
}

func TestWeakScalingSmoke(t *testing.T) {
	res, err := Run("fig12", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 12 { // 3 machine counts × 4 algorithms
		t.Fatalf("fig12 series = %d, want 12", len(res.Series))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Scale <= 0 || o.Epochs <= 0 || o.K <= 0 || o.Workers <= 0 || o.Machines <= 0 || o.Seed == 0 {
		t.Fatalf("defaults incomplete: %+v", o)
	}
}

func TestDataCaching(t *testing.T) {
	o := tinyOpts()
	a, err := data("netflix", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := data("netflix", o)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset not cached")
	}
}

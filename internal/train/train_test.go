package train

import (
	"sync"
	"testing"
	"time"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/sparse"
)

func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	b := sparse.NewBuilder(8, 6, 0)
	for i := 0; i < 8; i++ {
		for j := 0; j < 6; j++ {
			if (i+2*j)%3 != 0 {
				b.Add(i, j, float64((i*j)%5)+1)
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := dataset.FromMatrix("tiny", m, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNormalizeDefaults(t *testing.T) {
	ds := tinyDataset(t)
	c, err := Config{}.Normalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	if c.K <= 0 || c.Alpha <= 0 || c.Machines != 1 || c.Workers != 1 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.MaxUpdates != int64(c.Epochs)*int64(ds.Train.NNZ()) {
		t.Fatalf("MaxUpdates = %d, want epochs×nnz", c.MaxUpdates)
	}
	if c.BatchSize != 100 {
		t.Fatalf("BatchSize default = %d, want 100 (§3.5)", c.BatchSize)
	}
	if c.Circulate != 1 {
		t.Fatalf("Circulate default = %d, want 1 (§3.4)", c.Circulate)
	}
}

func TestNormalizeRejectsBadConfigs(t *testing.T) {
	ds := tinyDataset(t)
	if _, err := (Config{Lambda: -1}).Normalize(ds); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := (Config{Beta: -1}).Normalize(ds); err == nil {
		t.Error("negative beta accepted")
	}
	if _, err := (Config{}).Normalize(nil); err == nil {
		t.Error("nil dataset accepted")
	}
}

func TestNormalizeKeepsExplicitValues(t *testing.T) {
	ds := tinyDataset(t)
	in := Config{K: 8, Lambda: 0.5, Alpha: 0.1, Beta: 0.2, Machines: 2, Workers: 3,
		BatchSize: 7, Epochs: 4, EvalPoints: 5, Seed: 99}
	c, err := in.Normalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 8 || c.Lambda != 0.5 || c.Machines != 2 || c.Workers != 3 ||
		c.BatchSize != 7 || c.EvalPoints != 5 || c.Seed != 99 {
		t.Fatalf("explicit values overwritten: %+v", c)
	}
	if c.TotalWorkers() != 6 {
		t.Fatalf("TotalWorkers = %d", c.TotalWorkers())
	}
}

func TestScheduleMatchesEq11(t *testing.T) {
	c := Config{Alpha: 0.012, Beta: 0.05}
	s := c.Schedule()
	if s.Step(0) != 0.012 {
		t.Fatalf("Step(0) = %v", s.Step(0))
	}
	if s.Step(10) >= s.Step(1) {
		t.Fatal("schedule not decreasing")
	}
}

func TestTable1(t *testing.T) {
	c, ok := Table1("netflix-like")
	if !ok || c.K != 100 || c.Lambda != 0.05 || c.Alpha != 0.012 || c.Beta != 0.05 {
		t.Fatalf("netflix Table1 = %+v ok=%v", c, ok)
	}
	c, ok = Table1("yahoo-like")
	if !ok || c.Lambda != 1.0 {
		t.Fatalf("yahoo Table1 = %+v ok=%v", c, ok)
	}
	c, ok = Table1("hugewiki-like")
	if !ok || c.Beta != 0 {
		t.Fatalf("hugewiki Table1 = %+v ok=%v", c, ok)
	}
	if _, ok := Table1("unknown"); ok {
		t.Fatal("unknown profile has Table1 entry")
	}
}

func TestSynthDefaultsDistinct(t *testing.T) {
	n := SynthDefaults("netflix-like")
	y := SynthDefaults("yahoo-like")
	if n.Lambda == y.Lambda {
		t.Fatal("profiles share lambda; expected paper's ordering λ_yahoo > λ_netflix")
	}
}

func TestCounterShards(t *testing.T) {
	c := NewCounter(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Add(w, 1)
			}
		}(w)
	}
	wg.Wait()
	if c.Total() != 40000 {
		t.Fatalf("Total = %d, want 40000", c.Total())
	}
}

func TestRecorderThresholds(t *testing.T) {
	md := factor.NewInit(4, 4, 2, 1)
	train, err := sparse.FromEntries(4, 4, []sparse.Entry{{Row: 0, Col: 1, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ds := &dataset.Dataset{Train: train, Test: []sparse.Entry{{Row: 0, Col: 0, Val: 1}}}
	r := NewRecorder(ds, 100, 4, nil) // thresholds at 25, 50, 75, 100
	if r.Due(10) {
		t.Fatal("Due too early")
	}
	if !r.Due(25) {
		t.Fatal("not due at threshold")
	}
	r.Sample(md, 25)
	if r.Due(30) {
		t.Fatal("due immediately after sampling")
	}
	if !r.Due(50) {
		t.Fatal("not due at second threshold")
	}
	r.Sample(md, 80) // skips past 50 and 75
	if r.Due(90) {
		t.Fatal("thresholds not advanced past sampled count")
	}
	tr := r.Trace()
	if len(tr.Points) != 2 {
		t.Fatalf("trace has %d points, want 2", len(tr.Points))
	}
	if tr.Points[0].Updates != 25 || tr.Points[1].Updates != 80 {
		t.Fatalf("trace updates: %+v", tr.Points)
	}
}

func TestRecorderElapsedMonotone(t *testing.T) {
	r := NewRecorder(nil, 10, 2, nil)
	a := r.Elapsed()
	time.Sleep(time.Millisecond)
	if b := r.Elapsed(); b <= a {
		t.Fatal("Elapsed not monotone")
	}
}

func TestResultThroughput(t *testing.T) {
	res := &Result{Updates: 1000, Elapsed: 2 * time.Second}
	cfg := Config{Machines: 2, Workers: 5}
	tp := res.Throughput(cfg)
	if tp.PerWorkerPerSec() != 50 {
		t.Fatalf("PerWorkerPerSec = %v, want 50", tp.PerWorkerPerSec())
	}
}

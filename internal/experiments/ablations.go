package experiments

import (
	"fmt"

	"nomad/internal/core"
	"nomad/internal/hogwild"
	"nomad/internal/netsim"
)

func init() {
	register("abl-lb", AblLoadBalance)
	register("abl-part", AblPartition)
	register("abl-batch", AblBatchSize)
	register("abl-serial", AblSerializability)
	register("abl-circ", AblCirculation)
}

// AblLoadBalance ablates §3.3 dynamic load balancing with worker 0
// artificially slowed 4×: with balancing on, tokens route away from
// the straggler, so the same wall-clock budget buys more updates.
func AblLoadBalance(o Options) (*Result, error) {
	ds, err := data("netflix", o)
	if err != nil {
		return nil, err
	}
	t := &Table{Headers: []string{"load balancing", "final RMSE", "updates"}}
	for _, lb := range []bool{false, true} {
		cfg := timedConfig("netflix", o) // equal wall-clock budget
		cfg.Straggle = 4
		cfg.LoadBalance = lb
		s, tr, err := runSeries("", core.New(), ds, cfg, "seconds", 1)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%v", lb), fmtF(s.Final()), fmtI(tr.Updates)})
	}
	return &Result{
		ID: "abl-lb", Title: "Ablation: §3.3 dynamic load balancing with a 4× straggler (equal time)",
		Table: t,
	}, nil
}

// AblPartition ablates the paper's footnote-1 user-partitioning
// alternative: equal user counts versus equal rating counts, on the
// degree-skewed netflix profile.
func AblPartition(o Options) (*Result, error) {
	ds, err := data("netflix", o)
	if err != nil {
		return nil, err
	}
	t := &Table{Headers: []string{"user partition", "final RMSE", "updates"}}
	for _, balanced := range []bool{false, true} {
		cfg := timedConfig("netflix", o)
		cfg.BalanceUsers = balanced
		label := "equal users"
		if balanced {
			label = "equal ratings (footnote 1)"
		}
		s, tr, err := runSeries("", core.New(), ds, cfg, "seconds", 1)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{label, fmtF(s.Final()), fmtI(tr.Updates)})
	}
	return &Result{
		ID: "abl-part", Title: "Ablation: user partitioning by count vs by rating volume (equal time)",
		Table: t,
	}, nil
}

// AblBatchSize ablates the §3.5 message-batching size on a commodity
// network: batches too small spend the run in per-message latency,
// batches too large delay fresh parameters.
func AblBatchSize(o Options) (*Result, error) {
	// Yahoo profile: the largest item count, so tokens actually queue
	// up and batching has something to batch.
	ds, err := data("yahoo", o)
	if err != nil {
		return nil, err
	}
	t := &Table{Headers: []string{"batch", "final RMSE", "updates", "messages", "bytes"}}
	for _, batch := range []int{1, 10, 100, 1000} {
		cfg := timedConfig("yahoo", o)
		cfg.Machines = o.Machines
		cfg.Profile = netsim.Commodity()
		cfg.BatchSize = batch
		s, tr, err := runSeries("", core.New(), ds, cfg, "seconds", 1)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmtI(int64(batch)), fmtF(s.Final()),
			fmtI(tr.Updates), fmtI(tr.MessagesSent), fmtI(tr.BytesSent)})
	}
	return &Result{
		ID: "abl-batch", Title: "Ablation: §3.5 message batch size (commodity network, equal time)",
		Notes: []string{"the paper batches ~100 pairs per message"},
		Table: t,
	}, nil
}

// AblSerializability compares NOMAD against Hogwild at an equal update
// budget: NOMAD's serializable (never-stale, never-raced) updates
// should buy a lower RMSE per update (§4.3).
func AblSerializability(o Options) (*Result, error) {
	ds, err := data("netflix", o)
	if err != nil {
		return nil, err
	}
	t := &Table{Headers: []string{"algorithm", "updates", "final RMSE"}}
	for _, algo := range []interface {
		Name() string
	}{core.New(), hogwild.New()} {
		cfg := baseConfig("netflix", o)
		cfg.Workers = o.Workers
		switch a := algo.(type) {
		case *core.NOMAD:
			s, tr, err := runSeries("", a, ds, cfg, "seconds", 1)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{"nomad (serializable)", fmtI(tr.Updates), fmtF(s.Final())})
		case *hogwild.Hogwild:
			s, tr, err := runSeries("", a, ds, cfg, "seconds", 1)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{"hogwild (non-serializable)", fmtI(tr.Updates), fmtF(s.Final())})
		}
	}
	return &Result{
		ID: "abl-serial", Title: "Ablation: serializable NOMAD vs non-serializable Hogwild",
		Notes: []string{"equal epoch budget; §4.3 predicts NOMAD converges at least as fast per update"},
		Table: t,
	}, nil
}

// AblCirculation ablates §3.4's intra-machine circulation count. The
// paper found visiting local workers more than once does not help.
func AblCirculation(o Options) (*Result, error) {
	ds, err := data("yahoo", o)
	if err != nil {
		return nil, err
	}
	t := &Table{Headers: []string{"circulations", "final RMSE", "messages", "bytes"}}
	for _, c := range []int{1, 2} {
		cfg := baseConfig("yahoo", o)
		cfg.Machines = o.Machines
		cfg.Profile = netsim.HPC()
		cfg.Circulate = c
		s, tr, err := runSeries("", core.New(), ds, cfg, "seconds", 1)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmtI(int64(c)), fmtF(s.Final()),
			fmtI(tr.MessagesSent), fmtI(tr.BytesSent)})
	}
	return &Result{
		ID: "abl-circ", Title: "Ablation: §3.4 intra-machine circulation count",
		Table: t,
	}, nil
}

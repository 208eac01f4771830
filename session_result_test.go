package nomad

import (
	"math"
	"net"
	"sync"
	"testing"
)

// TestResultRMSEIsTheFinalModels: Session.Run reports the RMSE of the
// runner's final trace sample instead of evaluating the model again, so
// for every solver and runner that value must be bit-equal to the
// returned model's RMSE on the test split — including both sides of a
// multi-process lockstep cluster, whose worker rank keeps no trace.
func TestResultRMSEIsTheFinalModels(t *testing.T) {
	d := synthSmall(t)
	check := func(t *testing.T, res *Result) {
		t.Helper()
		if want := d.RMSE(res.Model); math.Float64bits(res.TestRMSE) != math.Float64bits(want) {
			t.Fatalf("Result.TestRMSE %v, the model's test RMSE %v", res.TestRMSE, want)
		}
	}
	epochs := WithStopConditions(MaxEpochs(2))
	cases := map[string][]Option{
		"nomad":             nil,
		"dsgd":              {WithAlgorithm("dsgd")},
		"dsgdpp":            {WithAlgorithm("dsgdpp")},
		"fpsgd":             {WithAlgorithm("fpsgd")},
		"ccd":               {WithAlgorithm("ccd")},
		"als":               {WithAlgorithm("als")},
		"glals":             {WithAlgorithm("glals")},
		"biassgd":           {WithAlgorithm("biassgd")},
		"hogwild":           {WithAlgorithm("hogwild")},
		"nomad distributed": {WithCluster(2, "instant")},
		"nomad lockstep":    {WithCluster(2, "instant"), WithLockstep()},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			res, err := runSession(d, append(opts, WithWorkers(2), WithSeed(3), epochs)...)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res)
		})
	}

	t.Run("multi-process lockstep", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		ranks := [][]Option{
			{WithCluster(2, "tcp", addr)},
			{WithCluster(0, "tcp", "127.0.0.1:0", addr)},
		}
		results := make([]*Result, len(ranks))
		errs := make([]error, len(ranks))
		var wg sync.WaitGroup
		for r, opts := range ranks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[r], errs[r] = runSession(d, append(opts, WithWorkers(2), WithSeed(3), epochs)...)
			}()
		}
		wg.Wait()
		for r := range ranks {
			if errs[r] != nil {
				t.Fatalf("rank %d: %v", r, errs[r])
			}
			check(t, results[r])
		}
	})
}

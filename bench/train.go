package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"nomad"
)

const (
	// minSegments is the floor on timed segments per run; more are run
	// while the measuring time allows.
	minSegments = 5
	maxSegments = 15
	// warmEpochs is the untimed warm-up segment's budget: enough to page
	// the dataset in and grow the heap, not a full segment.
	warmEpochs = 8
)

// segment is one fresh Session trained for the workload's fixed epoch
// budget, timed by the benchmark's own clock around Run, so link boot
// and teardown are paid as a user pays them.
type segment struct {
	Wall    float64
	Updates int64
	Result  *nomad.Result
	Err     error
}

func (w workload) sessionOptions(seed uint64, epochs int) []nomad.Option {
	return append(w.Options(),
		nomad.WithSeed(seed),
		nomad.WithEvalPoints(w.EvalPoints),
		nomad.WithStopConditions(nomad.MaxEpochs(epochs)))
}

// runSegment trains one segment. subscribe, when non-nil, receives the
// session before Run so the traced pass can attach to its events.
func runSegment(ds *nomad.Dataset, opts []nomad.Option, subscribe func(*nomad.Session)) segment {
	s, err := nomad.NewSession(ds, opts...)
	if err != nil {
		return segment{Err: err}
	}
	if subscribe != nil {
		subscribe(s)
	}
	t0 := time.Now()
	res, err := s.Run(context.Background())
	seg := segment{Wall: time.Since(t0).Seconds(), Result: res, Err: err}
	if res != nil {
		seg.Updates = res.Updates
	}
	return seg
}

// check applies the training correctness rules to a segment: a Run
// error (token-conservation errors arrive this way), a non-finite RMSE
// or one above ceil is a failed operation.
func (seg segment) check(ceil float64) error {
	switch {
	case seg.Err != nil:
		return fmt.Errorf("run: %w", seg.Err)
	case seg.Result == nil || seg.Updates <= 0:
		return fmt.Errorf("run returned no updates")
	case math.IsNaN(seg.Result.TestRMSE) || math.IsInf(seg.Result.TestRMSE, 0):
		return fmt.Errorf("final rmse is %v", seg.Result.TestRMSE)
	case seg.Result.TestRMSE > ceil:
		return fmt.Errorf("final rmse %.4f above the ceiling %.2f", seg.Result.TestRMSE, ceil)
	}
	return nil
}

// ceiling is the final test RMSE above which a segment has failed. The
// ceilings were set on the full-scale shapes (a twentieth of the data
// reaches a different RMSE), so scaled-down runs check only that the
// RMSE is finite; the serving workloads' traced segment trains on the
// longtail shape and takes its ceiling.
func (w workload) ceiling(o options) float64 {
	switch {
	case o.scale != 1:
		return math.Inf(1)
	case w.Serve:
		return 1.20
	}
	return w.CeilRMSE
}

func (seg segment) trace() []tracePoint {
	pts := make([]tracePoint, len(seg.Result.Trace))
	for i, p := range seg.Result.Trace {
		pts[i] = tracePoint{p.Seconds, p.RMSE}
	}
	return pts
}

// trainSetup generates the dataset and builds the first Session, what
// a user waits for before training can start. A set-up shorter than
// longSetup is repeated (one after the other, keeping the last
// dataset) so that one host burst cannot set the metric; a long one
// averages over bursts by itself.
func trainSetup(w workload, o options) (*inputs, []float64, error) {
	const reps, longSetup = 3, 4.0
	in := newInputs(w, o, "")
	var setups []float64
	for i := 0; i < reps; i++ {
		in.ds = nil
		runtime.GC() // the previous repetition's dataset must not count toward the peak
		t0 := time.Now()
		if err := in.synth(); err != nil {
			return nil, nil, err
		}
		if _, err := nomad.NewSession(in.ds, w.sessionOptions(o.seed, w.Epochs)...); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if setups[i] > longSetup {
			break
		}
	}
	return in, setups, in.seal(false)
}

// runTrain is the end-to-end pass of a training workload.
func runTrain(w workload, o options) (*result, error) {
	r := newResult(w, o)
	r.CanaryBeforeNs = canary()

	in, setups, err := trainSetup(w, o)
	if err != nil {
		return nil, err
	}
	r.EndToEnd["setup_s"] = summarize(setups)
	in.checkDigest(r)
	if rss, err := peakRSSMB(os.Getpid()); err == nil {
		r.EndToEnd["setup_rss_mb"] = single(rss, 1)
	}
	resetPeakRSS()

	if seg := runSegment(in.ds, w.sessionOptions(o.seed, warmEpochs), nil); seg.Err != nil {
		return nil, fmt.Errorf("warm-up segment: %w", seg.Err)
	}

	var rate, wall, rmse, ttt []float64
	start := time.Now()
	last := 0.0 // wall of the previous segment: another is started only if it should fit
	for n := 0; n < maxSegments && (n < minSegments || time.Since(start).Seconds()+last <= o.seconds); n++ {
		seg := runSegment(in.ds, w.sessionOptions(o.seed, w.Epochs), nil)
		last = seg.Wall
		r.Attempted++
		if err := seg.check(w.ceiling(o)); err != nil {
			r.wrong("segment %d: %v", n, err)
			continue
		}
		if w.TargetRatio > 0 {
			target := w.TargetRatio * seg.Result.TestRMSE
			t, ok := timeToTarget(seg.trace(), target)
			if !ok {
				r.wrong("segment %d: the trace never reached %.4f though the run ended at %.4f", n, target, seg.Result.TestRMSE)
				continue
			}
			ttt = append(ttt, t)
		}
		rate = append(rate, float64(seg.Updates)/seg.Wall)
		wall = append(wall, seg.Wall)
		rmse = append(rmse, seg.Result.TestRMSE)
	}
	if len(rate) == 0 {
		return r, fmt.Errorf("no segment succeeded: %v", r.Notes)
	}
	r.EndToEnd["updates_per_s"] = summarize(rate)
	r.EndToEnd["segment_s"] = summarize(wall)
	q3 := percentile(wall, 75) * 1e3
	r.EndToEnd["segment_q3_ms"] = single(q3, len(wall))
	r.EndToEnd["final_rmse"] = summarize(rmse)
	if len(ttt) > 0 {
		r.EndToEnd["time_to_target_s"] = summarize(ttt)
	}
	ok := float64(r.Attempted-r.Failed) / float64(r.Attempted)
	r.EndToEnd["ok_share"] = single(ok, r.Attempted)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.EndToEnd["peak_rss_mb"] = single(rss, 1)
	r.canaryAfter()
	return r, nil
}

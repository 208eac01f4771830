package nomad

// Tests for the Session API: construction-time error paths, context
// cancellation mid-run on a synchronous and an asynchronous solver,
// the event stream, and checkpoint→resume bit-compatibility at fixed
// seed for deterministic (single-worker) configurations.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestNewSessionErrors(t *testing.T) {
	d := synthSmall(t)
	if _, err := NewSession(nil); err == nil {
		t.Error("nil dataset accepted")
	}
	empty, err := NewDataset(3, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(empty); err == nil {
		t.Error("empty dataset accepted")
	}
	cases := map[string]Option{
		"unknown algorithm": WithAlgorithm("quantum"),
		"unknown network":   WithCluster(2, "carrier-pigeon"),
		"unknown loss":      WithLoss("hinge"),
		"bad rank":          WithRank(0),
		"negative lambda":   WithLambda(-0.1),
		"bad alpha":         WithSchedule(0, 0.1),
		"bad workers":       WithWorkers(-1),
		"bad machines":      WithCluster(0, "hpc"),
		"bad batch":         WithBatchSize(0),
		"bad straggle":      WithStraggler(0.5),
		"empty stops":       WithStopConditions(),
	}
	for name, opt := range cases {
		if _, err := NewSession(d, opt); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLambdaZeroExpressible(t *testing.T) {
	d := synthSmall(t)
	s, err := NewSession(d, WithLambda(0), WithSeed(3), WithStopConditions(MaxEpochs(2)))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.base.Lambda; got != 0 {
		t.Fatalf("WithLambda(0) resolved to λ=%v", got)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// runCancelled starts a run with an effectively unbounded budget,
// cancels it shortly after, and asserts the solver stopped promptly
// with ctx.Err() and partial progress.
func runCancelled(t *testing.T, algo string) {
	t.Helper()
	d := synthSmall(t)
	s, err := NewSession(d,
		WithAlgorithm(algo),
		WithWorkers(2),
		WithSeed(5),
		WithStopConditions(MaxUpdates(1<<60)),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: Run returned %v, want context.Canceled", algo, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("%s: cancellation took %v, not prompt", algo, elapsed)
	}
	if res == nil {
		t.Fatalf("%s: no partial result after cancellation", algo)
	}
	if res.Updates == 0 {
		t.Errorf("%s: no work performed before cancellation", algo)
	}
}

func TestRunCancelAsynchronousNomad(t *testing.T) { runCancelled(t, "nomad") }
func TestRunCancelSynchronousDSGD(t *testing.T)   { runCancelled(t, "dsgd") }

func TestRunContextDeadline(t *testing.T) {
	d := synthSmall(t)
	s, err := NewSession(d, WithSeed(5), WithStopConditions(MaxUpdates(1<<60)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := s.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want context.DeadlineExceeded", err)
	}
}

// checkpointResume trains the same configuration two ways — straight
// through 6 epochs, versus 3 epochs, serialized checkpoint, restored
// session, 6-epoch total budget — and demands identical final models.
// Single-worker runs stop at deterministic update-count boundaries, so
// the resumed segment replays exactly the token/stratum sequence the
// uninterrupted run executed.
func checkpointResume(t *testing.T, algo string, extra ...Option) {
	t.Helper()
	d := synthSmall(t)
	opts := func(epochs int) []Option {
		return append([]Option{
			WithAlgorithm(algo),
			WithWorkers(1),
			WithSeed(11),
			WithEvalPoints(4),
			WithStopConditions(MaxEpochs(epochs)),
		}, extra...)
	}

	full, err := NewSession(d, opts(6)...)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	half, err := NewSession(d, opts(3)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := half.Checkpoint(new(bytes.Buffer)); !errors.Is(err, ErrNoState) {
		t.Fatalf("Checkpoint before Run = %v, want ErrNoState", err)
	}
	if _, err := half.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := half.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	resumed, err := NewSession(d, opts(6)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Resume(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	gotRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if gotRes.Updates != wantRes.Updates {
		t.Errorf("%s: resumed run did %d updates, uninterrupted did %d", algo, gotRes.Updates, wantRes.Updates)
	}
	if math.Abs(gotRes.TestRMSE-wantRes.TestRMSE) > 1e-12 {
		t.Errorf("%s: resumed final RMSE %.15f != uninterrupted %.15f", algo, gotRes.TestRMSE, wantRes.TestRMSE)
	}
	// The whole model must match, not just its aggregate score.
	for _, user := range []int{0, 1, 7} {
		for item := 0; item < gotRes.Model.Items(); item++ {
			g, w := gotRes.Model.Predict(user, item), wantRes.Model.Predict(user, item)
			if g != w {
				t.Fatalf("%s: prediction (%d,%d) diverged: %v vs %v", algo, user, item, g, w)
			}
		}
	}
}

func TestCheckpointResumeBitCompatibleNomad(t *testing.T) { checkpointResume(t, "nomad") }
func TestCheckpointResumeBitCompatibleDSGD(t *testing.T)  { checkpointResume(t, "dsgd") }

// The SPSC mesh reconstructs its logical token queue from the drained
// ownership map (front residual ∥ ring ∥ out-buffers). The default rank
// runs the popped block as two lanes; rank 8 has no two-list kernel,
// so this case resumes through the token-order block schedule.
func TestCheckpointResumeBitCompatibleNomadSPSC(t *testing.T) {
	checkpointResume(t, "nomad", WithRank(8))
}

func TestCheckpointRoundTripsEverySolver(t *testing.T) {
	if testing.Short() {
		t.Skip("all-solver checkpoint round trip")
	}
	d := synthSmall(t)
	for _, algo := range Algorithms() {
		s, err := NewSession(d, WithAlgorithm(algo), WithWorkers(2), WithSeed(3),
			WithStopConditions(MaxEpochs(2)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatalf("%s: checkpoint: %v", algo, err)
		}
		s2, err := NewSession(d, WithAlgorithm(algo), WithWorkers(2), WithSeed(3),
			WithStopConditions(MaxEpochs(4)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Resume(&buf); err != nil {
			t.Fatalf("%s: resume: %v", algo, err)
		}
		res, err := s2.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: resumed run: %v", algo, err)
		}
		if res.Updates <= 2*int64(d.TrainSize())-512 {
			t.Errorf("%s: resumed run total %d updates, want past the restored 2-epoch mark", algo, res.Updates)
		}
	}
}

// TestTinyUpdateBudgetWithEpochs pins a former divide-by-zero: an
// explicit MaxUpdates smaller than the epoch count leaves no whole
// updates per epoch, which the epoch-numbering path must tolerate.
func TestTinyUpdateBudgetWithEpochs(t *testing.T) {
	d := synthSmall(t)
	for _, algo := range []string{"dsgd", "dsgdpp", "nomad"} {
		s, err := NewSession(d, WithAlgorithm(algo), WithSeed(3),
			WithStopConditions(MaxEpochs(100), MaxUpdates(50)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
}

// TestResultModelIndependentOfLaterRuns: a Result handed out by Run
// must keep its scores while the session trains on — the serving path
// reads it concurrently with the next segment.
func TestResultModelIndependentOfLaterRuns(t *testing.T) {
	d := synthSmall(t)
	s, err := NewSession(d, WithSeed(3), WithStopConditions(MaxEpochs(2)))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := res1.Model.Predict(0, 0)
	// Continue the same session well past the first budget (raising it
	// in place: same-package shortcut for "reconfigured continuation").
	s.base.MaxUpdates = 0
	s.base.Epochs = 20
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := res1.Model.Predict(0, 0); got != before {
		t.Fatalf("first result's model mutated by a later Run: %v -> %v", before, got)
	}
}

func TestResumeRejectsWrongAlgorithm(t *testing.T) {
	d := synthSmall(t)
	s, err := NewSession(d, WithAlgorithm("als"), WithSeed(3), WithStopConditions(MaxEpochs(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := NewSession(d, WithAlgorithm("ccd"))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Resume(&buf); err == nil {
		t.Fatal("ccd session accepted an als checkpoint")
	}
}

func TestResumeRejectsGarbage(t *testing.T) {
	d := synthSmall(t)
	s, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

func TestSubscribeStreamsEvents(t *testing.T) {
	d := synthSmall(t)
	s, err := NewSession(d, WithWorkers(2), WithSeed(4), WithStopConditions(MaxEpochs(6)))
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := s.Subscribe(256)
	defer cancel()
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cancel()
	var traces, epochs int
	for e := range events {
		switch e.(type) {
		case TraceEvent:
			traces++
		case EpochEvent:
			epochs++
		}
	}
	if traces == 0 {
		t.Error("no TraceEvents streamed")
	}
	if epochs == 0 {
		t.Error("no EpochEvents streamed")
	}
	// The post-hoc trace and the stream must tell one story.
	if res := s.Result(); len(res.Trace) == 0 {
		t.Error("post-hoc trace empty")
	}
}

// TestRaceSessionEventFanout is the CI -race target: a synchronous
// solver (race-free by construction — sampling happens between epoch
// barriers) driven with concurrent subscribers, an unsubscribe while
// events flow, and a mid-run cancellation. The asynchronous solvers
// are excluded from -race on purpose: their monitor samples the model
// unlocked while workers write (documented in train.Recorder), and
// Hogwild races by definition.
func TestRaceSessionEventFanout(t *testing.T) {
	d := synthSmall(t)
	s, err := NewSession(d,
		WithAlgorithm("dsgd"),
		WithWorkers(2),
		WithSeed(9),
		WithStopConditions(MaxEpochs(8)),
	)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 2)
	for i := 0; i < 2; i++ {
		events, cancel := s.Subscribe(4) // tiny buffer: exercise drops
		go func(i int) {
			n := 0
			for range events {
				n++
				if i == 1 && n == 2 {
					cancel() // unsubscribe mid-stream, while emitting
				}
			}
			got <- n
		}(i)
		if i == 0 {
			defer cancel()
		}
	}
	ctx, cancelRun := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancelRun()
	}()
	res, err := s.Run(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no result")
	}
	// Continue the cancelled run in-memory to completion.
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	for _, ch := range s.subs {
		close(ch)
	}
	s.subs = map[int]chan Event{}
	s.mu.Unlock()
	<-got
	<-got
}

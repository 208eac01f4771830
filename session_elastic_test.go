package nomad

// Public-API coverage of elastic membership: WithElastic validation,
// the Resize handle's live join/drain triggers, and the ResizeEvent
// stream — the session-level face of the core elasticity matrix.

import (
	"context"
	"testing"
	"time"
)

func TestWithElasticValidation(t *testing.T) {
	d := synthSmall(t)
	bad := map[string][]Option{
		"negative spares":     {WithElastic(-1)},
		"elastic coordinator": {WithElastic(1), WithCluster(3, "tcp", ":7070")},
		"elastic baseline":    {WithAlgorithm("dsgd"), WithElastic(1)},
		"elastic worker":      {WithElastic(1), WithCluster(0, "tcp", ":0", "host:7070")},
	}
	for name, opts := range bad {
		if _, err := NewSession(d, opts...); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := NewSession(d, WithElastic(1), WithCluster(3, "instant")); err != nil {
		t.Errorf("elastic sim cluster rejected: %v", err)
	}

	// Outside a live elastic run the handle fails typed, never blocks.
	s, err := NewSession(d, WithElastic(1), WithCluster(3, "instant"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Resize().Join(-1); err == nil {
		t.Error("Join before Run returned nil")
	}
	if err := s.Resize().Drain(-1); err == nil {
		t.Error("Drain before Run returned nil")
	}
}

// TestSessionElasticResize grows and then shrinks a live run through
// the public Resize handle and observes both committed changes on the
// event stream.
func TestSessionElasticResize(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second elastic run")
	}
	d := synthSmall(t)
	s, err := NewSession(d,
		WithElastic(1),
		WithCluster(3, "instant"),
		WithWorkers(2),
		WithSeed(5),
		// A budget far beyond what the test needs: the run must still be
		// live when the triggers fire even on a heavily loaded box, and
		// the cancel below ends it right after the drain commits.
		WithStopConditions(MaxEpochs(5000)),
	)
	if err != nil {
		t.Fatal(err)
	}
	events, cancelSub := s.Subscribe(256)
	defer cancelSub()

	resizes := make(chan ResizeEvent, 4)
	started := make(chan struct{})
	go func() {
		var once bool
		for e := range events {
			switch ev := e.(type) {
			case TraceEvent:
				if !once {
					once = true
					close(started)
				}
			case ResizeEvent:
				resizes <- ev
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx)
		done <- err
	}()

	await := func(what string, ch <-chan ResizeEvent) ResizeEvent {
		t.Helper()
		select {
		case ev := <-ch:
			return ev
		case <-time.After(time.Minute):
			t.Fatalf("no %s ResizeEvent within a minute", what)
		}
		return ResizeEvent{}
	}

	// The run's first TraceEvent (the recorder's sample at zero updates)
	// is published only after the runner binds the membership controls,
	// so the handle is live from then on.
	<-started
	if err := s.Resize().Join(-1); err != nil {
		t.Fatalf("live Join: %v", err)
	}
	j := await("join", resizes)
	if j.Kind != "join" || j.Rank != 3 || j.Machines != 4 {
		t.Fatalf("join event %+v, want rank 3 → 4 machines", j)
	}
	if err := s.Resize().Drain(-1); err != nil {
		t.Fatalf("live Drain: %v", err)
	}
	dr := await("drain", resizes)
	if dr.Kind != "drain" || dr.Machines != 3 {
		t.Fatalf("drain event %+v, want 3 machines after", dr)
	}

	cancel() // the membership changes are observed; no need to finish the budget
	if err := <-done; err != nil && err != context.Canceled {
		t.Fatalf("elastic run failed: %v", err)
	}
}

package nomad

// Session-level coverage of the real-network cluster surface: option
// validation for the tcp backend and address lists, loopback runs
// through the public API, the replay check of a multi-process run, and
// the typed peer-failure error.

import (
	"context"
	"errors"
	"net"
	"testing"

	"nomad/internal/cluster"
)

func TestWithClusterAddressValidation(t *testing.T) {
	d := synthSmall(t)
	bad := map[string]Option{
		"addrs on sim network":   WithCluster(2, "hpc", ":7070"),
		"three addresses":        WithCluster(2, "tcp", ":1", ":2", ":3"),
		"coordinator 1 machine":  WithCluster(1, "tcp", ":7070"),
		"negative machines":      WithCluster(-1, "tcp", ":0", "host:7070"),
		"loopback zero machines": WithCluster(0, "tcp"),
	}
	for name, opt := range bad {
		if _, err := NewSession(d, opt); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	good := map[string]Option{
		"loopback":    WithCluster(3, "tcp"),
		"coordinator": WithCluster(4, "tcp", ":7070"),
		"worker":      WithCluster(0, "tcp", ":0", "host:7070"),
	}
	for name, opt := range good {
		if _, err := NewSession(d, opt); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
	// Only the nomad solver implements the real-socket backend and the
	// replay check — accepting them for a baseline would silently train
	// independent local runs instead of a cluster, or skip the check.
	for name, opts := range map[string][]Option{
		"dsgd over tcp":       {WithAlgorithm("dsgd"), WithCluster(3, "tcp")},
		"dsgd as coordinator": {WithAlgorithm("dsgd"), WithCluster(4, "tcp", ":7070")},
		"hogwild replay":      {WithAlgorithm("hogwild"), WithReplayCheck()},
	} {
		if _, err := NewSession(d, opts...); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestSessionTCPLoopbackRun trains over the real-socket backend inside
// one process, through the public facade.
func TestSessionTCPLoopbackRun(t *testing.T) {
	d := synthSmall(t)
	s, err := NewSession(d,
		WithCluster(3, "tcp"),
		WithWorkers(2),
		WithSeed(5),
		WithStopConditions(MaxEpochs(3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesSent == 0 || res.MessagesSent == 0 {
		t.Fatalf("no wire traffic accounted: %+v", res)
	}
	if res.TestRMSE <= 0 || res.TestRMSE > 2 {
		t.Fatalf("implausible RMSE %v", res.TestRMSE)
	}
}

// TestSessionReplayAcrossProcesses is the public-API face of the
// serializability witness: a coordinator and a worker session, each
// one machine of the asynchronous algorithm over its own share of the
// model, both with WithReplayCheck; the coordinator replays the merged
// visit logs bit for bit and reports it as a ReplayEvent, and its trace
// is the run's start and final points. CI runs it under -race.
func TestSessionReplayAcrossProcesses(t *testing.T) {
	d := synthSmall(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	common := []Option{WithWorkers(2), WithSeed(5), WithReplayCheck(), WithStopConditions(MaxEpochs(2))}
	coord, err := NewSession(d, append(common, WithCluster(2, "tcp", addr))...)
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := coord.Subscribe(64)
	var workerErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, workerErr = runSession(d, append(common, WithCluster(0, "tcp", "127.0.0.1:0", addr))...)
	}()
	res, err := coord.Run(context.Background())
	<-done
	cancel()
	if err != nil || workerErr != nil {
		t.Fatalf("coordinator: %v; worker: %v", err, workerErr)
	}
	var visits int64
	for e := range events {
		if r, ok := e.(ReplayEvent); ok {
			visits = r.Visits
		}
	}
	if visits == 0 {
		t.Fatal("no ReplayEvent from the coordinator")
	}
	if len(res.Trace) != 2 {
		t.Errorf("multi-process trace has %d points, want start and final", len(res.Trace))
	}
}

func TestPeerErrorWrapsTransportFailure(t *testing.T) {
	cause := errors.New("connection reset")
	err := publicError(&cluster.PeerDownError{Rank: 2, Cause: cause})
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("publicError = %T, want *PeerError", err)
	}
	if pe.Rank != 2 || !errors.Is(pe, cause) {
		t.Fatalf("PeerError = %+v", pe)
	}
	if publicError(nil) != nil {
		t.Fatal("publicError(nil) != nil")
	}
	plain := errors.New("something else")
	if publicError(plain) != plain {
		t.Fatal("unrelated errors must pass through")
	}
}

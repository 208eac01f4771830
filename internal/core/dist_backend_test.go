package core

// The (sim | tcp) backend matrix over the asynchronous distributed
// runner, the multi-process runner with its gather and its replay, and
// the failure semantics of the real-network backend.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/metrics"
	"nomad/internal/netlink"
	"nomad/internal/train"
)

// TestDistributedBackendMatrix runs the async distributed runner over
// both backends: the netlink wire protocol over paced in-memory
// connections and over a real TCP loopback mesh.
func TestDistributedBackendMatrix(t *testing.T) {
	ds := testData(t)
	for _, backend := range []string{"sim", "tcp"} {
		// The subtest suffix names the token transport, the SPSC mesh.
		t.Run(backend+"_spsc", func(t *testing.T) {
			cfg := baseConfig()
			cfg.Machines, cfg.Workers = 3, 2
			cfg.Backend = backend
			res := runNomad(t, ds, cfg)
			requireConverged(t, res)
			if res.MessagesSent == 0 || res.BytesSent == 0 {
				t.Fatalf("no network accounting: %d msgs, %d bytes", res.MessagesSent, res.BytesSent)
			}
		})
	}
}

// TestSingleMachineRejectsDistModes: the tcp backend with one machine
// must error, not silently fall back to the shared-memory path.
func TestSingleMachineRejectsDistModes(t *testing.T) {
	ds := testData(t)
	tc := baseConfig()
	tc.Backend = "tcp"
	if _, err := New().Train(context.Background(), ds, tc, nil); err == nil {
		t.Error("tcp backend with 1 machine accepted")
	}
}

// TestGatherRejectsOutOfRangeItem: a peer's fold frame naming an item
// past the dataset fails the gather with an error naming the peer,
// and folds nothing — not the good row ahead of the bad one either.
func TestGatherRejectsOutOfRangeItem(t *testing.T) {
	const n, k = 10, 2
	g := &gather{md: factor.New(1, n, k)}
	fold := appendRows(nil, []int32{4, n}, k, func(_ int, row []float64) { row[0], row[1] = 1, 2 })
	err := g.add(cluster.Ctl{From: 1, Kind: ctlFold, Payload: fold})
	if err == nil || !strings.Contains(err.Error(), "machine 1") || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("gather = %v, want the out-of-range item from machine 1 rejected", err)
	}
	if len(g.items) != 0 || g.md.ItemRow(4)[0] != 0 {
		t.Fatal("the rejected frame's first token was folded")
	}
}

// freePort reserves an ephemeral port for a coordinator listen
// address. (The tiny close-then-reuse window is fine in tests.)
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// clusterConfig is the multi-process tests' shape: 3 machines of 2
// workers, K = 16 so the workers run their two-list lanes.
func clusterConfig() train.Config {
	cfg := baseConfig()
	cfg.K, cfg.Machines, cfg.Workers, cfg.Epochs = 16, 3, 2, 4
	return cfg
}

// runCluster drives the real multi-process entry points (Role,
// rendezvous and all) as goroutine ranks over loopback TCP, each rank
// with a private model, and returns every rank's result. With replay
// set every rank keeps its visit log and rank 0 replays the merged
// logs; the returned count is what it replayed.
func runCluster(t *testing.T, ds *dataset.Dataset, cfg train.Config, replay bool) ([]*train.Result, int64) {
	t.Helper()
	addr := freePort(t)
	M := cfg.Machines
	results, errs := make([]*train.Result, M), make([]error, M)
	var visits int64
	var wg sync.WaitGroup
	for r := 0; r < M; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := cfg
			var hooks *train.Hooks
			if replay {
				hooks = replayHooks(&visits)
			}
			if r == 0 {
				c.Role, c.Listen = "coordinator", addr
			} else {
				c.Role, c.Listen, c.Join, c.Machines, c.Resume = "worker", "127.0.0.1:0", addr, 0, nil
			}
			results[r], errs[r] = New().Train(context.Background(), ds, c, hooks)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results, visits
}

// TestMultiProcessConverges: with no visit log — the path a production
// cluster runs — a 1 + 3 cluster of goroutine ranks trains to a
// converged model on rank 0 within its update budget, its trace start
// and final, and every token folded back: the coordinator's gathered
// model scores the same RMSE its trace reports.
func TestMultiProcessConverges(t *testing.T) {
	ds := testData(t)
	cfg := clusterConfig()
	cfg.Machines, cfg.Epochs = 4, 6
	results, visits := runCluster(t, ds, cfg, false)
	res := results[0]
	requireConverged(t, res)
	if visits != 0 {
		t.Errorf("replayed %d visits with the check off", visits)
	}
	if n := len(res.Trace.Points); n != 2 {
		t.Errorf("multi-process trace has %d points, want start and final", n)
	}
	if budget := int64(cfg.Epochs * ds.Train.NNZ()); res.Updates < budget || res.Final.Updates != res.Updates {
		t.Errorf("%d updates (state %d) for a budget of %d", res.Updates, res.Final.Updates, budget)
	}
	if got, want := metrics.RMSE(res.Model, ds.TestByUser()), res.Trace.Final().RMSE; got != want {
		t.Errorf("the gathered model scores %.6f, the trace's final point %.6f", got, want)
	}
}

// TestMultiProcessReplay: a 1 + 2 cluster of goroutine ranks runs the
// asynchronous machine with a private model per rank, in both
// precisions; it converges, its trace is start and final, rank 0's
// serial replay of the merged visit logs is bit-equal, and workers
// return no resumable state. CI runs it under -race.
func TestMultiProcessReplay(t *testing.T) {
	ds := testData(t)
	for _, prec := range []factor.Precision{factor.Float64, factor.Float32} {
		t.Run(prec.String(), func(t *testing.T) {
			cfg := clusterConfig()
			cfg.Precision = prec
			results, visits := runCluster(t, ds, cfg, true)
			requireConverged(t, results[0])
			if n := len(results[0].Trace.Points); n != 2 {
				t.Errorf("multi-process trace has %d points, want start and final", n)
			}
			if visits == 0 || results[0].Final == nil {
				t.Fatalf("rank 0 replayed %d visits, final state %v", visits, results[0].Final)
			}
			if results[0].Updates < int64(cfg.Epochs*ds.Train.NNZ()) {
				t.Errorf("%d updates, budget %d", results[0].Updates, cfg.Epochs*ds.Train.NNZ())
			}
			for r := 1; r < cfg.Machines; r++ {
				if results[r].Final != nil {
					t.Fatalf("worker %d returned resumable state", r)
				}
			}
		})
	}
}

// TestMultiProcessResume: a multi-process checkpoint, serialized as a
// file would carry it, continues in a second 1 + 2 cluster — the
// coordinator ships it at the rendezvous — whose update totals span
// both segments and whose replay, from the resumed state, is bit-equal.
func TestMultiProcessResume(t *testing.T) {
	ds := testData(t)
	first := clusterConfig()
	first.Epochs, first.MaxUpdates = 0, int64(ds.Train.NNZ())
	head, _ := runCluster(t, ds, first, false)
	if head[0].Final == nil {
		t.Fatal("coordinator produced no resumable state")
	}
	var buf bytes.Buffer
	if err := head[0].Final.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := train.ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cont := clusterConfig()
	cont.Epochs, cont.MaxUpdates, cont.Resume = 0, 3*int64(ds.Train.NNZ()), st
	res, visits := runCluster(t, ds, cont, true)
	if visits == 0 {
		t.Fatal("the resumed segment was not replayed")
	}
	if first := res[0].Trace.Points[0].Updates; first != head[0].Updates {
		t.Errorf("the resumed trace starts at %d updates, the checkpoint holds %d", first, head[0].Updates)
	}
	if res[0].Updates < cont.MaxUpdates || res[0].Final.Updates != res[0].Updates {
		t.Errorf("%d updates (state %d) for a cumulative budget of %d", res[0].Updates, res[0].Final.Updates, cont.MaxUpdates)
	}
}

// TestMultiProcessRejectsPrecisionMismatch: precision is part of the
// config digest, so a float32 worker cannot join a float64
// coordinator — the handshake refuses it before any training.
func TestMultiProcessRejectsPrecisionMismatch(t *testing.T) {
	ds := testData(t)
	addr := freePort(t)
	cfg := clusterConfig()
	cfg.Machines = 2
	var coordErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := cfg
		c.Role, c.Listen = "coordinator", addr
		_, coordErr = New().Train(context.Background(), ds, c, nil)
	}()
	w := cfg
	w.Role, w.Listen, w.Join, w.Precision = "worker", "127.0.0.1:0", addr, factor.Float32
	_, workerErr := New().Train(context.Background(), ds, w, nil)
	<-done
	var rej *netlink.RejectedError
	if !errors.As(workerErr, &rej) {
		t.Errorf("float32 worker: err = %v, want a handshake rejection", workerErr)
	}
	if !errors.Is(coordErr, netlink.ErrConfigMismatch) {
		t.Errorf("coordinator: err = %v, want ErrConfigMismatch", coordErr)
	}
}

// TestMultiProcessWorkerKillAborts kills one cluster member mid-epoch
// — abrupt connection loss, no orderly EOF, exactly what a crashed
// process looks like — and requires the surviving coordinator to (a)
// emit the typed peer-failure event and (b) return a typed error from
// Train.
func TestMultiProcessWorkerKillAborts(t *testing.T) {
	ds := testData(t)
	addr := freePort(t)
	const M = 3 // coordinator + 1 honest worker + 1 saboteur

	mkCfg := func(role string) train.Config {
		cfg := clusterConfig()
		cfg.Epochs = 100000 // the saboteur absorbs tokens: the budget is never reached
		if role == "coordinator" {
			cfg.Role, cfg.Listen = "coordinator", addr
		} else {
			cfg.Role, cfg.Listen, cfg.Join = "worker", "127.0.0.1:0", addr
		}
		return cfg
	}

	peerEvents := make(chan train.PeerDownEvent, 8)
	hooks := &train.Hooks{Sink: func(e train.Event) {
		if e, ok := e.(train.PeerDownEvent); ok {
			select {
			case peerEvents <- e:
			default:
			}
		}
	}}

	var wg sync.WaitGroup
	var coordErr, workerErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, coordErr = New().Train(context.Background(), ds, mkCfg("coordinator"), hooks)
	}()
	go func() {
		defer wg.Done()
		_, workerErr = New().Train(context.Background(), ds, mkCfg("worker"), nil)
	}()

	// The saboteur joins like a real worker (same digest), takes in
	// tokens until one arrives — the run is mid-circulation — then dies
	// without a goodbye.
	wcfg, err := mkCfg("worker").Normalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	link, _, err := netlink.Join(context.Background(), addr, "127.0.0.1:0", configDigest(ds, wcfg, false), netlink.Options{K: wcfg.K})
	if err != nil {
		t.Fatalf("saboteur join: %v", err)
	}
	arrived := make(chan struct{})
	go func() {
		var once sync.Once
		for inb := range link.Recv() {
			inb.Batch.Release()
			once.Do(func() { close(arrived) })
		}
	}()
	go func() {
		for range link.Ctl() {
		}
	}()
	select {
	case <-arrived:
	case <-time.After(60 * time.Second):
		t.Fatal("no token ever reached the saboteur")
	}
	link.Abort()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster did not abort after the kill")
	}

	var pd *cluster.PeerDownError
	if !errors.As(coordErr, &pd) {
		t.Fatalf("coordinator err = %v, want *cluster.PeerDownError", coordErr)
	}
	if workerErr == nil {
		t.Fatal("honest worker did not observe the failure")
	}
	select {
	case e := <-peerEvents:
		if e.Rank == 0 {
			t.Fatalf("peer event blames the coordinator: %+v", e)
		}
	default:
		t.Fatal("no PeerDownEvent emitted")
	}
}

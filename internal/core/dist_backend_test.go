package core

// The (sim | tcp) backend matrix over the asynchronous distributed
// runner, the bitwise parity guarantees of the lockstep runner, and
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
	"nomad/internal/factor"
	"nomad/internal/netlink"
	"nomad/internal/netsim"
	"nomad/internal/train"
)

// TestDistributedBackendMatrix runs the async distributed runner over
// both link backends: the simulated network and a real TCP loopback
// mesh speaking the netlink wire protocol.
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

// modelsEqual compares two models bitwise.
func modelsEqual(t *testing.T, a, b *train.Result) {
	t.Helper()
	if a.Model.M != b.Model.M || a.Model.N != b.Model.N || a.Model.K != b.Model.K {
		t.Fatalf("shape mismatch: %d×%d×%d vs %d×%d×%d",
			a.Model.M, a.Model.N, a.Model.K, b.Model.M, b.Model.N, b.Model.K)
	}
	aw, bw := a.Model.WData(), b.Model.WData()
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatalf("W diverges at %d: %v vs %v", i, aw[i], bw[i])
		}
	}
	ah, bh := a.Model.HData(), b.Model.HData()
	for i := range ah {
		if ah[i] != bh[i] {
			t.Fatalf("H diverges at %d: %v vs %v", i, ah[i], bh[i])
		}
	}
}

func lockstepConfig() train.Config {
	cfg := baseConfig()
	cfg.Machines, cfg.Workers = 3, 2
	cfg.Lockstep = true
	cfg.Epochs = 4
	return cfg
}

// TestSingleMachineRejectsDistModes: explicitly requested lockstep or
// tcp with one machine must error, not silently fall back to the
// nondeterministic shared-memory path.
func TestSingleMachineRejectsDistModes(t *testing.T) {
	ds := testData(t)
	lk := baseConfig()
	lk.Lockstep = true
	if _, err := New().Train(context.Background(), ds, lk, nil); err == nil {
		t.Error("lockstep with 1 machine accepted")
	}
	tc := baseConfig()
	tc.Backend = "tcp"
	if _, err := New().Train(context.Background(), ds, tc, nil); err == nil {
		t.Error("tcp backend with 1 machine accepted")
	}
}

func TestLockstepConverges(t *testing.T) {
	ds := testData(t)
	res := runNomad(t, ds, lockstepConfig())
	requireConverged(t, res)
	if res.Updates < res.Trace.Points[0].Updates {
		t.Fatalf("updates went backwards")
	}
}

// TestLockstepDeterministicRerun: the whole point of the mode — two
// runs of the same configuration produce bitwise-identical models.
func TestLockstepDeterministicRerun(t *testing.T) {
	ds := testData(t)
	a := runNomad(t, ds, lockstepConfig())
	b := runNomad(t, ds, lockstepConfig())
	modelsEqual(t, a, b)
	if a.Updates != b.Updates {
		t.Fatalf("updates differ: %d vs %d", a.Updates, b.Updates)
	}
}

// TestLockstepBackendParity: the simulated network and a real TCP
// loopback mesh produce bitwise-identical models — the single-process
// side of the cross-backend guarantee the CI distributed job asserts
// against real processes.
func TestLockstepBackendParity(t *testing.T) {
	ds := testData(t)
	sim := lockstepConfig()
	sim.Backend = "sim"
	tcp := lockstepConfig()
	tcp.Backend = "tcp"
	a := runNomad(t, ds, sim)
	b := runNomad(t, ds, tcp)
	modelsEqual(t, a, b)
	if a.Updates != b.Updates {
		t.Fatalf("updates differ: %d vs %d", a.Updates, b.Updates)
	}
	if a.Trace.Final().RMSE != b.Trace.Final().RMSE {
		t.Fatalf("final RMSE differs: %v vs %v", a.Trace.Final().RMSE, b.Trace.Final().RMSE)
	}
}

// TestLockstepResumeBackendParity: a checkpoint taken from a sim
// lockstep run continues identically over sim and over TCP — the
// "checkpoint/resume across process boundaries" guarantee, in its
// single-process form.
func TestLockstepResumeBackendParity(t *testing.T) {
	ds := testData(t)
	first := lockstepConfig()
	first.Epochs = 0
	first.MaxUpdates = int64(ds.Train.NNZ()) // ~1 epoch, stops at a round boundary
	head := runNomad(t, ds, first)
	if head.Final == nil {
		t.Fatal("lockstep coordinator produced no resumable state")
	}
	// Serialize/deserialize so the continuation uses exactly what a
	// checkpoint file would carry.
	var buf bytes.Buffer
	if err := head.Final.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	restore := func() *train.State {
		st, err := train.ReadState(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cont := lockstepConfig()
	cont.Epochs = 0
	cont.MaxUpdates = 3 * int64(ds.Train.NNZ())
	simCfg := cont
	simCfg.Backend = "sim"
	simCfg.Resume = restore()
	tcpCfg := cont
	tcpCfg.Backend = "tcp"
	tcpCfg.Resume = restore()
	a := runNomad(t, ds, simCfg)
	b := runNomad(t, ds, tcpCfg)
	modelsEqual(t, a, b)
	if a.Updates != b.Updates {
		t.Fatalf("updates differ: %d vs %d", a.Updates, b.Updates)
	}
	if a.Updates <= head.Updates {
		t.Fatalf("continuation did not progress: %d after %d", a.Updates, head.Updates)
	}
}

// TestLockstepRejectsOutOfRangeItem: a peer's round batch naming an
// item past the dataset fails the round with an error naming the peer,
// instead of binning a token that would later index a model row.
func TestLockstepRejectsOutOfRangeItem(t *testing.T) {
	const n = 10
	links := cluster.NewSimCluster(2, netsim.Instant(), 2).Links()
	coll := newLockCollector(links[0], factor.New(1, n, 2))
	bad := cluster.TokenBatch{Tokens: []cluster.Token{{Item: 4, Vec: []float64{1, 2}}, {Item: n, Vec: []float64{3, 4}}}}
	if err := links[1].Send(0, bad); err != nil {
		t.Fatal(err)
	}
	if err := links[1].SendCtl(0, ctlRoundEnd, make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := coll.collectRound(0); err == nil || !strings.Contains(err.Error(), "machine 1 sent item token 10") {
		t.Fatalf("collectRound = %v, want the out-of-range item from machine 1 rejected", err)
	}
	for _, l := range links {
		l.Close() //nolint:errcheck
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

// TestMultiProcessLockstepParity drives the real multi-process entry
// points (Role = coordinator/worker, rendezvous and all) in-process
// and requires bitwise parity with the single-process runner.
func TestMultiProcessLockstepParity(t *testing.T) {
	ds := testData(t)
	single := runNomad(t, ds, lockstepConfig())

	addr := freePort(t)
	const M = 3
	results := make([]*train.Result, M)
	errs := make([]error, M)
	var wg sync.WaitGroup
	for r := 0; r < M; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := lockstepConfig()
			if r == 0 {
				cfg.Role, cfg.Listen = "coordinator", addr
			} else {
				cfg.Role, cfg.Listen, cfg.Join = "worker", "127.0.0.1:0", addr
			}
			results[r], errs[r] = New().Train(context.Background(), ds, cfg, nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	modelsEqual(t, single, results[0])
	if single.Updates != results[0].Updates {
		t.Fatalf("updates differ: %d vs %d", single.Updates, results[0].Updates)
	}
	// Workers return their partial model and no resumable state.
	for r := 1; r < M; r++ {
		if results[r].Final != nil {
			t.Fatalf("worker %d returned resumable state", r)
		}
		if results[r].Updates != results[0].Updates {
			t.Fatalf("worker %d sees %d global updates, coordinator %d", r, results[r].Updates, results[0].Updates)
		}
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
		cfg := lockstepConfig()
		cfg.Epochs = 50 // long enough that the kill lands mid-run
		if role == "coordinator" {
			cfg.Role, cfg.Listen = "coordinator", addr
		} else {
			cfg.Role, cfg.Listen, cfg.Join = "worker", "127.0.0.1:0", addr
		}
		return cfg
	}

	peerEvents := make(chan train.PeerEvent, 8)
	hooks := &train.Hooks{Peer: func(e train.PeerEvent) {
		select {
		case peerEvents <- e:
		default:
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

	// The saboteur joins like a real worker (same digest), plays two
	// rounds by the book, then dies without a goodbye.
	wcfg, err := mkCfg("worker").Normalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	digest := configDigest(ds, wcfg)
	link, _, err := netlink.Join(context.Background(), addr, "127.0.0.1:0", digest, netlink.Options{K: wcfg.K})
	if err != nil {
		t.Fatalf("saboteur join: %v", err)
	}
	coll := newLockCollector(link, factor.New(ds.Rows(), ds.Cols(), wcfg.K))
	for round := uint32(0); round < 2; round++ {
		end := make([]byte, 12)
		end[0] = byte(round)
		if err := link.SendCtl(-1, ctlRoundEnd, end); err != nil {
			t.Fatalf("saboteur round end: %v", err)
		}
		if _, _, err := coll.collectRound(round); err != nil {
			t.Fatalf("saboteur collect: %v", err)
		}
		if _, err := coll.awaitDirective(round); err != nil {
			t.Fatalf("saboteur directive: %v", err)
		}
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
		t.Fatal("no PeerEvent emitted")
	}
}

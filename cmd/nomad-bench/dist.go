package main

// The -dist mode emits BENCH_dist.json: the machine-to-machine data
// plane's performance record. It drives whole netlink.Loopback
// clusters — real TCP sockets, rendezvous, heartbeats — inside one
// process, training NOMAD end-to-end at several machine counts over
// the pooled arena-backed wire, and pairs that with codec
// microbenchmarks measuring the frame encode/decode paths in isolation
// (tokens/s, ns/token and allocations per op).
//
//	go run ./cmd/nomad-bench -dist BENCH_dist.json
//	go run ./cmd/nomad-bench -dist out.json -distmachines 2,4 -distreps 5
//
// Like -sweep, the machine list and rep count are adjustable so CI can
// smoke a tiny configuration; the datasets, seed, rank and epoch
// budget are pinned.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	nomad "nomad"
	"nomad/internal/benchenv"
	"nomad/internal/cluster"
	"nomad/internal/netlink"
)

// distDoc is the BENCH_dist.json shape.
type distDoc struct {
	Env      benchenv.Env `json:"env"`
	Protocol distProtocol `json:"protocol"`
	EndToEnd []distPoint  `json:"end_to_end"`
	Codec    []codecPoint `json:"codec_microbench"`
}

type distProtocol struct {
	// Datasets maps profile name to scale: netflix (≈2.8K ratings per
	// item token — arithmetic-bound) and longtail (≈4.5 —
	// communication-bound), so the record shows the wire path in both
	// regimes.
	Datasets map[string]float64 `json:"datasets"`
	K        int                `json:"k"`
	Seed     uint64             `json:"seed"`
	Epochs   int                `json:"epochs"`
	Reps     int                `json:"reps"`
	Workers  int                `json:"workers_per_machine"`
	Machines []int              `json:"machines"`
	Backend  string             `json:"backend"`
	// Chaos is the fault-injection spec the runs were subjected to
	// (empty for undisturbed measurements). Chaos runs enable failover.
	Chaos string `json:"chaos,omitempty"`
}

// distPoint is one (dataset, machines) end-to-end training
// measurement over the TCP loopback backend.
type distPoint struct {
	Dataset      string  `json:"dataset"`
	Machines     int     `json:"machines"`
	BestUPS      float64 `json:"best_updates_per_sec"`
	MeanUPS      float64 `json:"mean_updates_per_sec"`
	TokensPerSec float64 `json:"approx_wire_tokens_per_sec"`
	BytesSent    int64   `json:"bytes_sent"`
	MessagesSent int64   `json:"messages_sent"`
	FinalRMSE    float64 `json:"final_rmse"`
	Updates      int64   `json:"updates"`
	// RecoveryMs is the median failover detection→resume latency
	// across the measured reps (accumulated in a benchenv.Histogram,
	// the same latency machinery nomad-loadgen reports with), present
	// only on -chaos runs that killed a machine.
	RecoveryMs float64 `json:"recovery_ms,omitempty"`
	// ResizeJoinMs / ResizeDrainMs are the median request→resume
	// latencies of elastic membership changes, present only on -chaos
	// runs whose schedule joins or drains a machine.
	ResizeJoinMs  float64 `json:"resize_join_ms,omitempty"`
	ResizeDrainMs float64 `json:"resize_drain_ms,omitempty"`
}

// codecPoint is one isolated codec measurement: a §3.5-sized token
// batch moving through the frame encoder or decoder with no sockets
// and no SGD.
type codecPoint struct {
	Op           string  `json:"op"` // "encode" or "decode"
	K            int     `json:"k"`
	BatchTokens  int     `json:"batch_tokens"`
	TokensPerSec float64 `json:"tokens_per_sec"`
	NsPerToken   float64 `json:"ns_per_token"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
}

// runDist measures the distributed data plane and writes the record.
// A non-empty chaos spec subjects every end-to-end run to that fault
// (with failover enabled) and records the recovery latency.
func runDist(path string, machineList []int, reps int, chaos string) error {
	const (
		seed   = 7
		epochs = 2
		k      = 16
	)
	profiles := []struct {
		name  string
		scale float64
	}{{"netflix", 0.0005}, {"longtail", 0.05}}
	doc := distDoc{
		Env: benchenv.Capture(),
		Protocol: distProtocol{Datasets: map[string]float64{}, K: k, Seed: seed,
			Epochs: epochs, Reps: reps, Workers: 1, Machines: machineList,
			Backend: "tcp-loopback", Chaos: chaos},
	}
	for _, prof := range profiles {
		doc.Protocol.Datasets[prof.name] = prof.scale
		ds, err := nomad.Synthesize(prof.name, prof.scale, seed)
		if err != nil {
			return err
		}
		for _, machines := range machineList {
			pt := distPoint{Dataset: prof.name, Machines: machines}
			var recovery, resizeJoin, resizeDrain benchenv.Histogram
			// Warm-up rep (rep 0) plus reps measured.
			for rep := 0; rep < reps+1; rep++ {
				res, recoveryMs, resizeMs, err := runDistTraining(ds, machines, seed, epochs, chaos)
				if err != nil {
					return fmt.Errorf("%s p=%d: %w", prof.name, machines, err)
				}
				if rep == 0 {
					continue // warm-up (page faults, listener ramp-up)
				}
				ups := float64(res.Updates) / res.Seconds
				pt.MeanUPS += ups / float64(reps)
				if recoveryMs > 0 {
					recovery.Record(time.Duration(recoveryMs * float64(time.Millisecond)))
				}
				for _, ms := range resizeMs["join"] {
					resizeJoin.Record(time.Duration(ms * float64(time.Millisecond)))
				}
				for _, ms := range resizeMs["drain"] {
					resizeDrain.Record(time.Duration(ms * float64(time.Millisecond)))
				}
				if ups > pt.BestUPS {
					pt.BestUPS = ups
					pt.FinalRMSE = res.TestRMSE
					pt.Updates = res.Updates
					pt.BytesSent = res.BytesSent
					pt.MessagesSent = res.MessagesSent
					pt.TokensPerSec = approxWireTokens(res.BytesSent, res.MessagesSent, k) / res.Seconds
				}
			}
			if recovery.Count() > 0 {
				pt.RecoveryMs = float64(recovery.Quantile(0.5).Nanoseconds()) / 1e6
			}
			if resizeJoin.Count() > 0 {
				pt.ResizeJoinMs = float64(resizeJoin.Quantile(0.5).Nanoseconds()) / 1e6
			}
			if resizeDrain.Count() > 0 {
				pt.ResizeDrainMs = float64(resizeDrain.Quantile(0.5).Nanoseconds()) / 1e6
			}
			doc.EndToEnd = append(doc.EndToEnd, pt)
			fmt.Printf("   [dist: %s p=%d: best %.2fM updates/s, ≈%.2fM wire tokens/s, rmse %.4f]\n",
				prof.name, machines, pt.BestUPS/1e6, pt.TokensPerSec/1e6, pt.FinalRMSE)
		}
	}
	enc, dec := codecBench(k, 100)
	doc.Codec = append(doc.Codec, enc, dec)
	fmt.Printf("   [dist: codec: encode %.1fM tokens/s (%.1f allocs/op), decode %.1fM tokens/s (%.1f allocs/op)]\n",
		enc.TokensPerSec/1e6, enc.AllocsPerOp, dec.TokensPerSec/1e6, dec.AllocsPerOp)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// runDistTraining is one end-to-end NOMAD run over a TCP loopback
// cluster: real sockets, one worker per machine, the async runner.
// With a chaos spec, failover is enabled and the recovery latency (ms,
// 0 when no failover happened) plus the per-kind elastic resize
// latencies (ms) are returned alongside the result.
func runDistTraining(ds *nomad.Dataset, machines int, seed uint64, epochs int, chaos string) (*nomad.Result, float64, map[string][]float64, error) {
	opts := []nomad.Option{
		nomad.WithWorkers(1),
		nomad.WithSeed(seed),
		nomad.WithCluster(machines, "tcp"),
		nomad.WithStopConditions(nomad.MaxEpochs(epochs)),
	}
	if chaos != "" {
		opts = append(opts, nomad.WithFailover(), nomad.WithChaos(chaos))
	}
	s, err := nomad.NewSession(ds, opts...)
	if err != nil {
		return nil, 0, nil, err
	}
	recoveryMs := 0.0
	resizeMs := map[string][]float64{}
	done := make(chan struct{})
	cancelSub := func() {}
	if chaos != "" {
		var events <-chan nomad.Event
		events, cancelSub = s.Subscribe(64)
		go func() {
			defer close(done)
			for e := range events {
				switch ev := e.(type) {
				case nomad.PeerRecoveredEvent:
					recoveryMs = ev.RecoverySeconds * 1e3
				case nomad.ResizeEvent:
					resizeMs[ev.Kind] = append(resizeMs[ev.Kind], ev.Seconds*1e3)
				}
			}
		}()
	} else {
		close(done)
	}
	res, err := s.Run(context.Background())
	cancelSub()
	<-done
	return res, recoveryMs, resizeMs, err
}

// approxWireTokens estimates how many tokens crossed the wire from
// the link's byte/message accounting: subtracting the 20-byte frame
// header and 12-byte batch header per message leaves token data at
// 4+8k bytes each. Heartbeats and control frames make this a slight
// under-count, hence "approx" in the record.
func approxWireTokens(bytesSent, msgs int64, k int) float64 {
	data := bytesSent - msgs*32
	if data < 0 {
		return 0
	}
	return float64(data) / float64(4+8*k)
}

// codecBench measures the frame encode and decode in isolation: a
// batchTokens-token rank-k batch per op through the reusable-buffer
// single-copy paths the TCP link runs in steady state, reporting
// tokens/s, ns/token and allocations per op.
func codecBench(k, batchTokens int) (enc, dec codecPoint) {
	const iters = 20000
	batch := buildCodecBatch(batchTokens, k)

	var wbuf []byte
	encode := func() {
		var err error
		wbuf, err = netlink.AppendTokenFrame(wbuf[:0], 1, batch, k)
		if err != nil {
			panic(err)
		}
	}
	encode() // warm
	encAllocs := testing.AllocsPerRun(100, encode)
	start := time.Now()
	for i := 0; i < iters; i++ {
		encode()
	}
	encSecs := time.Since(start).Seconds()

	frame := append([]byte(nil), wbuf...)
	rd := bytes.NewReader(frame)
	var rbuf []byte
	arena := cluster.NewBatchBuf()
	decode := func() {
		rd.Reset(frame)
		var f netlink.Frame
		var err error
		f, rbuf, err = netlink.ReadFrameReuse(rd, rbuf)
		if err != nil {
			panic(err)
		}
		if _, err := netlink.DecodeTokenBatchInto(f.Payload, k, arena); err != nil {
			panic(err)
		}
	}
	decode() // warm
	decAllocs := testing.AllocsPerRun(100, decode)
	start = time.Now()
	for i := 0; i < iters; i++ {
		decode()
	}
	decSecs := time.Since(start).Seconds()

	tok := float64(iters * batchTokens)
	enc = codecPoint{Op: "encode", K: k, BatchTokens: batchTokens,
		TokensPerSec: tok / encSecs, NsPerToken: encSecs * 1e9 / tok, AllocsPerOp: encAllocs}
	dec = codecPoint{Op: "decode", K: k, BatchTokens: batchTokens,
		TokensPerSec: tok / decSecs, NsPerToken: decSecs * 1e9 / tok, AllocsPerOp: decAllocs}
	return enc, dec
}

// buildCodecBatch materializes a batch from an arena the way a Sender
// flush does.
func buildCodecBatch(tokens, k int) cluster.TokenBatch {
	buf := cluster.NewBatchBuf()
	vec := make([]float64, k)
	for i := 0; i < tokens; i++ {
		for c := range vec {
			vec[c] = float64(i*k+c) * 0.25
		}
		buf.Add(int32(i), vec)
	}
	return buf.Batch(tokens)
}

package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"nomad/internal/factor"
	"nomad/internal/train"
)

// replayHooks turns the replay check on and records what it replayed.
func replayHooks(visits *int64) *train.Hooks {
	return &train.Hooks{Replay: true, Sink: func(e train.Event) {
		if e, ok := e.(train.ReplayEvent); ok {
			*visits = e.Visits
		}
	}}
}

// TestReplayBitEqual: the asynchronous runners' visit logs, replayed
// serially through the worker's hot path, reproduce the run's factors,
// step counts and update total bit for bit — shared memory at p = 2
// with the lanes on (K = 16), in both precisions, and the in-process
// distributed runner at M = 4, W = 2 over in-memory connections and
// over TCP, with the lanes on and, at K = 8, which has no two-list
// kernel, off. A difference fails Train itself.
func TestReplayBitEqual(t *testing.T) {
	ds := testData(t)
	cases := map[string]func(*train.Config){
		"shm_p2_float64": func(c *train.Config) { c.Workers = 2 },
		"shm_p2_float32": func(c *train.Config) { c.Workers, c.Precision = 2, factor.Float32 },
		"async_sim_m4w2": func(c *train.Config) { c.Machines, c.Workers, c.Backend = 4, 2, "sim" },
		"async_tcp_m4w2": func(c *train.Config) { c.Machines, c.Workers, c.Backend = 4, 2, "tcp" },
		"async_sim_f32":  func(c *train.Config) { c.Machines, c.Workers, c.Precision = 4, 2, factor.Float32 },
		"async_sim_k8":   func(c *train.Config) { c.Machines, c.Workers, c.Backend, c.K = 4, 2, "sim", 8 },
		"async_tcp_k8":   func(c *train.Config) { c.Machines, c.Workers, c.Backend, c.K = 4, 2, "tcp", 8 },
	}
	for name, set := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.K, cfg.Epochs = 16, 6
			set(&cfg)
			var visits int64
			res, err := New().Train(context.Background(), ds, cfg, replayHooks(&visits))
			if err != nil {
				t.Fatal(err)
			}
			requireConverged(t, res)
			if visits < int64(cfg.Epochs*ds.Cols()) {
				t.Fatalf("replayed %d visits of %d tokens over %d epochs", visits, ds.Cols(), cfg.Epochs)
			}
		})
	}
}

// TestReplayBackendParity: one configuration over in-memory connections
// and over TCP — each run replayed bit for bit — lands at the same
// final RMSE within 0.04. Over 16 seeded runs of each on this dataset
// the two backends differed by at most 0.012; the asynchronous
// interleaving, not the backend, makes the difference.
func TestReplayBackendParity(t *testing.T) {
	ds := testData(t)
	rmse := map[string]float64{}
	for _, backend := range []string{"sim", "tcp"} {
		cfg := baseConfig()
		cfg.K, cfg.Machines, cfg.Workers, cfg.Backend, cfg.Epochs = 16, 4, 2, backend, 6
		var visits int64
		res, err := New().Train(context.Background(), ds, cfg, replayHooks(&visits))
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		requireConverged(t, res)
		if visits == 0 {
			t.Fatalf("%s: nothing replayed", backend)
		}
		rmse[backend] = res.Trace.Final().RMSE
	}
	if d := math.Abs(rmse["sim"] - rmse["tcp"]); d > 0.04 {
		t.Errorf("final RMSE %.4f over sim, %.4f over tcp: apart by %.4f, want ≤ 0.04", rmse["sim"], rmse["tcp"], d)
	}
}

// TestReplayOrderIndependent: the witness does not rest on the order
// serialOrder happens to pick. The same logged visits of an in-process
// M = 2, W = 2 run, replayed in another order that keeps every worker's
// log order and every item's chain — the workers scanned last to first
// — reproduce the run's factors and step counts bit for bit too.
func TestReplayOrderIndependent(t *testing.T) {
	ds := testData(t)
	cfg := baseConfig()
	cfg.K, cfg.Machines, cfg.Workers, cfg.Backend, cfg.Epochs = 16, 2, 2, "sim", 4
	cfg, err := cfg.Normalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	vl := &visitLog{}
	res, err := trainDistributed(context.Background(), ds, cfg, nil, vl)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	n := ds.Cols()
	var order []hop // peer: the global worker
	if err := serialOrder(vl.machines, n, func(w int, j int32) { order = append(order, hop{int32(w), j, 0}) }); err != nil {
		t.Fatal(err)
	}
	queues, chain := make([][]int32, p), make([][]int32, n)
	for _, v := range order {
		queues[v.peer] = append(queues[v.peer], v.item)
		chain[v.item] = append(chain[v.item], v.peer)
	}
	var alt []hop
	cur, pos := make([]int, p), make([]int, n)
	for progress := true; progress; {
		progress = false
		for w := p - 1; w >= 0; w-- {
			for ; cur[w] < len(queues[w]); cur[w]++ {
				j := queues[w][cur[w]]
				if chain[j][pos[j]] != int32(w) {
					break
				}
				alt, pos[j], progress = append(alt, hop{int32(w), j, 0}), pos[j]+1, true
			}
		}
	}
	if len(alt) != len(order) {
		t.Fatalf("the reverse scan ran %d of %d visits", len(alt), len(order))
	}
	if slices.Equal(alt, order) {
		t.Fatal("the reverse scan picked serialOrder's order: nothing tested")
	}

	md := factor.NewInitP(ds.Rows(), n, cfg.K, cfg.Seed, cfg.Precision)
	users := partitionUsers(ds, cfg, p)
	local := buildShards(ds.Train, users, 0, p, nil)
	trainItem := itemTrainer(md, cfg)
	for _, v := range alt {
		usersJ, vals, counts := local[v.peer].itemRatings(int(v.item))
		trainItem(int(v.item), usersJ, vals, counts)
	}
	if !sameBits(md, res.Model) {
		t.Error("the reordered replay's factors differ from the run's")
	}
	if !slices.Equal(exportCounts(ds.Train, users, local, 0), res.Final.Counts) {
		t.Error("the reordered replay's step counts differ from the run's")
	}
}

// TestReplayResumed: the replay of a resumed run starts from the
// checkpoint's model and step counts, not the seeded init — which the
// run itself trains on in place.
func TestReplayResumed(t *testing.T) {
	ds := testData(t)
	cfg := baseConfig()
	cfg.K, cfg.Workers, cfg.Epochs = 16, 2, 2
	head := runNomad(t, ds, cfg)
	cfg.Epochs, cfg.Resume = 4, head.Final
	var visits int64
	if _, err := New().Train(context.Background(), ds, cfg, replayHooks(&visits)); err != nil {
		t.Fatal(err)
	}
	if visits == 0 {
		t.Fatal("nothing replayed")
	}
}

// cloneLogs deep-copies a run's logs for mutation.
func cloneLogs(logs []*machineLog) []*machineLog {
	out := make([]*machineLog, len(logs))
	for x, lg := range logs {
		out[x] = &machineLog{}
		for _, hs := range lg.hops {
			out[x].hops = append(out[x].hops, slices.Clone(hs))
		}
	}
	return out
}

// TestReplayMutationDiffers gives the check teeth: on a recorded
// shared-memory p = 2 log, exchanging the order in which one item
// visits the two workers — both of which hold ratings of it — still
// describes a serial order, but its replay differs from the run; and
// dropping one visit leaves a log that describes none.
func TestReplayMutationDiffers(t *testing.T) {
	ds := testData(t)
	cfg := baseConfig()
	cfg.K, cfg.Workers, cfg.Epochs = 16, 2, 3
	cfg, err := cfg.Normalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	vl := &visitLog{}
	res, err := trainShared(context.Background(), ds, cfg, nil, vl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vl.replay(ds, cfg, res); err != nil {
		t.Fatalf("the unmutated log: %v", err)
	}
	local := buildShards(ds.Train, partitionUsers(ds, cfg, 2), 0, 2, nil)
	rated := func(w int, j int32) bool { u, _, _ := local[w].itemRatings(int(j)); return len(u) > 0 }

	// Swap: worker 0's visit of j with seq s and worker 1's with s+1
	// exchange seqs, so j meets worker 1 first. Try candidates until
	// the exchange still leaves an acyclic order.
	at := map[hop]int{} // worker 1's visits by (item, seq)
	for i, v := range vl.machines[0].hops[1] {
		at[v] = i
	}
	swapped := false
	for i, v := range vl.machines[0].hops[0] {
		k, ok := at[hop{0, v.item, v.seq + 1}]
		if !ok || !rated(0, v.item) || !rated(1, v.item) {
			continue
		}
		logs := cloneLogs(vl.machines)
		logs[0].hops[0][i].seq, logs[0].hops[1][k].seq = v.seq+1, v.seq
		if serialOrder(logs, ds.Cols(), func(int, int32) {}) != nil {
			continue
		}
		_, err := (&visitLog{machines: logs}).replay(ds, cfg, res)
		if err == nil || !strings.Contains(err.Error(), "differs") {
			t.Fatalf("replay of item %d's swapped visits %d/%d: %v, want a difference", v.item, v.seq, v.seq+1, err)
		}
		swapped = true
		break
	}
	if !swapped {
		t.Fatal("no swappable pair of visits in the log")
	}

	// Drop: a worker's last rated visit disappears.
	logs := cloneLogs(vl.machines)
	vs := logs[0].hops[1]
	i := len(vs) - 1
	for !rated(1, vs[i].item) {
		i--
	}
	logs[0].hops[1] = slices.Delete(vs, i, i+1)
	if _, err := (&visitLog{machines: logs}).replay(ds, cfg, res); err == nil {
		t.Fatal("replay of a log missing a visit matched the run")
	}
}

// FuzzDecodeLogChunk feeds the peer-facing visit-log decoder arbitrary
// bytes for a small cluster. It must never panic; an error must append
// nothing; a success must append exactly the declared entries to one
// stream, which must re-encode to the payload byte for byte.
func FuzzDecodeLogChunk(f *testing.F) {
	lg := &machineLog{hops: [][]hop{{{0, 3, 0}, {0, 1, 0}}, {{0, 3, 1}}, {{-1, 3, 0}, {2, 1, 0}}, {{1, 3, 2}}}}
	for tag, hs := range lg.hops {
		c := appendLogChunk(nil, uint32(tag), hs)
		f.Add(c, uint8(2), uint8(5), uint8(3))
		f.Add(c[:len(c)-1], uint8(2), uint8(5), uint8(3))
	}
	f.Add([]byte{}, uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, p []byte, w8, n8, m8 uint8) {
		W, n, M := int(w8%4)+1, int(n8%32)+1, int(m8%5)+1
		got := newMachineLog(n, W)
		err := decodeLogChunk(p, got, n, M)
		entries := 0
		for _, hs := range got.hops {
			entries += len(hs)
		}
		if err != nil {
			if entries != 0 {
				t.Fatalf("error %v after appending %d entries", err, entries)
			}
			return
		}
		tag := binary.LittleEndian.Uint32(p)
		if len(got.hops[tag]) != entries {
			t.Fatal("entries appended to more than one stream")
		}
		if re := appendLogChunk(nil, tag, got.hops[tag]); !bytes.Equal(re, p) {
			t.Fatalf("entries re-encode to %x, payload is %x", re, p)
		}
	})
}

// FuzzDecodeTotal feeds the progress and stop frames' shared decoder
// arbitrary bytes: it must never panic, never accept a negative total,
// and an accepted total must re-encode to the payload.
func FuzzDecodeTotal(f *testing.F) {
	f.Add(appendTotal(nil, 0))
	f.Add(appendTotal(nil, 1<<40))
	f.Add(appendTotal(nil, -1))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		v, err := decodeTotal(p)
		if err != nil {
			return
		}
		if v < 0 || !bytes.Equal(appendTotal(nil, v), p) {
			t.Fatalf("accepted total %d from %x", v, p)
		}
	})
}

package core

// The serializability witness (paper §3.1–3.2; DESIGN.md §7). A visit
// — worker w training token j — reads w's user rows, which only w's
// earlier visits wrote, and hⱼ, which only j's previous visit wrote, so
// replaying the visits on one thread in any order that keeps each
// worker's log order and each item's chain must reproduce the run bit
// for bit. Each machine logs (peer, item, seq) streams, each written by
// one thread: its workers' finished tokens, its arrivals (the initial
// placement first, from peer -1) and its departures; seq counts the
// item's visits on the machine, in a slab only the token's holder
// writes. The k-th departure of j from X to Y is the k-th arrival of j
// at Y from X — a token cannot overtake itself — so the streams link
// up with no change to the wire. Failover and elasticity move tokens
// outside these streams; the check does not cover them.

import (
	"bytes"
	"fmt"
	"slices"

	"nomad/internal/dataset"
	"nomad/internal/factor"
	"nomad/internal/train"
)

type hop struct{ peer, item, seq int32 }

// machineLog is one machine's share of a visit log: hops[q] is worker
// q's visits in finish order (peer unused), then come the arrivals in
// receiver order and the departures in sender order.
type machineLog struct {
	seq  []int32 // per item: its visits on this machine so far
	hops [][]hop
}

func newMachineLog(n, workers int) *machineLog {
	return &machineLog{seq: make([]int32, n), hops: make([][]hop, workers+2)}
}

func (l *machineLog) workers() int { return len(l.hops) - 2 }

// visited logs worker q's finished visit of item j; j's holder calls it.
func (l *machineLog) visited(q int, j int32) {
	l.hops[q] = append(l.hops[q], hop{0, j, l.seq[j]})
	l.seq[j]++
}

func (l *machineLog) arrived(src int, j int32) {
	l.hops[len(l.hops)-2] = append(l.hops[len(l.hops)-2], hop{int32(src), j, l.seq[j]})
}

func (l *machineLog) departed(dst int, j int32) {
	l.hops[len(l.hops)-1] = append(l.hops[len(l.hops)-1], hop{int32(dst), j, l.seq[j]})
}

// visitLog is a run's log, one machineLog per machine (one for shared
// memory), and the model the run started from unless that is the
// seeded init.
type visitLog struct {
	start    *factor.Model
	machines []*machineLog
}

// replay runs the log serially through one hot path, from the run's
// starting point with all of its shards, and returns how many visits it
// replayed, or an error naming how its W and H, step counts or update
// total differ from the run's result.
func (vl *visitLog) replay(ds *dataset.Dataset, cfg train.Config, res *train.Result) (int64, error) {
	p, n := len(vl.machines)*vl.machines[0].workers(), ds.Cols()
	md := vl.start
	if md == nil {
		md = factor.NewInitP(ds.Rows(), n, cfg.K, cfg.Seed, cfg.Precision)
	}
	users := partitionUsers(ds, cfg, p)
	local := buildShards(ds.Train, users, 0, p, resumeCounts(cfg.Resume, ds))
	trainItem := itemTrainer(md, cfg)
	var visits, updates int64
	err := serialOrder(vl.machines, n, func(w int, j int32) {
		usersJ, vals, counts := local[w].itemRatings(int(j))
		trainItem(int(j), usersJ, vals, counts)
		visits, updates = visits+1, updates+int64(len(usersJ))
	})
	if err != nil {
		return 0, fmt.Errorf("core: replay: the visit log is no serial order: %w", err)
	}
	diff := ""
	if !sameBits(md, res.Model) {
		diff = "factors"
	}
	if !slices.Equal(exportCounts(ds.Train, users, local, 0), res.Final.Counts) {
		diff = "step counts"
	}
	if cfg.StartUpdates()+updates != res.Updates {
		diff = fmt.Sprintf("%d updates, the run counted %d", cfg.StartUpdates()+updates, res.Updates)
	}
	if diff != "" {
		return 0, fmt.Errorf("core: replay differs from the run: %s", diff)
	}
	return visits, nil
}

// sameBits reports whether a and b hold bit-identical factors.
func sameBits(a, b *factor.Model) bool {
	var x, y bytes.Buffer
	return a.WriteBinary(&x) == nil && b.WriteBinary(&y) == nil && bytes.Equal(x.Bytes(), y.Bytes())
}

// byItem groups a stream by item in log order: item j's entries are
// hs[idx[off[j]:off[j+1]]].
func byItem(hs []hop, n int) (off, idx []int32) {
	off = make([]int32, n+1)
	for _, h := range hs {
		off[h.item+1]++
	}
	for j := 0; j < n; j++ {
		off[j+1] += off[j]
	}
	idx, next := make([]int32, len(hs)), slices.Clone(off[:n])
	for i, h := range hs {
		idx[next[h.item]], next[h.item] = int32(i), next[h.item]+1
	}
	return off, idx
}

// serialOrder calls run(w, j) once per logged visit — w the global
// worker, worker q of machine x being x·W+q — in an order that keeps
// every worker's log order and every item's chain of visits. It fails
// when the logs describe no such order.
func serialOrder(logs []*machineLog, n int, run func(w int, j int32)) error {
	M, W := len(logs), logs[0].workers()
	// Machine x's visit of j with seq s is visit rank[x][vOff[x][j]+s]
	// of j's chain (-1: of none).
	vOff, rank := make([][]int32, M), make([][]int32, M)
	aOff, aIdx, dOff, dIdx := make([][]int32, M), make([][]int32, M), make([][]int32, M), make([][]int32, M)
	for x, lg := range logs {
		vOff[x], _ = byItem(slices.Concat(lg.hops[:W]...), n)
		rank[x] = slices.Repeat([]int32{-1}, int(vOff[x][n]))
		aOff[x], aIdx[x] = byItem(lg.hops[W], n)
		dOff[x], dIdx[x] = byItem(lg.hops[W+1], n)
	}

	// Walk each item's chain: placed on one machine, a stay of visits
	// there, a departure, the matching arrival elsewhere, and so on.
	aCur, dCur := make([]int32, M), make([]int32, M)
	for j := int32(0); int(j) < n; j++ {
		clear(aCur)
		clear(dCur)
		x, from, r := -1, int32(-1), int32(0)
		for y := range logs {
			if aOff[y][j] < aOff[y][j+1] && logs[y].hops[W][aIdx[y][aOff[y][j]]].peer == -1 {
				x = y
			}
		}
		for x >= 0 {
			k := aOff[x][j] + aCur[x]
			if k >= aOff[x][j+1] || logs[x].hops[W][aIdx[x][k]].peer != from {
				return fmt.Errorf("item %d left machine %d for %d, which logged no such arrival", j, from, x)
			}
			aCur[x]++
			start, cnt := logs[x].hops[W][aIdx[x][k]].seq, vOff[x][j+1]-vOff[x][j]
			end, next := cnt, -1
			if k := dOff[x][j] + dCur[x]; k < dOff[x][j+1] {
				dCur[x]++
				end, next = logs[x].hops[W+1][dIdx[x][k]].seq, int(logs[x].hops[W+1][dIdx[x][k]].peer)
			}
			if start < 0 || start > end || end > cnt || next >= M {
				return fmt.Errorf("item %d's stay on machine %d spans visits [%d,%d) of %d, then machine %d", j, x, start, end, cnt, next)
			}
			for s := start; s < end; s++ {
				if rank[x][vOff[x][j]+s] >= 0 {
					return fmt.Errorf("item %d's visit %d on machine %d is in its chain twice", j, s, x)
				}
				rank[x][vOff[x][j]+s], r = r, r+1
			}
			from, x = int32(x), next
		}
	}

	// Run every worker as far as its next visit is its item's next,
	// until a pass over all of them makes no progress.
	next, cur := make([]int32, n), make([]int, M*W)
	for progress := true; progress; {
		progress = false
		for w := range cur {
			x, vs := w/W, logs[w/W].hops[w%W]
			for ; cur[w] < len(vs); cur[w]++ {
				v := vs[cur[w]]
				if v.seq < 0 || v.seq >= vOff[x][v.item+1]-vOff[x][v.item] || rank[x][vOff[x][v.item]+v.seq] != next[v.item] {
					break
				}
				run(w, v.item)
				next[v.item]++
				progress = true
			}
		}
	}
	for w, c := range cur {
		if vs := logs[w/W].hops[w%W]; c < len(vs) {
			return fmt.Errorf("worker %d's visit %d of item %d is not next in its chain", w, vs[c].seq, vs[c].item)
		}
	}
	return nil
}

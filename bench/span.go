package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark's own code
// around a call into a layer. Parent is the id of the span that caused
// it (0 for a root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is the units of work the span covered (ratings, tokens,
	// requests), so ratios are measured where the work happens.
	Count int64 `json:"count,omitempty"`
}

// tracer keeps spans in memory and writes them out when the benchmark
// ends. A nil tracer records nothing, which is how the end-to-end pass
// runs with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// The clock is read under the lock so ids are in start order.
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int, count int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its child spans cover. Overlapping children are
// merged first, so two children running in parallel are not counted
// twice and self time never goes negative.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of the spans' intervals,
// clipped to [lo, hi]. Spans arrive in start order (ids are assigned
// at begin), which the merge relies on.
func covered(spans []span, lo, hi int64) int64 {
	var total, curLo, curHi int64
	open := false
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b <= a {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

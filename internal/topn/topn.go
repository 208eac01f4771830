// Package topn implements the bounded top-N min-heap behind
// Model.Recommend and the serving layer's candidate scans.
//
// Keeping only the current best N while streaming over a large catalog
// makes a top-N query O(total·log N) instead of O(total·log total),
// with no allocation proportional to the catalog. The same heap merges
// per-shard top-N lists at a scatter/gather gateway: parts are
// disjoint, so offering every shard's local top-N into one heap yields
// exactly the global top-N.
//
// Ordering is total and deterministic: higher score first, and on
// equal scores the lower item index first. Every consumer of the heap
// (the training-side Recommend, the serving index scan, the gateway
// merge) shares this ordering, which is what makes the serving path's
// "bit-identical to Model.Recommend" CI assertion possible.
package topn

// Rec is one scored item.
type Rec struct {
	Item  int32
	Score float64
}

// Worse reports whether a ranks strictly below b in the final
// ordering: lower score, or equal score with a larger item index.
func Worse(a, b Rec) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Item > b.Item
}

// Heap is a bounded min-heap of capacity N ordered worst-first (the
// root is the currently weakest kept recommendation). The zero value
// is unusable; construct with NewHeap.
type Heap struct {
	n    int
	recs []Rec
}

// NewHeap returns an empty heap that keeps the best n records.
func NewHeap(n int) *Heap {
	if n <= 0 {
		return &Heap{}
	}
	return &Heap{n: n, recs: make([]Rec, 0, n)}
}

// Reset empties the heap for reuse, keeping its capacity.
func (h *Heap) Reset(n int) {
	h.n = n
	if cap(h.recs) < n {
		h.recs = make([]Rec, 0, n)
		return
	}
	h.recs = h.recs[:0]
}

// Len returns the number of records currently kept.
func (h *Heap) Len() int { return len(h.recs) }

// Full reports whether the heap holds its full N records — the
// precondition for Worst to be a meaningful admission threshold.
func (h *Heap) Full() bool { return h.n > 0 && len(h.recs) == h.n }

// Worst returns the weakest kept record (the admission threshold once
// the heap is full). ok is false while the heap is empty.
func (h *Heap) Worst() (rec Rec, ok bool) {
	if len(h.recs) == 0 {
		return Rec{}, false
	}
	return h.recs[0], true
}

func (h *Heap) siftUp(i int) {
	s := h.recs
	for i > 0 {
		parent := (i - 1) / 2
		if !Worse(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func siftDown(s []Rec, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && Worse(s[l], s[min]) {
			min = l
		}
		if r < len(s) && Worse(s[r], s[min]) {
			min = r
		}
		if min == i {
			return
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
}

// Offer inserts rec if the heap is below capacity, or replaces the
// current worst if rec outranks it.
func (h *Heap) Offer(rec Rec) {
	if h.n == 0 {
		return
	}
	if len(h.recs) < h.n {
		h.recs = append(h.recs, rec)
		h.siftUp(len(h.recs) - 1)
		return
	}
	if Worse(rec, h.recs[0]) {
		return
	}
	h.recs[0] = rec
	siftDown(h.recs, 0)
}

// Sorted pops the heap into best-first order, consuming it: the heap
// is empty afterwards and keeps its capacity, and the returned slice
// aliases its storage, valid until the next Offer or Reset.
func (h *Heap) Sorted() []Rec {
	s := h.recs
	for n := len(s) - 1; n > 0; n-- {
		s[0], s[n] = s[n], s[0]
		siftDown(s[:n], 0)
	}
	h.recs = s[:0]
	return s
}

// Merge folds several best-first (or unordered) candidate lists into
// the global top n. With disjoint candidate sets — per-shard top-n
// lists from a scatter — the result is exactly the top n of the union.
func Merge(n int, lists ...[]Rec) []Rec {
	h := NewHeap(n)
	for _, l := range lists {
		for _, r := range l {
			h.Offer(r)
		}
	}
	return h.Sorted()
}

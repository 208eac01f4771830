package core

import (
	"slices"

	"nomad/internal/vecmath"
)

// Two chains, one order (DESIGN.md §4 piece 5). One item's rating list
// is one dependency chain — every rating's update of hⱼ feeds the next
// rating's inner product — and a core waits on it most of the time. Two
// different items' lists are two chains, and vecmath's two-list kernel
// overlaps them; runBlock finds two lists that may run together without
// changing a bit of the result.
//
// The worker's users are cut at midUser, the median of its rating mass.
// Token t's list, ascending by user, falls into a low half L(t) and a
// high half H(t); L(t) touches hₜ and user rows below the cut, H(t)
// touches hₜ and rows at or above it. SGD steps on disjoint rows
// commute exactly, so L(x) and H(y) commute for x ≠ y, and any schedule
// that keeps the L halves in token order (they share user rows), the H
// halves in token order, and L(t) before H(t) (they share hₜ) leaves
// the factors and counts the token-by-token loop leaves. Lane L runs
// the low halves and may lead; lane H runs the high halves and never
// passes L; whenever both hold a segment the two go through the
// two-list kernel.

// laneMin is the shortest rating list the lanes split. A shorter token
// is a barrier: lane H catches up and the token runs whole, as the loop
// ran it before there were lanes — two kernel calls and a binary search
// cost more than overlapping a handful of ratings returns. The value
// sits in the middle of a measured plateau: 8 to 32 read alike on every
// shape, 1 to 4 cost the 2-rating lists of the longtail shape up to
// 30 %, and 64 and up make barriers of lists that pair well (−20 % on a
// shape whose median list is 72 ratings). The sweep is in EXPERIMENTS.md
// "Where the kernel waits on itself".
const laneMin = 16

// runBlock trains the tokens of one popped block, items[i] being token
// i's item, and returns how many it finished; those are a prefix of the
// block, and no other token was touched. begin(n) is called in token
// order before anything of a token with n local ratings runs, and
// returns false when no further token may start; finish(i, n) is called
// in token order once token i is wholly applied — the caller's per-token
// bookkeeping — and returns true when the run is stopping. Either way
// the lanes complete every token already begun (lane L's lead) first.
// With lanes false, every token is a barrier and the block runs in
// token order.
//
//nomad:noalloc
func (hp *hotPath[T]) runBlock(lr *localRatings, items []int32, lanes bool,
	begin func(n int) bool, finish func(i, n int) bool) int {
	var (
		split        [meshBlock]int32 // token → where in lr.users its high half starts
		lTok, hTok   int              // the token each lane is on, or begins next; hTok ≤ lTok
		lPos, lEnd   int              // lane L's segment of lr.users, when lBusy
		hPos, hEnd   int
		lBusy, hBusy bool
		halted       bool
	)
	item := func(i int) int {
		if i < len(items) {
			return int(items[i])
		}
		return -1
	}
	for {
		if !lBusy && !halted && lTok < len(items) {
			j := int(items[lTok])
			lo, hi := int(lr.colPtr[j]), int(lr.colPtr[j+1])
			long := lanes && hi-lo >= laneMin
			if long || hTok == lTok { // a barrier waits for lane H to catch up
				if halted = !begin(hi - lo); halted {
					continue
				}
				hp.prefetchAhead(lr, item(lTok+1), item(lTok+2), item(lTok+3))
				if !long {
					hp.itemSGDItem(j, lr.users[lo:hi], lr.vals[lo:hi], lr.counts[lo:hi])
					lTok, hTok = lTok+1, hTok+1
					halted = finish(lTok-1, hi-lo)
					continue
				}
				s, _ := slices.BinarySearch(lr.users[lo:hi], lr.midUser)
				split[lTok] = int32(lo + s)
				lPos, lEnd, lBusy = lo, lo+s, true
			}
		}
		if !hBusy && hTok < lTok {
			hPos, hEnd, hBusy = int(split[hTok]), int(lr.colPtr[items[hTok]+1]), true
		}
		switch {
		case lBusy && lPos == lEnd, hBusy && hPos == hEnd: // an empty half: nothing to run
		case lBusy && hBusy:
			n := min(lEnd-lPos, hEnd-hPos)
			hp.itemSGDPair(lr, int(items[lTok]), lPos, lEnd, int(items[hTok]), hPos, hEnd)
			lPos, hPos = lPos+n, hPos+n
		case lBusy:
			hp.itemSGDItem(int(items[lTok]), lr.users[lPos:lEnd], lr.vals[lPos:lEnd], lr.counts[lPos:lEnd])
			lPos = lEnd
		case hBusy:
			hp.itemSGDItem(int(items[hTok]), lr.users[hPos:hEnd], lr.vals[hPos:hEnd], lr.counts[hPos:hEnd])
			hPos = hEnd
		default:
			return hTok // nothing begun is unfinished, nothing more may begin
		}
		if lBusy && lPos == lEnd {
			lBusy, lTok = false, lTok+1
		}
		if hBusy && hPos == hEnd {
			j := items[hTok]
			hBusy, hTok = false, hTok+1
			if finish(hTok-1, int(lr.colPtr[j+1]-lr.colPtr[j])) {
				halted = true
			}
		}
	}
}

// itemSGDPair advances item jA's ratings [aLo, aHi) and item jB's
// [bLo, bHi) of lr in lockstep, for as many ratings as the shorter
// segment has.
func (hp *hotPath[T]) itemSGDPair(lr *localRatings, jA, aLo, aHi, jB, bLo, bHi int) {
	hp.pair(hp.wData,
		vecmath.ItemList[T]{Users: lr.users[aLo:aHi], Vals: lr.vals[aLo:aHi], Counts: lr.counts[aLo:aHi], H: hp.itemRow(jA)},
		vecmath.ItemList[T]{Users: lr.users[bLo:bHi], Vals: lr.vals[bLo:bHi], Counts: lr.counts[bLo:bHi], H: hp.itemRow(jB)},
		hp.lambda, hp.steps, hp.slow)
}

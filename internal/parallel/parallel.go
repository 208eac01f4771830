// Package parallel provides the fork-join loop used by the
// bulk-synchronous baselines (ALS, CCD++, DSGD's sub-epochs) to spread
// row-wise work across a fixed number of workers.
package parallel

import "sync"

// For splits [0, n) into at most workers contiguous chunks and runs
// body(worker, lo, hi) for each chunk concurrently, returning when all
// chunks are done. body must not panic. With workers <= 1 or tiny n it
// degrades to a serial call, avoiding goroutine overhead.
func For(workers, n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// Package par provides the bounded, deterministic worker pool behind the
// parallel lifter's per-sample expression extraction.  Work items are
// handed out in ascending order and results land at fixed positions, so
// callers produce identical output — and report the identical first error
// — regardless of worker count or scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For covers [0, total) in ascending chunks of the given size on a pool
// of workers.  worker(w) is called once per worker to build its body —
// per-worker state (scratch buffers) lives in that closure —
// and the body is then invoked with half-open chunk bounds.
//
// workers <= 0 means GOMAXPROCS; the pool never exceeds the chunk count.
// A worker stops at its first error.  For returns the error of the
// lowest-start failing chunk: chunks are handed out in ascending order
// and every chunk before the first failing one succeeded, so that error
// is exactly the one a serial ascending scan would hit first.
func For(total, chunk, workers int, worker func(w int) func(start, end int) error) error {
	if total <= 0 {
		return nil
	}
	if chunk < 1 {
		chunk = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxWorkers := (total + chunk - 1) / chunk; workers > maxWorkers {
		workers = maxWorkers
	}

	if workers == 1 {
		body := worker(0)
		for start := 0; start < total; start += chunk {
			if err := body(start, min(start+chunk, total)); err != nil {
				return err
			}
		}
		return nil
	}

	var cursor atomic.Int64
	type chunkErr struct {
		start int
		err   error
	}
	errs := make([]chunkErr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := worker(w)
			for {
				start := int(cursor.Add(int64(chunk))) - chunk
				if start >= total {
					return
				}
				if err := body(start, min(start+chunk, total)); err != nil {
					errs[w] = chunkErr{start: start, err: err}
					return
				}
			}
		}(w)
	}
	wg.Wait()

	best := -1
	for i := range errs {
		if errs[i].err != nil && (best < 0 || errs[i].start < errs[best].start) {
			best = i
		}
	}
	if best >= 0 {
		return errs[best].err
	}
	return nil
}

package lift

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestParallelForCoversEverything checks every index is visited exactly
// once for assorted totals, chunk sizes and worker counts.
func TestParallelForCoversEverything(t *testing.T) {
	for _, total := range []int{0, 1, 7, 64, 1000} {
		for _, chunk := range []int{1, 3, 16} {
			for _, workers := range []int{1, 2, 5, 0} {
				hits := make([]int32, total)
				err := parallelFor(total, chunk, workers, func(int) func(int, int) error {
					return func(start, end int) error {
						for i := start; i < end; i++ {
							atomic.AddInt32(&hits[i], 1)
						}
						return nil
					}
				})
				if err != nil {
					t.Fatalf("parallelFor(%d,%d,%d): %v", total, chunk, workers, err)
				}
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("parallelFor(%d,%d,%d): index %d visited %d times", total, chunk, workers, i, h)
					}
				}
			}
		}
	}
}

// TestParallelForReportsLowestError checks the deterministic error
// guarantee: with several failing chunks, every worker count reports the
// error of the lowest-start one, exactly like a serial scan.
func TestParallelForReportsLowestError(t *testing.T) {
	failAt := map[int]bool{40: true, 12: true, 90: true}
	for _, workers := range []int{1, 2, 4, 8} {
		err := parallelFor(100, 1, workers, func(int) func(int, int) error {
			return func(start, end int) error {
				if failAt[start] {
					return fmt.Errorf("chunk %d failed", start)
				}
				return nil
			}
		})
		if err == nil || err.Error() != "chunk 12 failed" {
			t.Fatalf("workers=%d: err = %v, want chunk 12 failed", workers, err)
		}
	}
}

// TestParallelForPerWorkerState checks worker(w) runs once per worker and
// bodies see only their own closure state.
func TestParallelForPerWorkerState(t *testing.T) {
	var built atomic.Int32
	err := parallelFor(64, 4, 4, func(int) func(int, int) error {
		built.Add(1)
		sum := 0
		return func(start, end int) error {
			sum += end - start // worker-local, no races
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := built.Load(); b < 1 || b > 4 {
		t.Fatalf("worker factory ran %d times, want 1..4", b)
	}
}

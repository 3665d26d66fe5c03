package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run hands back to main: the metrics of the
// run's kind (end-to-end or per-layer), the op counts, and every check
// that did not hold.
type report struct {
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	// Problems lists the first failed ops and every failed consistency
	// check of a traced run; any entry makes the run incorrect.
	Problems []string `json:"problems,omitempty"`
	// Notes carries context a reader needs to interpret the metrics:
	// sample counts, the failed fraction, layer shares.
	Notes map[string]any `json:"notes"`
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, Notes: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// op counts one attempted op, and a failure when err is non-nil.  The
// first few failures are kept as problems so a failing run explains
// itself.
func (r *report) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if r.Failed <= 5 {
			r.problem("op failed: %v", err)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// quantileTrunc is the nearest-rank q-quantile of xs (sorted in place),
// values truncated to multiples of quantum: the ops sharing the
// quantile's value are taken as spread evenly over [value, value +
// quantum), and the rank's position among them is interpolated, so a
// quantile of coarse readings still moves with the latencies under them.
func quantileTrunc(xs []float64, q, quantum float64) float64 {
	v := quantile(xs, q)
	if math.IsNaN(v) {
		return v
	}
	rank := float64(min(max(int(math.Ceil(q*float64(len(xs)))), 1), len(xs)))
	lo, _ := slices.BinarySearch(xs, v)
	hi, _ := slices.BinarySearch(xs, math.Nextafter(v, math.Inf(1)))
	return v + (rank-float64(lo))/float64(hi-lo)*quantum
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// medianDur times f reps times and returns the median wall time.
func medianDur(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// Latency histogram buckets are log-spaced, each 0.1% wider than the
// last, from 1ns to past 100s: fine enough that a tail quantile, which
// lands in a sparse bucket, still reads to 0.1%.
const (
	histGrowth  = 1.001
	histBuckets = 26000
)

type histogram [histBuckets]uint32

func (h *histogram) add(lat time.Duration) {
	b := 0
	if lat > 1 {
		b = min(int(math.Log(float64(lat))/math.Log(histGrowth)), histBuckets-1)
	}
	h[b]++
}

// quantileMS returns the nearest-rank q-quantile in milliseconds,
// interpolated by rank within its bucket.
func (h *histogram) quantileMS(q float64) float64 {
	total := 0
	for _, c := range h {
		total += int(c)
	}
	rank := max(math.Ceil(q*float64(total)), 1)
	cum := 0.0
	for b, c := range h {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := math.Pow(histGrowth, float64(b))
			return (lo + (rank-cum)/float64(c)*(lo*histGrowth-lo)) / 1e6
		}
		cum += float64(c)
	}
	return math.NaN()
}

// windowed records a closed loop's ops into n equal windows of a planned
// span: per window, the correct-op count and a latency histogram, all in
// fixed memory, so recording never grows the heap the measured program
// shares (growth that would change GC pacing as the run goes on).
// Throughput and latency are then medians over windows, so a burst of
// contention from outside the process moves one window, not the result.
type windowed struct {
	planned time.Duration
	ok, all []int
	hist    []histogram
}

func newWindowed(n int, planned time.Duration) *windowed {
	return &windowed{planned: planned, ok: make([]int, n), all: make([]int, n), hist: make([]histogram, n)}
}

// add records one op that completed at end, on the loop's clock, after
// lat.  Ops completing past the planned span count in the last window.
func (w *windowed) add(end, lat time.Duration, ok bool) {
	n := len(w.ok)
	i := n - 1
	if w.planned > 0 {
		i = min(int(int64(end)*int64(n)/int64(w.planned)), n-1)
	}
	w.all[i]++
	if ok {
		w.ok[i]++
	}
	w.hist[i].add(lat)
}

func (w *windowed) merge(o *windowed) {
	for i := range w.ok {
		w.ok[i] += o.ok[i]
		w.all[i] += o.all[i]
		for b, c := range o.hist[i] {
			w.hist[i][b] += c
		}
	}
}

func (w *windowed) counts() (ok, all int) {
	for i := range w.ok {
		ok, all = ok+w.ok[i], all+w.all[i]
	}
	return ok, all
}

// rates is each window's correct ops per second, for a loop that ran for
// span; the last window runs to the loop's end.
func (w *windowed) rates(span time.Duration) []float64 {
	n := len(w.ok)
	step := w.planned / time.Duration(n)
	out := make([]float64, n)
	for i := range out {
		length := step
		if i == n-1 {
			length = span - step*time.Duration(n-1)
		}
		out[i] = float64(w.ok[i]) / length.Seconds()
	}
	return out
}

// quantilesMS is each non-empty window's q-quantile latency in
// milliseconds.  A failed op counts with its latency: it missed whatever
// limit a caller had.
func (w *windowed) quantilesMS(q float64) []float64 {
	var out []float64
	for i := range w.hist {
		if w.all[i] > 0 {
			out = append(out, w.hist[i].quantileMS(q))
		}
	}
	return out
}

// quantileMS is the whole loop's q-quantile latency in milliseconds.
func (w *windowed) quantileMS(q float64) float64 {
	var h histogram
	for i := range w.hist {
		for b, c := range w.hist[i] {
			h[b] += c
		}
	}
	return h.quantileMS(q)
}

// heapPeak samples the Go heap live after each GC cycle until stopped
// and keeps the peak.  The live heap, unlike the allocated one, does not
// depend on when the collector happened to run.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in MB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	return float64(<-h.done) / (1 << 20)
}

// rtSnap is the runtime's allocation and GC counters at one instant.
type rtSnap struct {
	mallocs, bytes, pauseNs uint64
	gcs                     uint32
}

func readRT() rtSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return rtSnap{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNs: m.PauseTotalNs, gcs: m.NumGC}
}

// runtimeLayer reports the Go runtime's share of a timed phase of ops.
func (r *report) runtimeLayer(before, after rtSnap, ops int) {
	n := float64(max(ops, 1))
	r.set("runtime.allocs_per_op", "count", float64(after.mallocs-before.mallocs)/n)
	r.set("runtime.alloc_bytes_per_op", "bytes", float64(after.bytes-before.bytes)/n)
	r.set("runtime.gc_cycles", "count", float64(after.gcs-before.gcs))
	r.set("runtime.gc_pause_ms", "ms", float64(after.pauseNs-before.pauseNs)/1e6)
}

package serve

import (
	"context"
	"io"
	"runtime"
	"testing"

	"helium/internal/faultpoint"
	"helium/internal/liftedkernels"
	"helium/internal/obs"
)

// TestZeroAllocSteadyState is the acceptance gate on the hot serving
// path: once a kernel is lifted and the pools are warm, a pixels-mode
// request at a stable geometry — admission, queue, worker handoff, input
// rebuild, generated execution, response — allocates nothing.  brighten
// runs its schedule through EvalInto and downsample2x its baked Tuned
// driver, the two branches of EvalTunedInto.
func TestZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		// sync.Pool deliberately randomizes Get/Put under the race
		// detector, so the pooled path cannot promise zero allocations
		// there; the non-race CI pass still enforces the gate.
		t.Skip("race instrumentation defeats sync.Pool reuse")
	}
	for _, tc := range []struct {
		kernel string
		tuned  bool
	}{
		{"brighten", false},
		{"downsample2x", true},
	} {
		t.Run(tc.kernel, func(t *testing.T) {
			gk, ok := liftedkernels.Lookup(tc.kernel)
			if !ok {
				t.Fatalf("%s is not in the generated registry", tc.kernel)
			}
			if (gk.Tuned != nil) != tc.tuned {
				t.Fatalf("%s: has a baked Tuned driver = %v, want %v", tc.kernel, gk.Tuned != nil, tc.tuned)
			}
			faultpoint.Reset()
			s := New(Options{Workers: 1})
			s.Start()
			t.Cleanup(func() { s.Shutdown(context.Background()) })

			n, err := s.InputSpec(tc.kernel, 40, 24)
			if err != nil {
				t.Fatal(err)
			}
			pixels := make([]byte, n)
			for i := range pixels {
				pixels[i] = byte(i * 31)
			}
			req := request{w: 40, h: 24, pixels: pixels}
			var status int
			var backend string
			emit := func(r *result) { status, backend = r.status, r.backend }

			ctx := context.Background()
			for i := 0; i < 50; i++ { // warm the job, scratch and plane pools
				s.do(ctx, tc.kernel, &req, emit)
				if status != 200 {
					t.Fatalf("warmup request %d: status %d", i, status)
				}
			}
			if backend != "generated" {
				t.Fatalf("steady state serves via %q, want generated", backend)
			}

			runtime.GC() // settle pool victim caches before counting
			allocs := testing.AllocsPerRun(200, func() {
				s.do(ctx, tc.kernel, &req, emit)
			})
			if status != 200 {
				t.Fatalf("measured request finished with status %d", status)
			}
			if allocs != 0 {
				t.Fatalf("steady-state request allocates %.1f objects, want 0", allocs)
			}
		})
	}
}

// TestZeroAllocWithObservability re-runs the steady-state gate with the
// full flight recorder armed — metrics observing and an enabled
// info-level access logger — proving instrumentation costs no
// allocations on the hot serving path.
func TestZeroAllocWithObservability(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse")
	}
	faultpoint.Reset()
	s := New(Options{
		Workers: 1,
		Logger:  obs.NewLogger(io.Discard, obs.LevelInfo),
		Metrics: obs.NewRegistry(),
	})
	s.Start()
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	n, err := s.InputSpec("brighten", 40, 24)
	if err != nil {
		t.Fatal(err)
	}
	pixels := make([]byte, n)
	for i := range pixels {
		pixels[i] = byte(i * 31)
	}
	req := request{w: 40, h: 24, pixels: pixels}
	var status int
	emit := func(r *result) { status = r.status }

	ctx := context.Background()
	for i := 0; i < 50; i++ {
		s.do(ctx, "brighten", &req, emit)
		if status != 200 {
			t.Fatalf("warmup request %d: status %d", i, status)
		}
	}

	runtime.GC()
	allocs := testing.AllocsPerRun(200, func() {
		s.do(ctx, "brighten", &req, emit)
	})
	if status != 200 {
		t.Fatalf("measured request finished with status %d", status)
	}
	if allocs != 0 {
		t.Fatalf("instrumented steady-state request allocates %.1f objects, want 0", allocs)
	}
}

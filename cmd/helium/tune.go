// The autotuner: search the schedule space per corpus kernel and commit
// the winners.  This is the practical payoff of the algorithm/schedule
// split — the lifted kernel fixes WHAT to compute, `helium tune` measures
// candidate strategies (tile extents, materialize vs sliding-window
// fusion) on the generated runtime, the backend that serves, and records
// the fastest one in schedules.json, which `helium gen` bakes into the
// generated package as each kernel's default schedule.  Every candidate is verified byte for byte against the
// legacy binary's own output before it is timed, and the heuristic
// default is always candidate zero, so a tuned schedule is never slower
// than the previous hard-coded strategy on the machine that tuned it.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"runtime"
	"time"

	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
	"helium/internal/schedule"
)

// tuneResult is one kernel's tuning outcome, for reporting.
type tuneResult struct {
	kernel            string
	sched             *schedule.Schedule
	bestNs, defaultNs float64
	candidates        int
	pruned            int
}

// runTune benchmarks candidate schedules for every corpus kernel and
// writes the winners to a schedules.json set.
func runTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	var (
		out    = fs.String("out", "schedules.json", "schedule set output path")
		smoke  = fs.Bool("smoke", false, "tiny candidate grid for CI; asserts the written set round-trips")
		width  = fs.Int("width", 256, "image width candidates are timed at")
		height = fs.Int("height", 192, "image height candidates are timed at")
		seed   = fs.Uint64("seed", 1, "deterministic input pattern seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicitSize := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "width" || f.Name == "height" {
			explicitSize = true
		}
	})
	cfg := legacy.Config{Width: *width, Height: *height, Seed: *seed}
	if *smoke && !explicitSize {
		// Smoke mode shrinks the default geometry for CI speed, but an
		// explicitly requested size wins.
		cfg = legacy.Config{Width: smokeWidth, Height: smokeHeight, Seed: *seed}
	}
	fmt.Printf("tuning at %s\n", cfg)

	set := &schedule.Set{
		Config:     cfg.String(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Machine:    schedule.HostMachineKey(),
		Kernels:    map[string]*schedule.Schedule{},
	}
	var results []tuneResult
	for _, k := range legacy.Kernels() {
		r, err := tuneKernel(k, cfg, *smoke)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		set.Kernels[k.Name] = r.sched
		results = append(results, *r)
		fmt.Printf("%-10s %3d candidate(s), %2d pruned   best %8.2f ns/sample (default %8.2f, %0.2fx)   %s\n",
			r.kernel, r.candidates, r.pruned, r.bestNs, r.defaultNs, r.defaultNs/max64f(r.bestNs, 1e-9), r.sched)
	}

	if err := set.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d kernels)\n", *out, len(set.Kernels))

	// Round-trip assertion: the written artifact must load and validate,
	// and cover the whole corpus — the smoke gate CI runs.
	loaded, err := schedule.Load(*out)
	if err != nil {
		return fmt.Errorf("round-trip: %w", err)
	}
	for _, k := range legacy.Kernels() {
		if loaded.For(k.Name) == nil {
			return fmt.Errorf("round-trip: kernel %s missing from %s", k.Name, *out)
		}
	}
	if *smoke {
		fmt.Println("tune: smoke round-trip OK")
	}
	return nil
}

func max64f(v, lo float64) float64 {
	if v < lo {
		return lo
	}
	return v
}

// smokeWidth and smokeHeight are `tune -smoke`'s geometry when no size
// is given: small, for CI speed.
const smokeWidth, smokeHeight = 48, 32

// tuneTarget is one kernel lifted for tuning: its generated code, the
// input image and output window every candidate runs on, and the VM's
// bytes every candidate must reproduce.
type tuneTarget struct {
	res        *lift.Result
	gk         *liftedkernels.Kernel
	img        liftedkernels.Image
	outW, outH int
	want       []byte
	sc         liftedkernels.Scratch
}

// newTuneTarget lifts k at cfg and prepares its generated code to race.
func newTuneTarget(k legacy.Kernel, cfg legacy.Config) (*tuneTarget, error) {
	res, err := lift.Lift(k.Name, target(k.Instantiate(cfg)))
	if err != nil {
		return nil, err
	}
	gk, ok := liftedkernels.Lookup(k.Name)
	if !ok {
		return nil, fmt.Errorf("kernel %q is not in internal/liftedkernels (run `helium gen`)", k.Name)
	}
	img, ok := lift.GenImage(res.MaterializeInput())
	if !ok {
		return nil, fmt.Errorf("kernel %q input cannot be materialized as a flat image", k.Name)
	}
	want, err := res.VMOutput()
	if err != nil {
		return nil, err
	}
	tt := &tuneTarget{res: res, gk: gk, img: img, want: want}
	tt.outW, tt.outH = res.EvalDims()
	return tt, nil
}

// onlyReductions reports a pipeline with no stencil stage.
func (tt *tuneTarget) onlyReductions() bool {
	for i := range tt.res.Stages {
		if tt.res.Stages[i].Kernel != nil {
			return false
		}
	}
	return true
}

// grid enumerates the candidate schedules, the default first.
// Reduction-only pipelines have no schedulable stencil work: the scatter
// update runs serially whatever the schedule says, so the default is
// their only candidate.
func (tt *tuneTarget) grid(smoke bool) []*schedule.Schedule {
	if tt.onlyReductions() {
		return []*schedule.Schedule{schedule.Default()}
	}
	opts := schedule.GridOpts{
		Stages: 1,
		OutW:   tt.outW,
		OutH:   tt.outH,
		Smoke:  smoke,
	}
	// Fusion candidates only for pipelines the runtime streams: two or
	// more stages its sliding-window validation accepts.
	gk := tt.gk
	if len(gk.Stages) >= 2 {
		if _, err := gk.EvalInto(&tt.sc, &tt.img, tt.outW, tt.outH, liftedkernels.ScheduleSpec{Fusion: string(schedule.SlidingWindow)}); err == nil {
			opts.Stages = len(gk.Stages)
			// The smallest per-gap window — each consumer's recorded row
			// footprint: candidates at or below it are minimal on every gap
			// (see GridOpts.MinWindow).
			opts.MinWindow = gk.Stages[1].MaxDY - gk.Stages[1].MinDY + 1
			for _, st := range gk.Stages[2:] {
				opts.MinWindow = min(opts.MinWindow, st.MaxDY-st.MinDY+1)
			}
		}
	}
	return schedule.Grid(opts)
}

// run returns one candidate's evaluation, which demands the VM's bytes.
func (tt *tuneTarget) run(cand *schedule.Schedule) func() error {
	spec := genSpec(cand)
	return func() error {
		got, err := tt.gk.EvalInto(&tt.sc, &tt.img, tt.outW, tt.outH, spec)
		if err != nil {
			return fmt.Errorf("schedule %s: %w", cand, err)
		}
		if !bytes.Equal(got, tt.want) {
			return fmt.Errorf("schedule %s changed the output", cand)
		}
		return nil
	}
}

// tuneKernel lifts one kernel and races the candidate grid through the
// kernel's generated code.
func tuneKernel(k legacy.Kernel, cfg legacy.Config, smoke bool) (*tuneResult, error) {
	tt, err := newTuneTarget(k, cfg)
	if err != nil {
		return nil, err
	}
	grid := tt.grid(smoke)
	samples := float64(len(tt.want))
	r := &tuneResult{kernel: k.Name, candidates: len(grid)}
	for i, cand := range grid {
		if err := cand.Validate(len(tt.res.Stages)); err != nil {
			return nil, fmt.Errorf("candidate %s: %w", cand, err)
		}
		fn := tt.run(cand)
		// Early pruning: one quick probe (which also verifies the
		// candidate); a candidate already far behind the leader is not
		// worth steady-state timing.
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		// r.sched is nil until the first candidate is timed, so the
		// default (candidate zero) is never pruned.
		quick := float64(time.Since(start).Nanoseconds())
		if r.sched != nil && quick > 1.8*r.bestNs*samples {
			r.pruned++
			continue
		}
		ns, err := timeIt(fn)
		if err != nil {
			return nil, err
		}
		perSample := ns / samples
		if i == 0 {
			r.defaultNs = perSample
		}
		if r.sched == nil || perSample < r.bestNs {
			r.sched, r.bestNs = cand, perSample
		}
	}
	return r, nil
}

// genSpec translates a schedule into the generated runtime's form — the
// same fields `helium gen` embeds as a kernel's default.
func genSpec(sc *schedule.Schedule) liftedkernels.ScheduleSpec {
	spec := liftedkernels.ScheduleSpec{Fusion: string(sc.FusionKind()), WindowRows: sc.WindowRows}
	for _, st := range sc.Stages {
		spec.Stages = append(spec.Stages, liftedkernels.StageSched{TileW: st.TileW, TileH: st.TileH})
	}
	return spec
}

// timeIt measures fn's steady-state nanoseconds per call: after one
// warmup call, three measurement rounds of at least two iterations and
// ~15ms each, keeping the fastest round.  The minimum across rounds is
// far more robust to scheduler and thermal noise on a shared machine than
// one long mean, which matters because the tuner ranks candidates that
// often differ by a few percent.
func timeIt(fn func() error) (float64, error) {
	const (
		rounds   = 3
		minIters = 2
		minTime  = 15 * time.Millisecond
	)
	if err := fn(); err != nil {
		return 0, err
	}
	best := math.Inf(1)
	for r := 0; r < rounds; r++ {
		iters := 0
		start := time.Now()
		for {
			if err := fn(); err != nil {
				return 0, err
			}
			iters++
			if iters >= minIters && time.Since(start) >= minTime {
				break
			}
		}
		if ns := float64(time.Since(start).Nanoseconds()) / float64(iters); ns < best {
			best = ns
		}
	}
	return best, nil
}

// Command helium runs the lifting pipeline end to end against the legacy
// corpus: it executes a kernel under the tracing VM, localizes the filter
// by coverage diffing, reconstructs the buffer structure, extracts and
// canonicalizes per-pixel expression trees, prints the lifted Halide-like
// IR, and verifies the chosen backend pixel-exactly against the binary's
// own output.
//
// Usage:
//
//	helium [-kernel name] [-width N] [-height N] [-seed N] [-v]
//	       [-backend interp|compiled|generated] [-strict]
//	helium tune [-out schedules.json] [-smoke] [-width N] [-height N]
//	helium gen [-out dir] [-check] [-schedules schedules.json]   (dir/kernels.go)
//
// With no -kernel, every corpus kernel is lifted.  The default backend
// compiles the lifted trees to register programs and evaluates them
// serially; -backend interp selects the tree-walking evaluator and
// -backend generated the ahead-of-time Go code in internal/liftedkernels,
// the only parallel executor.  Either way the output is compared byte for
// byte with what the legacy binary wrote.
//
// When a backend fails, run degrades gracefully down the chain
// generated -> compiled -> interp -> vm, printing the reason for each
// step down; the terminal vm backend re-emulates the binary directly, so
// a correct answer always comes back even when the lift itself fails.
// -strict disables the chain: the first failure is fatal.
//
// The tune subcommand is the autotuner: it races candidate schedules
// (tiles, workers, materialize vs sliding-window fusion) per kernel on
// the generated runtime, verifying each candidate bit-exact against the
// VM before timing it, and writes the winners to schedules.json; -smoke
// runs a tiny grid and asserts the artifact round-trips, for CI.
//
// The gen subcommand regenerates internal/liftedkernels/kernels.go from
// the corpus (true ahead-of-time codegen), embedding the tuned schedules
// as the generated kernels' defaults; -check verifies the checked-in
// kernels.go is up to date instead of writing, for CI.  The package's
// runtime.go is hand-written and gen leaves it alone.
//
// Performance is measured outside this command: by the perfbench module
// (end to end and per layer) and by the Go benchmarks in internal/lift.
//
// The exit status is nonzero if anything fails to lift, verify, tune or
// regenerate cleanly.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"helium/internal/faultpoint"
	"helium/internal/ir"
	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
	"helium/internal/schedule"
	"helium/internal/vm"
)

// The CLI's injectable failures, exercised by the degradation tests and
// the CI fault-injection smoke (HELIUM_FAULTPOINTS=name helium ...).
var (
	// fpGenVerifyFail corrupts one byte of the generated backend's output
	// before verification, modeling a stale internal/liftedkernels.
	fpGenVerifyFail = faultpoint.Register("gen.verify-fail",
		"corrupt one byte of the generated backend's output before verification")
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := runGen(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "helium: gen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "tune" {
		if err := runTune(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "helium: tune: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var (
		kernelName = flag.String("kernel", "", "lift a single corpus kernel (default: all)")
		width      = flag.Int("width", 40, "image width in pixels")
		height     = flag.Int("height", 24, "image height in pixels")
		seed       = flag.Uint64("seed", 1, "deterministic input pattern seed")
		backend    = flag.String("backend", "compiled", "evaluation backend: interp, compiled or generated")
		verbose    = flag.Bool("v", false, "print localization and buffer details")
		list       = flag.Bool("list", false, "list the corpus kernels and exit")
		strict     = flag.Bool("strict", false, "disable graceful backend degradation: the first backend failure is fatal")
	)
	flag.Parse()

	if *list {
		for _, k := range legacy.Kernels() {
			fmt.Printf("%-10s %s\n", k.Name, k.Description)
		}
		return
	}
	switch *backend {
	case "interp", "compiled", "generated":
	default:
		fmt.Fprintf(os.Stderr, "helium: unknown backend %q (interp, compiled or generated)\n", *backend)
		os.Exit(2)
	}

	// The pipeline needs images big enough that the output buffer dwarfs
	// the filter's stack traffic and row structure is observable.
	if *width < 12 || *height < 6 || *width > 4096 || *height > 4096 {
		fmt.Fprintf(os.Stderr, "helium: image size %dx%d out of range (min 12x6, max 4096x4096)\n", *width, *height)
		os.Exit(2)
	}

	kernels := legacy.Kernels()
	if *kernelName != "" {
		k, ok := legacy.Lookup(*kernelName)
		if !ok {
			fmt.Fprintf(os.Stderr, "helium: unknown kernel %q (try -list)\n", *kernelName)
			os.Exit(2)
		}
		kernels = []legacy.Kernel{k}
	}

	cfg := legacy.Config{Width: *width, Height: *height, Seed: *seed}

	failed := false
	for _, k := range kernels {
		if err := run(k, cfg, *backend, *verbose, *strict); err != nil {
			fmt.Fprintf(os.Stderr, "helium: %s: %v\n", k.Name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// loadSchedules reads the tuned schedule set `helium gen` bakes into the
// generated package.  A missing file is fine — heuristic defaults apply,
// the set is an optimization — but a file that exists and fails to parse
// or validate is an error: silently ignoring a corrupt schedules.json
// would generate against defaults while claiming to use the tuned set.
//
// A schedule is a measurement only on the machine class that timed it,
// but gen's artifact must not depend on the build host: a set tuned
// elsewhere is applied with a warning.
func loadSchedules(path string) (*schedule.Set, error) {
	set, err := schedule.Load(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	if host := schedule.HostMachineKey(); !set.MatchesMachine(host) {
		fmt.Fprintf(os.Stderr, "helium: warning: %s was tuned on machine class %s; this host is %s (re-run `helium tune` to re-measure)\n",
			path, set.Machine, host)
	}
	return set, nil
}

func target(inst *legacy.Instance) lift.Target {
	return lift.Target{
		Prog:  inst.Prog,
		Setup: inst.Setup,
		Known: lift.KnownInput{
			Width:       inst.Width,
			Height:      inst.Height,
			Channels:    inst.Channels,
			Interleaved: inst.Interleaved,
			Interior:    inst.InputInterior,
		},
	}
}

// evalGenerated renders a lifted result through the checked-in generated
// package and verifies it against the legacy binary's own output.
func evalGenerated(name string, res *lift.Result) (*liftedkernels.Kernel, []byte, error) {
	gk, ok := liftedkernels.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("kernel %q is not in internal/liftedkernels (run `helium gen`)", name)
	}
	img, ok := lift.GenImage(res.MaterializeInput())
	if !ok {
		return nil, nil, fmt.Errorf("kernel %q input cannot be materialized as a flat image", name)
	}
	w, h := res.EvalDims()
	out, err := gk.Eval(&img, w, h)
	if err != nil {
		return nil, nil, fmt.Errorf("generated eval: %w", err)
	}
	if faultpoint.Enabled(fpGenVerifyFail) && len(out) > 0 {
		out = append([]byte(nil), out...)
		out[len(out)/2] ^= 0x40
	}
	want, err := res.VMOutput()
	if err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(out, want) {
		return nil, nil, fmt.Errorf("generated code output differs from the VM's (stale internal/liftedkernels? run `helium gen`)")
	}
	return gk, out, nil
}

// printLifted renders the lifted pipeline: one Halide-like definition per
// stage.
func printLifted(res *lift.Result) {
	for i := range res.Stages {
		st := &res.Stages[i]
		if st.Red != nil {
			fmt.Print(st.Red)
			continue
		}
		fmt.Print(st.Kernel)
	}
}

// backendChain is the graceful-degradation order: the requested backend
// first, then progressively simpler evaluators, ending at direct VM
// emulation — which needs nothing from the lift, so a correct answer is
// always reachable.
func backendChain(backend string) []string {
	switch backend {
	case "generated":
		return []string{"generated", "compiled", "interp", "vm"}
	case "compiled":
		return []string{"compiled", "interp", "vm"}
	default:
		return []string{"interp", "vm"}
	}
}

func run(k legacy.Kernel, cfg legacy.Config, backend string, verbose, strict bool) error {
	inst := k.Instantiate(cfg)

	fmt.Printf("=== %s (%s)\n", k.Name, cfg)
	chain := backendChain(backend)
	res, err := lift.Lift(k.Name, target(inst))
	if err != nil {
		if strict {
			return err
		}
		// With no lifted result every evaluator is off the table; only the
		// VM itself can still answer.  That loses everything the lift adds,
		// but the legacy output is still reproduced — and the reason is on
		// record.
		fmt.Printf("fallback: lift failed: %v; degrading to vm\n", err)
		chain, res = []string{"vm"}, nil
	}

	if res != nil {
		if verbose {
			fmt.Printf("localization: filter entry %#x (candidates %#x), coverage %d on / %d off blocks, diff %d\n",
				res.Loc.FilterEntry, res.Loc.Candidates, res.Loc.OnBlocks, res.Loc.OffBlocks, len(res.Loc.Diff))
			fmt.Printf("buffers: input base %#x stride %d; output base %#x stride %d, %dx%d px, %d channel(s)\n",
				res.Bufs.In.Base, res.Bufs.In.Stride,
				res.Bufs.Out.Base, res.Bufs.Out.Stride,
				res.Bufs.Out.Width(), res.Bufs.Out.Rows, res.Bufs.Out.Channels)
			fmt.Printf("trace: %d dynamic instructions (of %d executed), %d KiB dumped, %d sample trees\n",
				res.TraceInsts, res.TraceSteps, res.Dump.Size()/1024, res.Samples)
			line := "phases:"
			for _, pt := range res.PhaseTimes {
				line += fmt.Sprintf(" %s=%s", pt.Phase, pt.Dur.Round(10*time.Microsecond))
			}
			fmt.Println(line)
		}
		printLifted(res)
	}

	for i, be := range chain {
		err := runBackend(be, k, inst, res, verbose)
		if err == nil {
			return nil
		}
		if strict {
			return fmt.Errorf("%s backend: %w (running -strict: degradation disabled)", be, err)
		}
		if i+1 == len(chain) {
			return fmt.Errorf("every backend failed; last (%s): %w", be, err)
		}
		fmt.Printf("fallback: %s backend failed: %v; degrading to %s\n", be, err, chain[i+1])
	}
	return nil
}

// runBackend verifies one backend and prints its success line.  The
// terminal "vm" backend re-emulates the binary and checks its output
// against the instance's pure-Go reference, needing no lifted result.
func runBackend(be string, k legacy.Kernel, inst *legacy.Instance, res *lift.Result, verbose bool) error {
	switch be {
	case "interp":
		if err := res.Verify(); err != nil {
			return err
		}
		fmt.Printf("verified: %d samples pixel-exact (interp backend)\n\n", res.Samples)
	case "compiled":
		ck, err := res.VerifyCompiled(0)
		if err != nil {
			return err
		}
		if verbose {
			progs := ck.Progs()
			insts, consts, loads := 0, 0, 0
			lanes := make([]int, 0, len(progs))
			for _, p := range progs {
				insts += p.NumInsts()
				consts += p.NumConsts()
				loads += p.NumLoads()
				lanes = append(lanes, p.LaneBits())
			}
			fmt.Printf("compiled: %d instruction(s), %d pooled constant(s), %d tap(s) across %d channel program(s) in %d stage(s), lane bits %v\n",
				insts, consts, loads, len(progs), len(res.Stages), lanes)
		}
		fmt.Printf("verified: %d samples pixel-exact (compiled backend)\n\n", res.Samples)
	case "generated":
		gk, _, err := evalGenerated(k.Name, res)
		if err != nil {
			return err
		}
		if verbose {
			lanes := gk.LaneBits
			for _, st := range gk.Stages {
				lanes = append(lanes, st.LaneBits...)
			}
			fmt.Printf("generated: package liftedkernels kernel %s, lane bits %v\n", gk.Name, lanes)
		}
		fmt.Printf("verified: %d samples pixel-exact (generated Go backend)\n\n", res.Samples)
	case "vm":
		m := vm.NewMachine(inst.Prog)
		inst.Setup(m, true)
		if err := m.Run(0); err != nil {
			return err
		}
		got := inst.ReadOutput(m)
		if !bytes.Equal(got, inst.Reference) {
			return fmt.Errorf("vm output differs from the pure-Go reference (%d samples)", len(got))
		}
		fmt.Printf("verified: %d samples pixel-exact (vm backend, direct emulation)\n\n", len(got))
	default:
		return fmt.Errorf("unknown backend %q", be)
	}
	return nil
}

// runGen regenerates (or, with -check, verifies) kernels.go, the
// ahead-of-time compiled half of the liftedkernels package, from the
// lifted corpus.
func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		out       = fs.String("out", filepath.Join("internal", "liftedkernels"), "package directory whose kernels.go is written")
		check     = fs.Bool("check", false, "verify the checked-in kernels.go matches instead of writing")
		width     = fs.Int("width", 40, "image width the corpus is lifted at")
		height    = fs.Int("height", 24, "image height the corpus is lifted at")
		seed      = fs.Uint64("seed", 1, "deterministic input pattern seed")
		schedPath = fs.String("schedules", "schedules.json", "tuned schedule set embedded as the generated kernels' default")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scheds, err := loadSchedules(*schedPath)
	if err != nil {
		return err
	}
	src, err := GenerateCorpusPackage(legacy.Config{Width: *width, Height: *height, Seed: *seed}, scheds)
	if err != nil {
		return err
	}

	path := filepath.Join(*out, "kernels.go")
	if *check {
		got, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w (run `helium gen` and commit the result)", path, err)
		}
		if !bytes.Equal(got, []byte(src)) {
			return fmt.Errorf("%s is stale: run `helium gen` and commit the result", path)
		}
		fmt.Printf("gen: %s is up to date\n", path)
		return nil
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		return err
	}
	fmt.Printf("gen: wrote %s (%d bytes)\n", path, len(src))
	return nil
}

// GenerateCorpusPackage lifts every corpus kernel at the given config and
// renders the generated half of the liftedkernels package, the source of
// kernels.go; runtime.go beside it is hand-written.  The tuned schedule
// set (nil = none) is embedded as each kernel's default schedule.
func GenerateCorpusPackage(cfg legacy.Config, scheds *schedule.Set) (string, error) {
	var units []ir.GenKernel
	for _, k := range legacy.Kernels() {
		inst := k.Instantiate(cfg)
		res, err := lift.Lift(k.Name, target(inst))
		if err != nil {
			return "", fmt.Errorf("%s: %w", k.Name, err)
		}
		u := ir.GenKernel{Name: k.Name, Sched: scheds.For(k.Name)}
		for i := range res.Stages {
			st := &res.Stages[i]
			if st.Red != nil {
				u.Red = st.Red
				// A reduction anywhere but last feeds later stages its
				// serialized table instead of ending the pipeline.
				u.RedFirst = i < len(res.Stages)-1
			} else {
				u.Stages = append(u.Stages, st.Kernel)
			}
		}
		units = append(units, u)
	}
	return ir.GenerateUnits("liftedkernels", units)
}

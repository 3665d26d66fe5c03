package lift_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"helium/internal/ir"
	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
	"helium/internal/trace"
	"helium/internal/vm"
)

var liftConfigs = []legacy.Config{
	{Width: 22, Height: 10, Seed: 1},
	{Width: 21, Height: 9, Seed: 7},  // odd width exercises the peeled remainders
	{Width: 32, Height: 16, Seed: 3}, // aligned width: planar buffers pack tightly
}

// target adapts a legacy instance to a lifting target.
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

// goldenIR pins the lifted, canonicalized definition of each corpus
// kernel, one entry per pipeline stage.  These strings are the pipeline's
// user-visible product: Halide-like update definitions recovered from the
// stripped binaries — including the multi-stage blur chain, the histogram
// reduction, and the branch-clamped sharpen collapsed to min/max.
var goldenIR = map[string][]string{
	"brighten": {"out(x, y, c) = lut[in(x, y)]"},
	"boxblur3": {"out(x, y, c) = ((in(x-1, y-1) + in(x-1, y) + in(x-1, y+1) + in(x, y-1) + in(x, y) + in(x, y+1) + in(x+1, y-1) + in(x+1, y) + in(x+1, y+1) + 4) / 9)"},
	"sharpen":  {"out(x, y, c) = min(max(round(((sqrt((float(in(x, y)) *. float(in(x, y)))) *. 5) -. (((float(in(x-1, y)) +. float(in(x+1, y))) +. float(in(x, y-1))) +. float(in(x, y+1))))), 0), 255)"},
	"blur2p": {
		"out(x, y, c) = ((in(x-1, y) + in(x, y) + in(x+1, y) + 1) / 3)",
		"out(x, y, c) = ((in(x, y-1) + in(x, y) + in(x, y+1) + 1) / 3)",
	},
	"hist256":      {"bins[in(x, y)] += 1"},
	"clampsharp":   {"out(x, y, c) = min(max((((((in(x, y) * 5) - in(x-1, y)) - in(x+1, y)) - in(x, y-1)) - in(x, y+1)), 0), 255)"},
	"downsample2x": {"out(x, y, c) = byte0(((in(x, y) + in(x, y+1) + in(x+1, y) + in(x+1, y+1) + 2) >> 2)) @ x' = 2*x, y' = 2*y"},
	"upsample2x":   {"out(x, y, c) = in(x, y) @ x' = (x)/2, y' = (y)/2"},
	"histeq": {
		"bins[(in(x, y) >> 3)..] += 1",
		"out(x, y, c) = byte0(((tbl[(in(x, y) >> 3)] * 255) / tbl[31]))",
	},
}

// axisIR renders one index map the way the goldens pin it (the same
// formula ir.AxisMap renders, with the axis named).
func axisIR(m ir.AxisMap, axis string) string {
	num, den, off := m.Norm()
	s := axis
	if num != 1 {
		s = fmt.Sprintf("%d*%s", num, axis)
	}
	if off != 0 {
		s = fmt.Sprintf("%s+%d", s, off)
	}
	if den != 1 {
		s = fmt.Sprintf("(%s)/%d", s, den)
	}
	return s
}

// stageIR renders one lifted stage the way the goldens pin it: cumulative
// reductions mark their suffix range, resize stages append their index
// maps.
func stageIR(st *lift.Stage) string {
	if st.Red != nil {
		if st.Red.Suffix {
			return fmt.Sprintf("bins[%s..] += %d", st.Red.Index, st.Red.Delta)
		}
		return fmt.Sprintf("bins[%s] += %d", st.Red.Index, st.Red.Delta)
	}
	s := fmt.Sprintf("out(x, y, c) = %s", st.Kernel.Trees[0])
	if st.Kernel.Mapped() {
		s += fmt.Sprintf(" @ x' = %s, y' = %s", axisIR(st.Kernel.MapX, "x"), axisIR(st.Kernel.MapY, "y"))
	}
	return s
}

// TestLiftEndToEnd runs the full pipeline on every corpus kernel and image
// size: localization must rediscover the ground-truth filter entry, all
// sample trees must collapse to a single canonical tree per channel, and
// evaluating the lifted IR must reproduce the VM's output pixel-exactly.
func TestLiftEndToEnd(t *testing.T) {
	for _, k := range legacy.Kernels() {
		for _, cfg := range liftConfigs {
			t.Run(fmt.Sprintf("%s/%s", k.Name, cfg), func(t *testing.T) {
				inst := k.Instantiate(cfg)
				res, err := lift.Lift(k.Name, target(inst))
				if err != nil {
					t.Fatalf("Lift: %v", err)
				}
				if res.Loc.FilterEntry != inst.FilterEntry {
					t.Errorf("localization found filter %#x, ground truth %#x (candidates %#x)",
						res.Loc.FilterEntry, inst.FilterEntry, res.Loc.Candidates)
				}
				if err := res.Verify(); err != nil {
					t.Errorf("Verify: %v", err)
				}
				if _, err := res.VerifyCompiled(0); err != nil {
					t.Errorf("VerifyCompiled: %v", err)
				}
				if res.Samples == 0 || res.TraceInsts == 0 {
					t.Errorf("implausible stats: %d samples, %d trace insts", res.Samples, res.TraceInsts)
				}
				// The flight recorder: every run of the full pipeline must
				// leave phase spans behind (Verify/VerifyCompiled above
				// accumulate theirs onto the same result).
				for _, p := range []lift.Phase{lift.PhaseLocalize, lift.PhaseTrace, lift.PhaseBuffers, lift.PhaseVerify, lift.PhaseCompile} {
					if res.PhaseDur(p) <= 0 {
						t.Errorf("phase %s has no recorded wall time", p)
					}
				}
			})
		}
	}
}

// TestLiftGoldenIR pins the printed IR of each lifted kernel, stage by
// stage — the multi-stage golden end-to-end check of the new corpus.
func TestLiftGoldenIR(t *testing.T) {
	for _, k := range legacy.Kernels() {
		t.Run(k.Name, func(t *testing.T) {
			inst := k.Instantiate(liftConfigs[0])
			res, err := lift.Lift(k.Name, target(inst))
			if err != nil {
				t.Fatalf("Lift: %v", err)
			}
			want := goldenIR[k.Name]
			if len(res.Stages) != len(want) {
				t.Fatalf("lifted %d stage(s), golden has %d", len(res.Stages), len(want))
			}
			for i := range res.Stages {
				st := &res.Stages[i]
				if got := stageIR(st); got != want[i] {
					t.Errorf("stage %d lifted IR drifted:\n got:  %s\n want: %s", i, got, want[i])
				}
				if st.Kernel == nil {
					continue
				}
				for c, tree := range st.Kernel.Trees[1:] {
					if tree.Key() != st.Kernel.Trees[0].Key() {
						t.Errorf("stage %d channel %d tree differs from channel 0", i, c+1)
					}
				}
			}
		})
	}
}

// TestLiftedKernelOnFreshInput checks that a lifted result generalizes:
// the whole stage chain is evaluated against a different image (new size
// and seed) and compared with the VM running the legacy binary on that
// same image.
func TestLiftedKernelOnFreshInput(t *testing.T) {
	for _, k := range legacy.Kernels() {
		t.Run(k.Name, func(t *testing.T) {
			res, err := lift.Lift(k.Name, target(k.Instantiate(liftConfigs[0])))
			if err != nil {
				t.Fatalf("Lift: %v", err)
			}
			fresh := k.Instantiate(legacy.Config{Width: 37, Height: 14, Seed: 99})
			fres, err := lift.Lift(k.Name, target(fresh))
			if err != nil {
				t.Fatalf("Lift(fresh): %v", err)
			}
			// The pipeline lifted from the first image, evaluated over the
			// fresh image's input, must match the fresh VM output.
			w, h := fres.EvalDims()
			want, err := fres.VMOutput()
			if err != nil {
				t.Fatalf("VMOutput: %v", err)
			}
			got, err := res.EvalIRAt(fres.InputSource(), w, h)
			if err != nil {
				t.Fatalf("EvalIRAt: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("lifted result does not generalize to a fresh input")
			}
			// The compiled backend must generalize identically on the
			// fused backing.
			c, err := res.Compile()
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			cgot, err := c.EvalAt(fres.MaterializeInput(), w, h)
			if err != nil {
				t.Fatalf("compiled EvalAt: %v", err)
			}
			if !bytes.Equal(cgot, want) {
				t.Errorf("compiled result does not generalize to a fresh input")
			}
		})
	}
}

// TestMaterializeInputCrossChannel pins the fallback for cross-channel
// taps: an interleaved kernel whose tap steps outside a pixel's own
// samples cannot be represented by a concrete Interleaved backing (the
// last channel would index past it), so MaterializeInput must hand back
// the dump-backed source — and evaluation must agree either way.
func TestMaterializeInputCrossChannel(t *testing.T) {
	dump := trace.NewMemDump(4096)
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i*7 + 3)
	}
	dump.Pages[0x1000] = page
	mk := func(dc int) *lift.Result {
		tree := ir.Load(0, 0, dc)
		in := lift.InputDesc{Base: 0x1100, Stride: 16, Channels: 3, Interleaved: true}
		k := &ir.Kernel{Name: "xchan", OutWidth: 3, OutHeight: 2, Channels: 3,
			Trees: []*ir.Expr{tree, tree.Clone(), tree.Clone()}}
		return &lift.Result{
			Dump:   dump,
			Bufs:   &lift.Buffers{In: in},
			Stages: []lift.Stage{{Kernel: k, In: in}},
			Kernel: k,
		}
	}

	res := mk(1)
	src := res.MaterializeInput()
	if _, fused := src.(ir.InterleavedSource); fused {
		t.Fatal("cross-channel tap must not materialize a fused interleaved backing")
	}
	want, err := res.Kernel.Eval(res.InputSource())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := res.Kernel.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ck.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("compiled eval over the fallback source differs from the interpreter")
	}

	// Channel-local taps still get the fused backing.
	if _, fused := mk(0).MaterializeInput().(ir.InterleavedSource); !fused {
		t.Error("channel-local taps should materialize a fused interleaved backing")
	}
}

// traceFor runs the front half of the pipeline (localize, trace,
// reconstruct) so extraction can be exercised directly.
func traceFor(t testing.TB, k legacy.Kernel, cfg legacy.Config) (lift.Target, *lift.Localization, *vm.TraceResult, *lift.Buffers) {
	inst := k.Instantiate(cfg)
	tgt := target(inst)
	loc, err := lift.Localize(tgt)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	m := vm.NewMachine(tgt.Prog)
	tgt.Setup(m, true)
	tres, err := m.RunTrace(vm.TraceOptions{FilterEntry: loc.FilterEntry})
	if err != nil {
		t.Fatalf("RunTrace: %v", err)
	}
	bufs, err := lift.ReconstructBuffers(tgt.Known, loc.MemTrace, tres.Dump)
	if err != nil {
		t.Fatalf("ReconstructBuffers: %v", err)
	}
	return tgt, loc, tres, bufs
}

// TestExtractWorkersDeterministic checks that the parallel extraction is
// oblivious to the worker count: every sample tree lands at the same
// position with the same structure and the same branch guards (condition
// keys and observed outcomes, in window order), although each worker
// interns its trees in its own expression table.
func TestExtractWorkersDeterministic(t *testing.T) {
	for _, k := range legacy.Kernels() {
		t.Run(k.Name, func(t *testing.T) {
			if k.Name == "hist256" {
				// A reduction has no per-sample trees to extract; its
				// recognizer is single-threaded by construction.
				t.Skip("reduction kernels do not go through sample extraction")
			}
			if k.Name == "histeq" {
				// The remap stage only extracts once Lift threads the
				// reduction's table descriptor into Buffers; the raw
				// ReconstructBuffers geometry here has no table stage.
				t.Skip("reduction-consuming kernels need the table descriptor Lift builds")
			}
			tgt, _, tres, bufs := traceFor(t, k, liftConfigs[0])
			guarded := 0
			serial, err := lift.ExtractWorkers(tres.Trace, tgt.Prog, bufs, 1)
			if err != nil {
				t.Fatalf("ExtractWorkers(1): %v", err)
			}
			for _, workers := range []int{2, 3, 8} {
				par, err := lift.ExtractWorkers(tres.Trace, tgt.Prog, bufs, workers)
				if err != nil {
					t.Fatalf("ExtractWorkers(%d): %v", workers, err)
				}
				if len(par) != len(serial) {
					t.Fatalf("ExtractWorkers(%d) returned %d trees, serial %d", workers, len(par), len(serial))
				}
				for i := range par {
					guarded += len(par[i].Guards)
					if par[i].X != serial[i].X || par[i].Y != serial[i].Y || par[i].C != serial[i].C {
						t.Fatalf("tree %d at (%d,%d,%d), serial (%d,%d,%d)", i,
							par[i].X, par[i].Y, par[i].C, serial[i].X, serial[i].Y, serial[i].C)
					}
					if par[i].Expr.Key() != serial[i].Expr.Key() {
						t.Fatalf("tree %d differs between %d workers and serial", i, workers)
					}
					if err := sameGuards(par[i].Guards, serial[i].Guards); err != nil {
						t.Fatalf("tree %d guards differ between %d workers and serial: %v", i, workers, err)
					}
				}
			}
			if k.Name == "clampsharp" && guarded == 0 {
				t.Error("the branch-clamped kernel extracted no guards; the guard comparison checked nothing")
			}
		})
	}
}

// sameGuards compares two samples' guard lists: same conditions (by
// stored key and by the condition tree's own key), same outcomes, same
// order.
func sameGuards(got, want []lift.Guard) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d guards, want %d", len(got), len(want))
	}
	for j := range got {
		g, w := got[j], want[j]
		if g.Key != w.Key || g.Cond.Key() != w.Cond.Key() || g.Key != g.Cond.Key() {
			return fmt.Errorf("guard %d is %s (key %s), want %s", j, g.Cond, g.Key, w.Cond)
		}
		if g.Taken != w.Taken {
			return fmt.Errorf("guard %d on %s taken=%v, want %v", j, g.Cond, g.Taken, w.Taken)
		}
	}
	return nil
}

// BenchmarkVMBoxBlur measures emulating the legacy box blur end to end.
func BenchmarkVMBoxBlur(b *testing.B) {
	k, _ := legacy.Lookup("boxblur3")
	inst := k.Instantiate(legacy.Config{Width: 64, Height: 64, Seed: 3})
	m := vm.NewMachine(inst.Prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Setup(m, true)
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIREvalBoxBlur measures evaluating the lifted box blur over the
// same image, the "recovered program" the pipeline produces.
func BenchmarkIREvalBoxBlur(b *testing.B) {
	k, _ := legacy.Lookup("boxblur3")
	inst := k.Instantiate(legacy.Config{Width: 64, Height: 64, Seed: 3})
	res, err := lift.Lift(k.Name, target(inst))
	if err != nil {
		b.Fatal(err)
	}
	src := res.InputSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Kernel.Eval(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIREvalBoxBlurPlane is the interpreter over the materialized
// plane backing — the honest tree-walking baseline for the compiled
// backend (no dump page lookups on either side).
func BenchmarkIREvalBoxBlurPlane(b *testing.B) {
	k, _ := legacy.Lookup("boxblur3")
	inst := k.Instantiate(legacy.Config{Width: 64, Height: 64, Seed: 3})
	res, err := lift.Lift(k.Name, target(inst))
	if err != nil {
		b.Fatal(err)
	}
	src := res.MaterializeInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Kernel.Eval(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledEvalBoxBlur measures the compiled register program over
// the same image, single-threaded with fused load addressing.
func BenchmarkCompiledEvalBoxBlur(b *testing.B) {
	k, _ := legacy.Lookup("boxblur3")
	inst := k.Instantiate(legacy.Config{Width: 64, Height: 64, Seed: 3})
	res, err := lift.Lift(k.Name, target(inst))
	if err != nil {
		b.Fatal(err)
	}
	ck, err := res.Kernel.Compile()
	if err != nil {
		b.Fatal(err)
	}
	ex := ck.NewExecutor(res.MaterializeInput())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Eval(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledCorpus measures the compiled backend against the
// checked-in generated kernel on every corpus kernel: the chain lifted at
// 128x96 and run serially through CompiledResult.EvalAt, and the
// generated kernel under its tuned schedule through EvalTunedInto, both
// on the same materialized input and reported per output sample.  The
// reduction-only hist256 has no register-program form, so only its
// generated case runs.  Each kernel is lifted once and both outputs are
// checked against the binary's before timing.
func BenchmarkCompiledCorpus(b *testing.B) {
	type corpusCase struct {
		c          *lift.CompiledResult // nil for reduction-only kernels
		gk         *liftedkernels.Kernel
		sc         liftedkernels.Scratch
		src        ir.Source
		img        liftedkernels.Image
		w, h, size int
	}
	for _, k := range legacy.Kernels() {
		prep := sync.OnceValues(func() (*corpusCase, error) {
			res, err := lift.Lift(k.Name, target(k.Instantiate(legacy.Config{Width: 128, Height: 96, Seed: 1})))
			if err != nil {
				return nil, err
			}
			want, err := res.VMOutput()
			if err != nil {
				return nil, err
			}
			cc := &corpusCase{src: res.MaterializeInput(), size: len(want)}
			cc.w, cc.h = res.EvalDims()
			if res.Kernel != nil {
				if cc.c, err = res.Compile(); err != nil {
					return nil, err
				}
				if got, err := cc.c.EvalAt(cc.src, cc.w, cc.h); err != nil || !bytes.Equal(got, want) {
					return nil, fmt.Errorf("compiled output differs from the binary's (err %v)", err)
				}
			}
			var ok bool
			if cc.gk, ok = liftedkernels.Lookup(k.Name); !ok {
				return nil, fmt.Errorf("%s is not in internal/liftedkernels", k.Name)
			}
			if cc.img, ok = lift.GenImage(cc.src); !ok {
				return nil, fmt.Errorf("%s: input is not a flat image", k.Name)
			}
			if got, err := cc.gk.EvalTunedInto(&cc.sc, &cc.img, cc.w, cc.h); err != nil || !bytes.Equal(got, want) {
				return nil, fmt.Errorf("generated output differs from the binary's (err %v)", err)
			}
			return cc, nil
		})
		b.Run(k.Name, func(b *testing.B) {
			cc, err := prep()
			if err != nil {
				b.Fatal(err)
			}
			b.Run("compiled", func(b *testing.B) {
				if cc.c == nil {
					b.Skip("reduction-only kernel: no register-program form")
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := cc.c.EvalAt(cc.src, cc.w, cc.h); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cc.size), "ns/sample")
			})
			b.Run("generated", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := cc.gk.EvalTunedInto(&cc.sc, &cc.img, cc.w, cc.h); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cc.size), "ns/sample")
			})
		})
	}
}

// BenchmarkExtract measures expression extraction alone; the worker pool
// follows GOMAXPROCS, so -cpu 1,2,4 shows the multi-core speedup.
func BenchmarkExtract(b *testing.B) {
	k, _ := legacy.Lookup("boxblur3")
	tgt, _, tres, bufs := traceFor(b, k, legacy.Config{Width: 32, Height: 16, Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lift.ExtractWorkers(tres.Trace, tgt.Prog, bufs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiftPipeline measures the whole pipeline, trace to verified IR.
func BenchmarkLiftPipeline(b *testing.B) {
	k, _ := legacy.Lookup("brighten")
	inst := k.Instantiate(legacy.Config{Width: 32, Height: 16, Seed: 3})
	tgt := target(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lift.Lift(k.Name, tgt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiftSharpen measures the whole pipeline on the corpus kernel
// with the most per-sample slicing and canonicalization work (3
// interleaved channels, a 37-node float tree per sample) at the
// benchmark-of-record geometry.
func BenchmarkLiftSharpen(b *testing.B) {
	k, _ := legacy.Lookup("sharpen")
	inst := k.Instantiate(legacy.Config{Width: 64, Height: 48, Seed: 1})
	tgt := target(inst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lift.Lift(k.Name, tgt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCorpusTraceDefs checks every Def link of the nine corpus traces at
// the benchmark-of-record geometry against a reference replay: a plain
// byte-to-writer map updated after each record, so each source and
// address ref must name the latest earlier writer of any of its bytes.
// FinalWriter must then agree with the map on every written byte.
func TestCorpusTraceDefs(t *testing.T) {
	for _, k := range legacy.Kernels() {
		tgt := target(k.Instantiate(legacy.Config{Width: 64, Height: 48, Seed: 1}))
		loc, err := lift.Localize(tgt)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		m := vm.NewMachine(tgt.Prog)
		tgt.Setup(m, true)
		res, err := m.RunTrace(vm.TraceOptions{FilterEntry: loc.FilterEntry})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		tr := res.Trace
		writer := map[uint64]int32{}
		refs := 0
		check := func(seq int, r trace.Ref) {
			var want int32
			if r.Space != trace.SpaceImm && r.Space != trace.SpaceNone {
				for b := uint64(0); b < uint64(r.Width); b++ {
					want = max(want, writer[r.Addr+b])
				}
			}
			if r.Def != want {
				t.Fatalf("%s: record %d ref %v: Def = %d, want %d", k.Name, seq, r, r.Def, want)
			}
			refs++
		}
		for seq := 0; seq < tr.Len(); seq++ {
			di := tr.At(seq)
			for _, r := range tr.AddrRefs(di) {
				check(seq, r)
			}
			effects := tr.Effects(di)
			for i := range effects {
				for _, r := range tr.Srcs(&effects[i]) {
					check(seq, r)
				}
			}
			for _, ef := range effects {
				if d := ef.Dst; d.Space != trace.SpaceImm && d.Space != trace.SpaceNone {
					for b := uint64(0); b < uint64(d.Width); b++ {
						writer[d.Addr+b] = int32(seq) + 1
					}
				}
			}
		}
		for a, def := range writer {
			if w, ok := tr.FinalWriter(a, 1); !ok || w != int(def)-1 {
				t.Fatalf("%s: FinalWriter(%#x, 1) = (%d,%v), want (%d,true)", k.Name, a, w, ok, def-1)
			}
		}
		t.Logf("%s: %d records, %d refs linked", k.Name, tr.Len(), refs)
	}
}

// BenchmarkTraceSharpen measures the instruction trace capture of the
// sharpen filter at the benchmark-of-record geometry: the traced VM run
// and the def links the trace resolves as each record arrives.
func BenchmarkTraceSharpen(b *testing.B) {
	k, _ := legacy.Lookup("sharpen")
	inst := k.Instantiate(legacy.Config{Width: 64, Height: 48, Seed: 1})
	tgt := target(inst)
	loc, err := lift.Localize(tgt)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.NewMachine(tgt.Prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tgt.Setup(m, true)
		if _, err := m.RunTrace(vm.TraceOptions{FilterEntry: loc.FilterEntry}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalizeSharpen measures code localization of the sharpen
// filter at the benchmark-of-record geometry.
func BenchmarkLocalizeSharpen(b *testing.B) {
	k, _ := legacy.Lookup("sharpen")
	tgt := target(k.Instantiate(legacy.Config{Width: 64, Height: 48, Seed: 1}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lift.Localize(tgt); err != nil {
			b.Fatal(err)
		}
	}
}

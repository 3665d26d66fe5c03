package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"helium/internal/fuzzgen"
	"helium/internal/ir"
	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
)

// The corpus geometry: 3072 samples per plane, enough that per-sample
// phases (trace, extract, canon) outweigh the fixed costs of a lift.
const corpusW, corpusH = 64, 48

// fuzzBlock is the lift-fuzz seed range one pass covers.  Outcome counts
// and verified_frac are taken over exactly one pass, so they repeat
// exactly at a seed.  A block this wide holds enough of every shape that
// the slowest 1% of cases (the p99) and the largest working set (the heap
// peak) do not rest on a few generated programs.
const fuzzBlock = 1024

// The emulation budgets fuzzgen.Run applies; the traced decomposition of
// Run must use the same.
const (
	fuzzMaxSteps      = 20_000_000
	fuzzMaxTraceInsts = 2_000_000
)

// setupReps is how many times lift-fuzz builds its inputs, and
// corpusSetupReps how many times lift-corpus does; setup_s is the
// median.  A build takes milliseconds (the corpus's about one), so many
// repeats keep one GC cycle or scheduler hiccup from setting the figure.
const (
	setupReps       = 25
	corpusSetupReps = 401
)

func target(inst *legacy.Instance, maxSteps uint64, maxTrace int) lift.Target {
	return lift.Target{
		Prog:  inst.Prog,
		Setup: inst.Setup,
		Known: lift.KnownInput{
			Width: inst.Width, Height: inst.Height, Channels: inst.Channels,
			Interleaved: inst.Interleaved, Interior: inst.InputInterior,
		},
		MaxSteps:      maxSteps,
		MaxTraceInsts: maxTrace,
	}
}

// genImage maps a lifted input source onto the generated package's flat
// image geometry.
func genImage(src ir.Source) (*liftedkernels.Image, error) {
	switch s := src.(type) {
	case ir.PlaneSource:
		pix, base, stride := s.P.Flat()
		return &liftedkernels.Image{Pix: pix, Base: base, Stride: stride, PixStep: 1}, nil
	case ir.InterleavedSource:
		pix, base, stride, step := s.Im.Flat()
		return &liftedkernels.Image{Pix: pix, Base: base, Stride: stride, PixStep: step, ChanStep: 1}, nil
	}
	return nil, fmt.Errorf("input source %T has no flat form", src)
}

// liftTrace accumulates the lift layer's spans over a traced segment.
type liftTrace struct {
	ops      int
	calls    map[string]time.Duration // per layer call, summed
	phases   map[lift.Phase]time.Duration
	liftSpan time.Duration // sum of the phases Lift recorded, successful lifts
	liftWall time.Duration // Lift's wall time, successful lifts
	insts    int
	steps    uint64
	samples  int
}

func newLiftTrace() *liftTrace {
	return &liftTrace{calls: map[string]time.Duration{}, phases: map[lift.Phase]time.Duration{}}
}

// timed runs f, adds its wall time to the named call and returns it.  A
// nil trace only runs f.
func (t *liftTrace) timed(call string, f func()) time.Duration {
	if t == nil {
		f()
		return 0
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.calls[call] += d
	return d
}

// lifted records a successful lift's counts, the phases it recorded and
// its wall time d.
func (t *liftTrace) lifted(res *lift.Result, d time.Duration) {
	for _, pt := range res.PhaseTimes {
		t.liftSpan += pt.Dur
	}
	t.liftWall += d
	t.insts += res.TraceInsts
	t.steps += res.TraceSteps
	t.samples += res.Samples
}

// finished records the phases of a result the pipeline is done with.
func (t *liftTrace) finished(res *lift.Result) {
	for _, pt := range res.PhaseTimes {
		t.phases[pt.Phase] += pt.Dur
	}
}

// layers reports the lift and vm layer metrics, per op.
func (t *liftTrace) layers(r *report) {
	n := float64(max(t.ops, 1))
	total := time.Duration(0)
	for _, p := range lift.Phases() {
		r.set("lift.phase."+string(p)+"_ms", "ms", ms(t.phases[p])/n)
		total += t.phases[p]
	}
	for _, c := range []string{"Lift", "Verify", "VerifyCompiled"} {
		r.set("lift.call."+c+"_ms", "ms", ms(t.calls["lift."+c])/n)
	}
	r.set("lift.trace_insts", "count", float64(t.insts))
	r.set("lift.trace_steps", "count", float64(t.steps))
	r.set("lift.samples", "count", float64(t.samples))
	if t.steps > 0 {
		r.set("vm.trace_ns_per_step", "ns", float64(t.phases[lift.PhaseTrace])/float64(t.steps))
	}
	shares := map[string]float64{}
	for _, p := range lift.Phases() {
		shares[string(p)] = float64(t.phases[p]) / float64(max(total, 1))
	}
	r.Notes["lift_phase_shares"] = shares

	// Parts against the whole: a successful lift's phase spans cover its
	// wall time except untimed glue (machine setup, stage bookkeeping).
	if frac := float64(t.liftSpan) / float64(max(t.liftWall, 1)); frac < 0.9 || frac > 1.0001 {
		r.problem("lift phase sum is %.3f of lift.Lift's wall time (want 0.90..1.00)", frac)
	} else {
		r.Notes["check.lift_phase_sum_frac"] = frac
	}
}

// ---- lift-corpus ----

// corpusOp lifts one corpus kernel, verifies it on the interpreter and
// every compiled path, and demands the checked-in generated kernel
// reproduce the binary's own output.  t may be nil (untraced).
func corpusOp(inst *legacy.Instance, sc *liftedkernels.Scratch, t *liftTrace) (res *lift.Result, c *lift.CompiledResult, err error) {
	d := t.timed("lift.Lift", func() { res, err = lift.Lift(inst.Name, target(inst, 0, 0)) })
	if err != nil {
		return nil, nil, err
	}
	if t != nil {
		t.lifted(res, d)
		defer t.finished(res)
	}
	t.timed("lift.Verify", func() { err = res.Verify() })
	if err != nil {
		return nil, nil, err
	}
	t.timed("lift.VerifyCompiled", func() { c, err = res.VerifyCompiled(0) })
	if err != nil {
		return nil, nil, err
	}
	gk, ok := liftedkernels.Lookup(inst.Name)
	if !ok {
		return nil, nil, fmt.Errorf("%s: no generated kernel", inst.Name)
	}
	img, err := genImage(res.MaterializeInput())
	if err != nil {
		return nil, nil, err
	}
	w, h := res.EvalDims()
	got, err := gk.EvalTunedInto(sc, img, w, h)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: generated eval: %w", inst.Name, err)
	}
	want, err := res.VMOutput()
	if err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(got, want) {
		return nil, nil, fmt.Errorf("%s: generated kernel output differs from the binary's", inst.Name)
	}
	return res, c, nil
}

func corpusInputs(seed uint64) []*legacy.Instance { return corpusInputsAt(seed, corpusW, corpusH) }

func corpusInputsAt(seed uint64, w, h int) []*legacy.Instance {
	var insts []*legacy.Instance
	for _, k := range legacy.Kernels() {
		insts = append(insts, k.Instantiate(legacy.Config{Width: w, Height: h, Seed: seed}))
	}
	return insts
}

// lifted is one verified corpus kernel kept from a traced pass.
type lifted struct {
	name string
	res  *lift.Result
	c    *lift.CompiledResult
}

// corpusPasses runs whole corpus passes until budget is spent (at least
// one) and returns each pass's wall time and op latencies (ms).  A traced
// call (t non-nil) runs exactly one pass and also returns each kernel's
// verified result.
func corpusPasses(insts []*legacy.Instance, budget time.Duration, r *report, t *liftTrace) (passes []float64, lats [][]float64, kept []lifted) {
	sc := new(liftedkernels.Scratch)
	start := time.Now()
	for len(passes) == 0 || (t == nil && time.Since(start) < budget) {
		p0 := time.Now()
		var pass []float64
		for _, inst := range insts {
			t0 := time.Now()
			res, c, err := corpusOp(inst, sc, t)
			lat := time.Since(t0)
			r.op(err)
			if t != nil {
				t.ops++
				r.set("lift.kernel."+inst.Name+"_ms", "ms", ms(lat))
				if err == nil {
					kept = append(kept, lifted{inst.Name, res, c})
				}
			}
			pass = append(pass, ms(lat))
		}
		passes = append(passes, time.Since(p0).Seconds())
		lats = append(lats, pass)
	}
	return passes, lats, kept
}

func runLiftCorpus(o opts) (*report, error) {
	r := newReport()
	var insts []*legacy.Instance
	var setups []float64
	for range corpusSetupReps {
		t0 := time.Now()
		insts = corpusInputs(o.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}

	runtime.GC()
	if !o.trace {
		heap := startHeapPeak()
		t0 := time.Now()
		passes, lats, _ := corpusPasses(insts, o.seconds, r, nil)
		span := time.Since(t0)
		peak := heap.Stop()
		// Latency quantiles are taken per pass, then the median over
		// passes: a pass is a fixed mix of nine kernels whose costs differ
		// tenfold, so a quantile over all ops would jump between kernels
		// as the pass count changes.
		var p50s, p99s []float64
		for _, l := range lats {
			p50s, p99s = append(p50s, quantile(l, 0.50)), append(p99s, quantile(l, 0.99))
		}
		ok := r.Attempted - r.Failed
		r.set("setup_s", "s", median(setups))
		r.set("lift_pass_s", "s", median(passes))
		r.set("throughput_per_s", "1/s", float64(ok)/span.Seconds())
		r.set("latency_p50_ms", "ms", median(p50s))
		r.set("latency_p99_ms", "ms", median(p99s))
		r.set("verified_frac", "frac", float64(ok)/float64(r.Attempted))
		r.set("heap_peak_mb", "MB", peak)
		r.Notes["pass_s"] = passes
		r.Notes["latency_samples"] = r.Attempted
		return r, nil
	}

	// Traced: untraced passes for the overhead baseline, then one traced
	// pass, so the counts are one pass's.
	untraced, _, _ := corpusPasses(insts, o.seconds/2, r, nil)
	t := newLiftTrace()
	before := readRT()
	traced, _, kept := corpusPasses(insts, 0, r, t)
	r.runtimeLayer(before, readRT(), len(insts))
	t.layers(r)
	r.set("obs.trace_overhead_frac", "frac", traced[0]/median(untraced)-1)
	if err := irLayer(kept, r); err != nil {
		return nil, err
	}
	return r, nil
}

// irLayer times the interpreter and the compiled executor per sample on
// each verified corpus kernel's lifted input, outside any op, and reports
// the geomeans.  Each output is held to the binary's own bytes.
func irLayer(kept []lifted, r *report) error {
	var interp, compiled []float64
	for _, k := range kept {
		res, c := k.res, k.c
		want, err := res.VMOutput()
		if err != nil {
			return err
		}
		src := res.MaterializeInput()
		w, h := res.EvalDims()
		for _, be := range []struct {
			ns   *[]float64
			eval func() ([]byte, error)
		}{
			{&interp, func() ([]byte, error) { return res.EvalIRAt(src, w, h) }},
			{&compiled, func() ([]byte, error) { return c.EvalAt(src, w, h) }},
		} {
			var out []byte
			d := medianDur(3, func() { out, err = be.eval() })
			if err != nil || !bytes.Equal(out, want) {
				return fmt.Errorf("%s: ir evaluation differs from the binary (%v)", k.name, err)
			}
			*be.ns = append(*be.ns, float64(d)/float64(len(out)))
		}
	}
	r.set("ir.interp_ns_per_sample", "ns", geomean(interp))
	r.set("ir.compiled_ns_per_sample", "ns", geomean(compiled))
	return nil
}

// ---- lift-fuzz ----

func fuzzSpecs(seed uint64) []fuzzgen.Spec {
	specs := make([]fuzzgen.Spec, fuzzBlock)
	for i := range specs {
		specs[i] = fuzzgen.NewSpec(seed + uint64(i))
	}
	return specs
}

// fuzzVerdict is one case's outcome as the harness classifies it.
type fuzzVerdict struct {
	outcome fuzzgen.Outcome
	phase   lift.Phase
}

func (v fuzzVerdict) key() string {
	switch v.outcome {
	case fuzzgen.OutcomeVerified:
		return "verified"
	case fuzzgen.OutcomeRejected:
		return "rejected." + string(v.phase)
	}
	return "out_of_contract"
}

// fuzzStages is fuzzgen.Run taken apart into its layer calls, each timed:
// build the binary, emulate it for ground truth, lift, verify on the
// interpreter and the compiled paths, hold the interpreter to the
// generator's reference, and generate Go source.
func fuzzStages(spec fuzzgen.Spec, t *liftTrace) (v fuzzVerdict) {
	defer func() {
		if p := recover(); p != nil {
			v = fuzzVerdict{outcome: fuzzgen.OutcomePanicked}
		}
	}()
	var inst *legacy.Instance
	var err error
	t.timed("fuzzgen.Build", func() { inst, err = fuzzgen.Build(spec) })
	if err != nil {
		return fuzzVerdict{outcome: fuzzgen.OutcomeGeneratorBug}
	}
	var got []byte
	t.timed("vm.RunVMBounded", func() { got, err = inst.RunVMBounded(fuzzMaxSteps) })
	if err != nil || !bytes.Equal(got, inst.Reference) {
		return fuzzVerdict{outcome: fuzzgen.OutcomeGeneratorBug}
	}
	classify := func(err error) fuzzVerdict {
		if rej, ok := lift.AsRejection(err); ok {
			return fuzzVerdict{outcome: fuzzgen.OutcomeRejected, phase: rej.Phase}
		}
		return fuzzVerdict{outcome: fuzzgen.OutcomeUntypedError}
	}
	var res *lift.Result
	d := t.timed("lift.Lift", func() { res, err = lift.Lift(spec.Name(), target(inst, fuzzMaxSteps, fuzzMaxTraceInsts)) })
	if err != nil {
		return classify(err)
	}
	t.lifted(res, d)
	defer t.finished(res)
	t.timed("lift.Verify", func() { err = res.Verify() })
	if err != nil {
		return classify(err)
	}
	t.timed("lift.VerifyCompiled", func() { _, err = res.VerifyCompiled(2) })
	if err != nil {
		return classify(err)
	}
	t.timed("ir.EvalIR", func() { got, err = res.EvalIR() })
	if err != nil {
		return fuzzVerdict{outcome: fuzzgen.OutcomeUntypedError}
	}
	if !bytes.Equal(got, inst.Reference) {
		return fuzzVerdict{outcome: fuzzgen.OutcomeWrongAnswer}
	}
	unit := ir.GenKernel{Name: "fuzzcase"}
	for i := range res.Stages {
		if st := &res.Stages[i]; st.Red != nil {
			unit.Red, unit.RedFirst = st.Red, i < len(res.Stages)-1
		} else {
			unit.Stages = append(unit.Stages, st.Kernel)
		}
	}
	t.timed("ir.GenerateUnits", func() { _, err = ir.GenerateUnits("fuzzcase", []ir.GenKernel{unit}) })
	if err != nil {
		return fuzzVerdict{outcome: fuzzgen.OutcomeUntypedError}
	}
	return fuzzVerdict{outcome: fuzzgen.OutcomeVerified}
}

func verdictOf(rep fuzzgen.Report) fuzzVerdict {
	return fuzzVerdict{outcome: rep.Outcome, phase: rep.Phase}
}

// fuzzErr fails a case whose outcome is neither verified nor a typed
// rejection.
func fuzzErr(spec fuzzgen.Spec, v fuzzVerdict) error {
	if v.outcome == fuzzgen.OutcomeVerified || v.outcome == fuzzgen.OutcomeRejected {
		return nil
	}
	return fmt.Errorf("%s: outcome %s is outside the verified-or-rejected contract", spec.Name(), v.outcome)
}

// fuzzCase is one spec's first-pass verdict and fuzzgen.Run wall time.
type fuzzCase struct {
	v   fuzzVerdict
	lat time.Duration
}

// fuzzPasses runs fuzzgen.Run over whole passes of the spec block until
// budget is spent (at least one); first holds the first pass's cases.
func fuzzPasses(specs []fuzzgen.Spec, budget time.Duration, r *report) (passes []float64, rec *windowed, first []fuzzCase) {
	rec = newWindowed(1, budget)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		p0 := time.Now()
		for _, spec := range specs {
			t0 := time.Now()
			v := verdictOf(fuzzgen.Run(spec))
			lat := time.Since(t0)
			err := fuzzErr(spec, v)
			r.op(err)
			rec.add(time.Since(start), lat, err == nil)
			if pass == 0 {
				first = append(first, fuzzCase{v, lat})
			}
		}
		passes = append(passes, time.Since(p0).Seconds())
	}
	return passes, rec, first
}

func verdictCounts(cases []fuzzCase) map[string]int {
	n := map[string]int{}
	for _, c := range cases {
		n[c.v.key()]++
	}
	return n
}

func runLiftFuzz(o opts) (*report, error) {
	r := newReport()
	var specs []fuzzgen.Spec
	var setups []float64
	for range setupReps {
		t0 := time.Now()
		specs = fuzzSpecs(o.seed)
		for _, spec := range specs {
			if _, err := fuzzgen.Build(spec); err != nil {
				return nil, fmt.Errorf("building %s: %w", spec.Name(), err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	runtime.GC()
	if !o.trace {
		heap := startHeapPeak()
		t0 := time.Now()
		passes, rec, first := fuzzPasses(specs, o.seconds, r)
		span := time.Since(t0)
		peak := heap.Stop()
		verdicts := verdictCounts(first)
		r.set("setup_s", "s", median(setups))
		r.set("lift_pass_s", "s", median(passes))
		// Whole passes, not windows: a window covers an arbitrary slice of
		// the block, whose cases differ in cost, and too few cases for a
		// p99.
		r.set("throughput_per_s", "1/s", rec.rates(span)[0])
		r.set("latency_p50_ms", "ms", rec.quantileMS(0.50))
		r.set("latency_p99_ms", "ms", rec.quantileMS(0.99))
		r.set("verified_frac", "frac", float64(verdicts["verified"])/float64(len(specs)))
		r.set("heap_peak_mb", "MB", peak)
		r.Notes["pass_s"] = passes
		_, all := rec.counts()
		r.Notes["latency_samples"] = all
		r.Notes["verdicts"] = verdicts
		return r, nil
	}

	// Traced: untraced passes of fuzzgen.Run, then one pass of Run taken
	// apart into timed layer calls.
	untraced, _, first := fuzzPasses(specs, o.seconds/2, r)
	before := readRT()
	traced := fuzzTraced(r, specs, first)
	r.runtimeLayer(before, readRT(), len(specs))
	r.set("obs.trace_overhead_frac", "frac", traced.Seconds()/untraced[0]-1)
	return r, nil
}

// fuzzTraced runs one pass of specs with fuzzgen.Run taken apart into
// timed layer calls and reports the fuzzgen, vm, lift and ir layers.
// first is fuzzgen.Run's pass over the same specs: each case's
// decomposed verdict must equal Run's, and the parts must add up to
// Run's time on the same cases.  It returns the traced pass's time.
func fuzzTraced(r *report, specs []fuzzgen.Spec, first []fuzzCase) time.Duration {
	t := newLiftTrace()
	var traced, whole time.Duration
	for i, spec := range specs {
		t0 := time.Now()
		v := fuzzStages(spec, t)
		traced += time.Since(t0)
		t.ops++
		r.op(fuzzErr(spec, v))
		if v != first[i].v {
			r.problem("%s: decomposed pipeline says %s, fuzzgen.Run says %s", spec.Name(), v.key(), first[i].v.key())
		}
		whole += first[i].lat
	}
	t.layers(r)
	n := float64(len(specs))
	for _, c := range []string{"fuzzgen.Build", "vm.RunVMBounded", "ir.EvalIR", "ir.GenerateUnits"} {
		r.set(strings.Replace(c, ".", ".call.", 1)+"_ms", "ms", ms(t.calls[c])/n)
	}
	r.set("fuzzgen.call.Run_ms", "ms", ms(whole)/n)
	verdicts := verdictCounts(first)
	r.set("fuzzgen.outcome.verified", "count", float64(verdicts["verified"]))
	for _, p := range lift.Phases() {
		r.set("fuzzgen.outcome.rejected."+string(p), "count", float64(verdicts["rejected."+string(p)]))
	}
	r.set("fuzzgen.outcome.out_of_contract", "count", float64(verdicts["out_of_contract"]))

	parts := time.Duration(0)
	for _, c := range []string{"fuzzgen.Build", "vm.RunVMBounded", "lift.Lift", "lift.Verify", "lift.VerifyCompiled", "ir.EvalIR", "ir.GenerateUnits"} {
		parts += t.calls[c]
	}
	if frac := float64(parts) / float64(whole); frac < 0.8 || frac > 1.2 {
		r.problem("fuzz layer calls sum to %.3f of fuzzgen.Run (want 0.80..1.20)", frac)
	} else {
		r.Notes["check.fuzz_parts_frac"] = frac
	}
	return traced
}

package fuzzgen

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"

	"helium/internal/ir"
	"helium/internal/legacy"
	"helium/internal/lift"
)

// Emulation budgets: the generated programs are tiny, so anything that
// busts these is a hang, not a slow kernel.
const (
	maxSteps      = 20_000_000
	maxTraceInsts = 2_000_000
)

// Outcome classifies one fuzz case.  The pipeline's contract admits
// exactly two: Verified and Rejected.  Everything else is a bug the
// harness fails on — or, for GeneratorBug, a bug in the fuzzer itself.
type Outcome int

const (
	// OutcomeVerified: the pipeline lifted the binary and every backend
	// (interpreter, compiled serial/parallel/fused, generated source)
	// reproduced the VM's output bit-exactly.
	OutcomeVerified Outcome = iota
	// OutcomeRejected: the pipeline returned a typed *lift.Rejection
	// naming the phase that gave up.
	OutcomeRejected
	// OutcomeGeneratorBug: the generated binary itself misbehaved (build
	// error, or its VM output disagrees with the pure-Go reference); the
	// pipeline was never at fault.
	OutcomeGeneratorBug
	// OutcomePanicked: some pipeline stage panicked.
	OutcomePanicked
	// OutcomeUntypedError: the pipeline failed with an error that is not
	// a typed rejection.
	OutcomeUntypedError
	// OutcomeWrongAnswer: the pipeline claimed success but its output
	// differs from the reference — the worst failure class.
	OutcomeWrongAnswer
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeVerified:
		return "verified"
	case OutcomeRejected:
		return "rejected"
	case OutcomeGeneratorBug:
		return "generator-bug"
	case OutcomePanicked:
		return "panicked"
	case OutcomeUntypedError:
		return "untyped-error"
	case OutcomeWrongAnswer:
		return "wrong-answer"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Report is the harness verdict on one spec.
type Report struct {
	Spec    Spec
	Outcome Outcome
	// Phase is the rejecting pipeline phase (OutcomeRejected only).
	Phase lift.Phase
	// Err is the diagnostic or failure detail (nil for OutcomeVerified).
	Err error
}

// Ok reports whether the outcome is within the pipeline's contract.
func (r Report) Ok() bool {
	return r.Outcome == OutcomeVerified || r.Outcome == OutcomeRejected
}

// String renders the report for logs.
func (r Report) String() string {
	s := fmt.Sprintf("%s: %s", r.Spec.Name(), r.Outcome)
	if r.Outcome == OutcomeRejected {
		s += fmt.Sprintf(" at %s", r.Phase)
	}
	if r.Err != nil {
		s += fmt.Sprintf(": %v", r.Err)
	}
	return s
}

// Run drives the full pipeline against one spec and classifies the
// result: generate, emulate for ground truth, lift, verify every backend,
// and generate compilable Go source.  Panics anywhere in the pipeline are
// caught and reported, never propagated.
func Run(spec Spec) Report {
	inst, err := Build(spec)
	if err != nil {
		return Report{Spec: spec, Outcome: OutcomeGeneratorBug, Err: err}
	}

	// Ground truth: the binary itself must behave before the pipeline is
	// judged against it.
	got, err := inst.RunVMBounded(maxSteps)
	if err != nil {
		return Report{Spec: spec, Outcome: OutcomeGeneratorBug, Err: fmt.Errorf("vm run: %w", err)}
	}
	if !bytes.Equal(got, inst.Reference) {
		return Report{Spec: spec, Outcome: OutcomeGeneratorBug,
			Err: fmt.Errorf("vm output disagrees with the Go reference (%d/%d bytes differ)", diffCount(got, inst.Reference), len(inst.Reference))}
	}

	rep := Report{Spec: spec}
	err = runPipeline(spec, inst, &rep)
	if rep.Outcome == OutcomePanicked {
		return rep
	}
	return classify(rep, err)
}

// classify folds a pipeline error into the report.
func classify(rep Report, err error) Report {
	if err == nil {
		rep.Outcome = OutcomeVerified
		return rep
	}
	if rej, ok := lift.AsRejection(err); ok {
		rep.Outcome = OutcomeRejected
		rep.Phase = rej.Phase
		rep.Err = rej
		return rep
	}
	rep.Outcome = OutcomeUntypedError
	rep.Err = err
	return rep
}

// target is the lift target of a built instance, under the harness's
// emulation budgets.
func target(inst *legacy.Instance) lift.Target {
	return lift.Target{
		Prog:  inst.Prog,
		Setup: inst.Setup,
		Known: lift.KnownInput{
			Width: inst.Width, Height: inst.Height, Channels: inst.Channels,
			Interleaved: inst.Interleaved, Interior: inst.InputInterior,
		},
		MaxSteps:      maxSteps,
		MaxTraceInsts: maxTraceInsts,
	}
}

// runPipeline performs lift + all-backend verification, converting panics
// into the report.  A non-nil error return is classified by the caller; a
// report already marked is final.
func runPipeline(spec Spec, inst *legacy.Instance, rep *Report) (err error) {
	defer func() {
		if r := recover(); r != nil {
			rep.Outcome = OutcomePanicked
			rep.Err = fmt.Errorf("pipeline panic: %v", r)
		}
	}()

	res, err := lift.Lift(spec.Name(), target(inst))
	if err != nil {
		return err
	}

	// Interpreter backend, checked stage by stage against the dump.
	if err := res.Verify(); err != nil {
		return err
	}
	// Compiled backend on both input paths (fused and generic).
	if _, err := res.VerifyCompiled(0); err != nil {
		return err
	}

	// The pipeline verified itself against the VM dump; now hold it to
	// the generator's independent reference.  A mismatch here means
	// "verified but wrong" — the failure class the paper's differential
	// testing exists to rule out.
	out, err := res.EvalIR()
	if err != nil {
		return fmt.Errorf("evaluating the verified pipeline: %w", err)
	}
	if !bytes.Equal(out, inst.Reference) {
		rep.Outcome = OutcomeWrongAnswer
		rep.Err = fmt.Errorf("verified pipeline disagrees with the reference (%d/%d bytes differ)", diffCount(out, inst.Reference), len(inst.Reference))
		return nil
	}

	// Generated-source backend: render the Go package for this kernel and
	// demand it parses (full compile+run per case is the nightly job's
	// budget, not the smoke corpus's).
	unit := ir.GenKernel{Name: "fuzzcase"}
	for i := range res.Stages {
		st := &res.Stages[i]
		if st.Red != nil {
			unit.Red = st.Red
			unit.RedFirst = i < len(res.Stages)-1
		} else {
			unit.Stages = append(unit.Stages, st.Kernel)
		}
	}
	src, err := ir.GenerateUnits("fuzzcase", []ir.GenKernel{unit})
	if err != nil {
		return fmt.Errorf("codegen: %w", err)
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "fuzzcase.go", src, 0); err != nil {
		return fmt.Errorf("codegen emitted unparsable Go: %w", err)
	}
	return nil
}

// diffCount counts differing bytes over the common prefix plus the length
// difference.
func diffCount(a, b []byte) int {
	n := min(len(a), len(b))
	d := max(len(a), len(b)) - n
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

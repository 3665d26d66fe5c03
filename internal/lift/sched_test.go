package lift_test

import (
	"bytes"
	"testing"

	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
)

// Schedules run only on the generated runtime, so these tests lift each
// kernel and execute the checked-in generated code for it under explicit
// schedule specs, holding it to the legacy binary's own output.

// TestScheduledCorpusMatchesVM runs every corpus kernel under a spread of
// schedules — materialize with explicit tiles, and (for
// multi-stage pipelines) sliding-window fusion at several window sizes —
// and demands byte-exact agreement with the legacy binary's own output.
// This is the schedule layer's core contract: a schedule changes only the
// execution strategy, never the result.
func TestScheduledCorpusMatchesVM(t *testing.T) {
	cfg := legacy.Config{Width: 30, Height: 19, Seed: 5}
	for _, k := range legacy.Kernels() {
		inst := k.Instantiate(cfg)
		res, err := lift.Lift(k.Name, target(inst))
		if err != nil {
			t.Fatalf("%s: lift: %v", k.Name, err)
		}
		if _, err := res.VerifyCompiled(0); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		gk, ok := liftedkernels.Lookup(k.Name)
		if !ok {
			t.Fatalf("%s: not in the generated registry (run `helium gen`)", k.Name)
		}
		img, ok := lift.GenImage(res.MaterializeInput())
		if !ok {
			t.Fatalf("%s: input cannot be materialized", k.Name)
		}
		want, err := res.VMOutput()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		tiles := func(tw, th int) []liftedkernels.StageSched {
			st := make([]liftedkernels.StageSched, max(len(gk.Stages), 1))
			for i := range st {
				st[i] = liftedkernels.StageSched{TileW: tw, TileH: th}
			}
			return st
		}
		specs := []liftedkernels.ScheduleSpec{
			{},
			{Stages: tiles(16, 4)},
			{Stages: tiles(8, 2)},
		}
		if len(gk.Stages) >= 2 {
			specs = append(specs,
				liftedkernels.ScheduleSpec{Fusion: "slidingWindow"},
				liftedkernels.ScheduleSpec{Fusion: "slidingWindow", WindowRows: 5},
			)
		}
		w, h := res.EvalDims()
		for _, spec := range specs {
			got, err := gk.EvalSched(&img, w, h, spec)
			if err != nil {
				t.Errorf("%s: schedule %+v: %v", k.Name, spec, err)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: schedule %+v: output differs from the VM's", k.Name, spec)
			}
		}
	}
}

// TestScheduleValidationSurfacesInEval pins that invalid schedules are
// rejected before execution rather than silently ignored.
func TestScheduleValidationSurfacesInEval(t *testing.T) {
	k, _ := legacy.Lookup("boxblur3")
	res, err := lift.Lift(k.Name, target(k.Instantiate(legacy.Config{Width: 16, Height: 8, Seed: 1})))
	if err != nil {
		t.Fatal(err)
	}
	gk, ok := liftedkernels.Lookup(k.Name)
	if !ok {
		t.Fatal("boxblur3 not in the generated registry")
	}
	img, ok := lift.GenImage(res.MaterializeInput())
	if !ok {
		t.Fatal("boxblur3 input cannot be materialized")
	}
	w, h := res.EvalDims()
	if _, err := gk.EvalSched(&img, w, h, liftedkernels.ScheduleSpec{Fusion: "bogus"}); err == nil {
		t.Fatal("bogus fusion strategy must be rejected")
	}
	if _, err := gk.EvalSched(&img, w, h, liftedkernels.ScheduleSpec{Fusion: "slidingWindow"}); err == nil {
		t.Fatal("sliding-window on a single-stage kernel must be rejected")
	}
}

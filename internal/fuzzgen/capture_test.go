package fuzzgen

import (
	"reflect"
	"testing"

	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/trace"
	"helium/internal/vm"
)

// TestCaptureMatchesTraceRun checks the trace a lift takes during its
// localization on-run, for the nine corpus kernels at the benchmark
// geometry and for the smoke corpus's seeds.  The on-run is run as
// localization runs it: the off-run's coverage excluded, memory traced,
// capture on.  Its capture must be of the localized filter, so no lift
// needs a separate trace run, and must equal such a run record for
// record: every field, Def link, dump page and count.
func TestCaptureMatchesTraceRun(t *testing.T) {
	for _, k := range legacy.Kernels() {
		checkCapture(t, k.Name, target(k.Instantiate(legacy.Config{Width: 64, Height: 48, Seed: 1})))
	}
	for seed := uint64(1); seed <= uint64(corpusSize(t)); seed++ {
		spec := NewSpec(seed)
		inst, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		checkCapture(t, spec.Name(), target(inst))
	}
}

func checkCapture(t *testing.T, name string, tgt lift.Target) {
	t.Helper()
	loc, err := lift.Localize(tgt)
	if err != nil {
		return // rejected before any trace is taken
	}
	m := vm.NewMachine(tgt.Prog)
	tgt.Setup(m, false)
	off, err := m.RunCoverage(vm.CoverageOptions{MaxSteps: tgt.MaxSteps})
	if err != nil {
		t.Fatalf("%s: off-run: %v", name, err)
	}
	tgt.Setup(m, true)
	on, err := m.RunCoverage(vm.CoverageOptions{MaxSteps: tgt.MaxSteps, ExcludeBlocks: off.Covered(),
		TraceMemory: true, Capture: true, MaxTraceInsts: tgt.MaxTraceInsts})
	if err != nil {
		t.Fatalf("%s: on-run: %v", name, err)
	}
	c := on.Capture
	if c == nil || c.Entry != loc.FilterEntry {
		t.Errorf("%s: the on-run captured %+v, not the localized filter %#x", name, c, loc.FilterEntry)
		return
	}
	tgt.Setup(m, true)
	want, err := m.RunTrace(vm.TraceOptions{FilterEntry: loc.FilterEntry, MaxSteps: tgt.MaxSteps, MaxTraceInsts: tgt.MaxTraceInsts})
	if (err == nil) != (c.Err == nil) || err != nil && err.Error() != c.Err.Error() {
		t.Fatalf("%s: capture error %v, trace run error %v", name, c.Err, err)
	}
	if err != nil {
		return
	}
	got := c.Trace
	if got.FilterCalls != want.FilterCalls || got.Steps != want.Steps {
		t.Errorf("%s: capture has %d filter calls over %d steps, trace run %d over %d",
			name, got.FilterCalls, got.Steps, want.FilterCalls, want.Steps)
	}
	if !reflect.DeepEqual(got.Dump, want.Dump) {
		t.Errorf("%s: capture dumped %d pages, trace run %d, or their bytes differ", name, len(got.Dump.Pages), len(want.Dump.Pages))
	}
	sameTrace(t, name, got.Trace, want.Trace)
}

// sameTrace demands that two traces hold the same records, read through
// the accessors: fields, effects with their sources, and address refs,
// Def links included.
func sameTrace(t *testing.T, name string, got, want *trace.InstTrace) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: capture has %d records, trace run %d", name, got.Len(), want.Len())
	}
	for seq := 0; seq < want.Len(); seq++ {
		g, w := got.At(seq), want.At(seq)
		if g.Addr != w.Addr || g.Op != w.Op || g.Width != w.Width || g.MemAddr != w.MemAddr || g.HasMem != w.HasMem || g.Taken != w.Taken {
			t.Fatalf("%s: record %d: capture %+v, trace run %+v", name, seq, *g, *w)
		}
		if ga, wa := got.AddrRefs(g), want.AddrRefs(w); !reflect.DeepEqual(ga, wa) {
			t.Fatalf("%s: record %d address refs: capture %v, trace run %v", name, seq, ga, wa)
		}
		ge, we := got.Effects(g), want.Effects(w)
		if len(ge) != len(we) {
			t.Fatalf("%s: record %d: capture has %d effects, trace run %d", name, seq, len(ge), len(we))
		}
		for i := range we {
			if ge[i].Dst != we[i].Dst || ge[i].Op != we[i].Op || !reflect.DeepEqual(got.Srcs(&ge[i]), want.Srcs(&we[i])) {
				t.Fatalf("%s: record %d effect %d: capture %v %v %v, trace run %v %v %v", name, seq, i,
					ge[i].Op, ge[i].Dst, got.Srcs(&ge[i]), we[i].Op, we[i].Dst, want.Srcs(&we[i]))
			}
		}
	}
}

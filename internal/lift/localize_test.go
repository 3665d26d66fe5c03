package lift

import (
	"errors"
	"reflect"
	"testing"

	"helium/internal/isa"
	"helium/internal/legacy"
	"helium/internal/vm"
)

// localizeThreeRuns is the reference localization: full on-run and off-run
// coverage, then a separate profiling on-run instrumenting only the
// coverage difference.
func localizeThreeRuns(t *testing.T, tgt Target) *Localization {
	t.Helper()
	m := vm.NewMachine(tgt.Prog)
	tgt.Setup(m, true)
	on, err := m.RunCoverage(vm.CoverageOptions{})
	if err != nil {
		t.Fatalf("reference on-run: %v", err)
	}
	tgt.Setup(m, false)
	off, err := m.RunCoverage(vm.CoverageOptions{})
	if err != nil {
		t.Fatalf("reference off-run: %v", err)
	}
	diff := make(map[uint32]bool)
	for b := range on.Blocks {
		if _, ok := off.Blocks[b]; !ok {
			diff[b] = true
		}
	}
	outside := make(map[uint32]bool)
	for b := range tgt.Prog.Leaders() {
		if !diff[b] {
			outside[b] = true
		}
	}
	tgt.Setup(m, true)
	prof, err := m.RunCoverage(vm.CoverageOptions{ExcludeBlocks: outside, TraceMemory: true})
	if err != nil {
		t.Fatalf("reference profiling run: %v", err)
	}
	ordered := orderOutermost(diffCallTargets(prof.CallTargets, diff), prof.CallTargets)
	if len(ordered) == 0 {
		t.Fatal("reference found no candidates")
	}
	return &Localization{
		FilterEntry: ordered[0],
		Candidates:  ordered,
		Diff:        diff,
		OnBlocks:    len(on.Blocks),
		OffBlocks:   len(off.Blocks),
		MemTrace:    prof.MemTrace,
	}
}

// countSetups wraps a target's harness to count its invocations.
func countSetups(tgt Target, n *int) Target {
	setup := tgt.Setup
	tgt.Setup = func(m *vm.Machine, apply bool) {
		*n++
		setup(m, apply)
	}
	return tgt
}

// TestLocalizeMatchesThreeRuns checks that two-run localization returns
// exactly what the separate screening and profiling runs return, for every
// corpus kernel, and that it executes the program only twice.
func TestLocalizeMatchesThreeRuns(t *testing.T) {
	for _, cfg := range []legacy.Config{{Width: 16, Height: 8, Seed: 1}, {Width: 64, Height: 48, Seed: 1}} {
		for _, k := range legacy.Kernels() {
			t.Run(k.Name+"/"+cfg.String(), func(t *testing.T) {
				inst := k.Instantiate(cfg)
				tgt := Target{Prog: inst.Prog, Setup: inst.Setup}
				want := localizeThreeRuns(t, tgt)
				setups := 0
				got, err := Localize(countSetups(tgt, &setups))
				if err != nil {
					t.Fatalf("Localize: %v", err)
				}
				if setups != 2 {
					t.Errorf("Localize ran Setup %d times, want 2", setups)
				}
				if got.FilterEntry != want.FilterEntry || !reflect.DeepEqual(got.Candidates, want.Candidates) {
					t.Errorf("filter %#x candidates %#x, want %#x %#x", got.FilterEntry, got.Candidates, want.FilterEntry, want.Candidates)
				}
				if !reflect.DeepEqual(got.Diff, want.Diff) {
					t.Errorf("diff has %d blocks, want %d", len(got.Diff), len(want.Diff))
				}
				if got.OnBlocks != want.OnBlocks || got.OffBlocks != want.OffBlocks {
					t.Errorf("on/off blocks %d/%d, want %d/%d", got.OnBlocks, got.OffBlocks, want.OnBlocks, want.OffBlocks)
				}
				if !reflect.DeepEqual(got.MemTrace, want.MemTrace) {
					t.Errorf("memory trace has %d accesses, want %d (or differs in order or content)", len(got.MemTrace), len(want.MemTrace))
				}
			})
		}
	}
}

// flagProgram calls a one-instruction filter when the host's flag word is
// set and otherwise jumps out of the program, so its off-run faults while
// its on-run halts cleanly.
func flagProgram() *isa.Program {
	const base uint32 = 0x00401000
	p := &isa.Program{Name: "flag", Entry: base}
	for i, in := range []isa.Inst{
		{Op: isa.MOV, Dst: isa.RegOp(isa.EAX), Src: isa.Mem(isa.RegNone, int32(vm.ParamBlock), 4)},
		{Op: isa.TEST, Dst: isa.RegOp(isa.EAX), Src: isa.RegOp(isa.EAX)},
		{Op: isa.JZ, Target: base - 4},
		{Op: isa.CALL, Target: base + 20},
		{Op: isa.RET},
		{Op: isa.RET},
	} {
		in.Addr = base + uint32(i)*4
		p.Insts = append(p.Insts, in)
	}
	p.BuildIndex()
	return p
}

func flagSetup(m *vm.Machine, apply bool) {
	m.Reset()
	if apply {
		m.Mem.Write(vm.ParamBlock, 4, 1)
	}
}

// TestLocalizeErrorPrecedence pins which run's failure Localize reports:
// the on-run's whenever it fails, the off-run's only when the on-run
// succeeded.  Both runs still execute.
func TestLocalizeErrorPrecedence(t *testing.T) {
	k, _ := legacy.Lookup("boxblur3")
	inst := k.Instantiate(legacy.Config{Width: 16, Height: 8, Seed: 1})
	for _, tc := range []struct {
		name string
		tgt  Target
		want string
	}{
		{"both-runs-exceed-max-steps", Target{Prog: inst.Prog, Setup: inst.Setup, MaxSteps: 50},
			"lift: on-run coverage: vm: " + inst.Prog.Name + " exceeded 50 steps during coverage run"},
		{"off-run-faults", Target{Prog: flagProgram(), Setup: flagSetup},
			"lift: off-run coverage: vm: fault at 0x400ffc: no instruction at eip"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setups := 0
			_, err := Localize(countSetups(tc.tgt, &setups))
			var rej *Rejection
			if !errors.As(err, &rej) || rej.Phase != PhaseLocalize {
				t.Fatalf("Localize error %v, want a localize-phase rejection", err)
			}
			if rej.Err.Error() != tc.want {
				t.Errorf("Localize error %q, want %q", rej.Err, tc.want)
			}
			if setups != 2 {
				t.Errorf("Localize ran Setup %d times, want 2", setups)
			}
		})
	}
}

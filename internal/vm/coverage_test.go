package vm

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"helium/internal/isa"
	"helium/internal/trace"
)

// callProgram loops three times over a call to f, which takes a branch on
// the trip count and calls g on two of the trips.  Every block touches
// memory.
func callProgram() *isa.Program {
	const (
		base uint32 = 0x00405000
		loop        = base + 2*4
		f           = base + 8*4
		skip        = base + 15*4
		g           = base + 17*4
	)
	p := &isa.Program{Name: "calls", Entry: base}
	body := []isa.Inst{
		{Op: isa.MOV, Dst: isa.RegOp(isa.ESI), Src: isa.ImmOp(0x3000)},
		{Op: isa.MOV, Dst: isa.RegOp(isa.EDI), Src: isa.ImmOp(3)},
		// loop:
		{Op: isa.CALL, Target: f},
		{Op: isa.MOV, Dst: isa.Mem(isa.ESI, 0, 4), Src: isa.RegOp(isa.EAX)},
		{Op: isa.DEC, Dst: isa.RegOp(isa.EDI)},
		{Op: isa.JNZ, Target: loop},
		{Op: isa.MOV, Dst: isa.Mem(isa.ESI, 4, 4), Src: isa.RegOp(isa.EDI)},
		{Op: isa.RET},
		// f:
		{Op: isa.MOV, Dst: isa.RegOp(isa.EAX), Src: isa.Mem(isa.ESI, 8, 4)},
		{Op: isa.CMP, Dst: isa.RegOp(isa.EDI), Src: isa.ImmOp(2)},
		{Op: isa.JZ, Target: skip},
		{Op: isa.ADD, Dst: isa.RegOp(isa.EAX), Src: isa.Mem(isa.ESI, 12, 4)},
		{Op: isa.CALL, Target: g},
		{Op: isa.PUSH, Src: isa.RegOp(isa.EAX)},
		{Op: isa.POP, Dst: isa.RegOp(isa.EAX)},
		// skip:
		{Op: isa.MOV, Dst: isa.Mem(isa.ESI, 16, 4), Src: isa.RegOp(isa.EAX)},
		{Op: isa.RET},
		// g:
		{Op: isa.MOV, Dst: isa.Mem(isa.ESI, 20, 4), Src: isa.RegOp(isa.EDI)},
		{Op: isa.RET},
	}
	for i, in := range body {
		in.Addr = base + uint32(i)*4
		p.Insts = append(p.Insts, in)
	}
	p.BuildIndex()
	return p
}

// zeroCallProgram calls a function at address 0 twice, from two blocks.
// Program.Leaders skips direct targets equal to 0, so the callee is not a
// block leader and Blocks never counts it: whether a capture may start at
// the second call depends on the first call having run.
func zeroCallProgram() *isa.Program {
	const (
		g     uint32 = 0
		entry        = g + 2*4
	)
	p := &isa.Program{Name: "zerocalls", Entry: entry}
	body := []isa.Inst{
		// g:
		{Op: isa.MOV, Dst: isa.Mem(isa.ESI, 0, 4), Src: isa.RegOp(isa.EDI)},
		{Op: isa.RET},
		// entry:
		{Op: isa.MOV, Dst: isa.RegOp(isa.ESI), Src: isa.ImmOp(0x3000)},
		{Op: isa.CALL, Target: g},
		{Op: isa.INC, Dst: isa.RegOp(isa.EDI)},
		{Op: isa.CALL, Target: g},
		{Op: isa.MOV, Dst: isa.Mem(isa.ESI, 4, 4), Src: isa.RegOp(isa.EDI)},
		{Op: isa.RET},
	}
	for i, in := range body {
		in.Addr = g + uint32(i)*4
		p.Insts = append(p.Insts, in)
	}
	p.BuildIndex()
	return p
}

// TestCoverageExcludeBlocks checks the ExcludeBlocks gate of RunCoverage
// directly, for every subset of callProgram's and zeroCallProgram's
// blocks.
func TestCoverageExcludeBlocks(t *testing.T) {
	p := callProgram()
	if n := len(p.Leaders()); n != 9 {
		t.Fatalf("callProgram has %d blocks, want 9", n)
	}
	checkExcludeBlocks(t, p)
	p = zeroCallProgram()
	if p.Leaders()[0] {
		t.Fatal("zeroCallProgram's callee is a block leader")
	}
	checkExcludeBlocks(t, p)
}

// checkExcludeBlocks runs p's coverage for every subset of its blocks.
// The reference steps the machine by hand, attributing each step to the
// block of the last leader executed; an excluded block must drop exactly
// its own memory accesses and call targets, and still count in Blocks.
// Every run also captures: the capture must start at the first direct
// call from an instrumented block to an address neither excluded nor
// executed yet, and equal a trace run at that entry record for record.
func checkExcludeBlocks(t *testing.T, p *isa.Program) {
	t.Helper()
	leaders := p.Leaders()
	blocks := slices.Sorted(maps.Keys(leaders))

	// call is a direct call: the call site and the callee.
	type call struct{ site, callee uint32 }
	type step struct {
		addr     uint32
		block    uint32
		call     *call
		accesses []trace.MemAccess
	}
	var steps []step
	wantBlocks := map[uint32]uint64{}
	m := NewMachine(p)
	var cur uint32
	for !m.halted {
		var s step
		if leaders[m.eip] {
			wantBlocks[m.eip]++
			cur = m.eip
		}
		s.addr, s.block = m.eip, cur
		idx, _ := p.Lookup(m.eip)
		if in := p.Insts[idx]; in.Op == isa.CALL && in.Sym == "" {
			s.call = &call{site: in.Addr, callee: in.Target}
		}
		rec := &stepRecord{}
		if err := m.step(rec); err != nil {
			t.Fatal(err)
		}
		s.accesses = rec.accesses
		steps = append(steps, s)
	}
	wantSteps := m.Steps()

	captures := 0
	for mask := 0; mask < 1<<len(blocks); mask++ {
		excl := map[uint32]bool{}
		for i, b := range blocks {
			if mask&(1<<i) != 0 {
				excl[b] = true
			}
		}
		wantCalls := map[uint32]map[uint32]bool{}
		var wantMem []trace.MemAccess
		var wantEntry *uint32
		executed := map[uint32]bool{}
		for _, s := range steps {
			if c := s.call; c != nil && !excl[s.block] {
				if wantCalls[c.site] == nil {
					wantCalls[c.site] = map[uint32]bool{}
				}
				wantCalls[c.site][c.callee] = true
				if wantEntry == nil && !excl[c.callee] && !executed[c.callee] {
					wantEntry = &c.callee
				}
			}
			executed[s.addr] = true
			if !excl[s.block] {
				wantMem = append(wantMem, s.accesses...)
			}
		}

		m.Reset()
		got, err := m.RunCoverage(CoverageOptions{ExcludeBlocks: excl, TraceMemory: true, Capture: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Blocks, wantBlocks) || got.Steps != wantSteps {
			t.Errorf("exclude %v: Blocks %v, Steps %d; want %v, %d", excl, got.Blocks, got.Steps, wantBlocks, wantSteps)
		}
		if !reflect.DeepEqual(got.CallTargets, wantCalls) {
			t.Errorf("exclude %v: CallTargets %v, want %v", excl, got.CallTargets, wantCalls)
		}
		if !reflect.DeepEqual(got.MemTrace, wantMem) {
			t.Errorf("exclude %v: MemTrace %v, want %v", excl, got.MemTrace, wantMem)
		}

		switch {
		case wantEntry == nil && got.Capture != nil:
			t.Errorf("exclude %v: captured at %#x, want no capture", excl, got.Capture.Entry)
		case wantEntry != nil && got.Capture == nil:
			t.Errorf("exclude %v: no capture, want one at %#x", excl, *wantEntry)
		case wantEntry != nil && got.Capture.Entry != *wantEntry:
			t.Errorf("exclude %v: captured at %#x, want %#x", excl, got.Capture.Entry, *wantEntry)
		case wantEntry != nil:
			captures++
			m.Reset()
			var want []trace.DynInst
			sr, serr := m.RunTraceStream(TraceOptions{FilterEntry: *wantEntry}, trace.SinkFunc(func(di trace.DynInst) error {
				want = append(want, deepCopy(di))
				return nil
			}))
			sameCapture(t, p, got.Capture, sr, serr, want)
		}
	}
	if captures == 0 {
		t.Errorf("%s: no exclusion mask captured a trace", p.Name)
	}
}

// TestCaptureBudget checks that a capture over its trace budget fails
// with the trace run's error while the coverage run itself completes.
func TestCaptureBudget(t *testing.T) {
	p := callProgram()
	m := NewMachine(p)
	full, err := m.RunCoverage(CoverageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	got, err := m.RunCoverage(CoverageOptions{ExcludeBlocks: map[uint32]bool{}, Capture: true, MaxTraceInsts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Blocks, full.Blocks) || got.Steps != full.Steps {
		t.Errorf("a failed capture changed coverage: Blocks %v, Steps %d; want %v, %d", got.Blocks, got.Steps, full.Blocks, full.Steps)
	}
	if got.Capture == nil {
		t.Fatal("no capture")
	}
	m.Reset()
	sr, serr := m.RunTraceStream(TraceOptions{FilterEntry: got.Capture.Entry, MaxTraceInsts: 2}, trace.SinkFunc(func(trace.DynInst) error { return nil }))
	if serr == nil {
		t.Fatal("the trace run fit its budget of 2 records")
	}
	sameCapture(t, p, got.Capture, sr, serr, nil)
}

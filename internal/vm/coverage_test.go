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

// TestCoverageExcludeBlocks checks the ExcludeBlocks gate of RunCoverage
// directly, for every subset of callProgram's blocks.  The reference steps
// the machine by hand, attributing each step to the block of the last
// leader executed; an excluded block must drop exactly its own memory
// accesses, call targets and the edges that touch it, and still count in
// Blocks.
func TestCoverageExcludeBlocks(t *testing.T) {
	p := callProgram()
	leaders := p.Leaders()
	blocks := slices.Sorted(maps.Keys(leaders))
	if len(blocks) != 9 {
		t.Fatalf("callProgram has %d blocks, want 9", len(blocks))
	}

	type step struct {
		block    uint32
		edge     *Edge // the edge entering block, when this step begins it
		call     *Edge // From: call site, To: callee, for a direct call
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
			if len(steps) > 0 {
				s.edge = &Edge{From: cur, To: m.eip}
			}
			cur = m.eip
		}
		s.block = cur
		idx, _ := p.Lookup(m.eip)
		if in := p.Insts[idx]; in.Op == isa.CALL && in.Sym == "" {
			s.call = &Edge{From: in.Addr, To: in.Target}
		}
		rec := &stepRecord{}
		if err := m.step(rec); err != nil {
			t.Fatal(err)
		}
		s.accesses = rec.accesses
		steps = append(steps, s)
	}
	wantSteps := m.Steps()

	for mask := 0; mask < 1<<len(blocks); mask++ {
		excl := map[uint32]bool{}
		for i, b := range blocks {
			if mask&(1<<i) != 0 {
				excl[b] = true
			}
		}
		wantEdges := map[Edge]uint64{}
		wantCalls := map[uint32]map[uint32]bool{}
		var wantMem []trace.MemAccess
		for _, s := range steps {
			if s.edge != nil && !excl[s.edge.From] && !excl[s.edge.To] {
				wantEdges[*s.edge]++
			}
			if excl[s.block] {
				continue
			}
			if s.call != nil {
				if wantCalls[s.call.From] == nil {
					wantCalls[s.call.From] = map[uint32]bool{}
				}
				wantCalls[s.call.From][s.call.To] = true
			}
			wantMem = append(wantMem, s.accesses...)
		}

		m.Reset()
		got, err := m.RunCoverage(CoverageOptions{ExcludeBlocks: excl, TraceMemory: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Blocks, wantBlocks) || got.Steps != wantSteps {
			t.Errorf("exclude %v: Blocks %v, Steps %d; want %v, %d", excl, got.Blocks, got.Steps, wantBlocks, wantSteps)
		}
		if !reflect.DeepEqual(got.Edges, wantEdges) {
			t.Errorf("exclude %v: Edges %v, want %v", excl, got.Edges, wantEdges)
		}
		if !reflect.DeepEqual(got.CallTargets, wantCalls) {
			t.Errorf("exclude %v: CallTargets %v, want %v", excl, got.CallTargets, wantCalls)
		}
		if !reflect.DeepEqual(got.MemTrace, wantMem) {
			t.Errorf("exclude %v: MemTrace %v, want %v", excl, got.MemTrace, wantMem)
		}
	}
}

package vm

import (
	"testing"

	"helium/internal/isa"
	"helium/internal/trace"
)

// memLoopProgram loops iters times over a body exercising every memory
// operand form the tracer records (loads, stores, a memory ALU source,
// lea, byte loads, x87 loads and stores, push/pop).  Its addresses stay in
// a few fixed pages, so the emulated memory itself stops growing after the
// first iteration.
func memLoopProgram(iters int) *isa.Program {
	const base uint32 = 0x00403000
	p := &isa.Program{Name: "memloop", Entry: base}
	body := []isa.Inst{
		{Op: isa.MOV, Dst: isa.RegOp(isa.EDI), Src: isa.ImmOp(int64(iters))},
		{Op: isa.MOV, Dst: isa.RegOp(isa.EBX), Src: isa.ImmOp(0x2000)},
		{Op: isa.MOV, Dst: isa.RegOp(isa.ESI), Src: isa.ImmOp(0x3000)},
		// loop:
		{Op: isa.MOV, Dst: isa.RegOp(isa.ECX), Src: isa.RegOp(isa.EDI)},
		{Op: isa.AND, Dst: isa.RegOp(isa.ECX), Src: isa.ImmOp(15)},
		{Op: isa.MOV, Dst: isa.RegOp(isa.EAX), Src: isa.MemOp(isa.EBX, isa.ECX, 4, 0, 4)},
		{Op: isa.ADD, Dst: isa.RegOp(isa.EAX), Src: isa.Mem(isa.EBX, 4, 4)},
		{Op: isa.MOV, Dst: isa.MemOp(isa.ESI, isa.ECX, 4, 0, 4), Src: isa.RegOp(isa.EAX)},
		{Op: isa.LEA, Dst: isa.RegOp(isa.EDX), Src: isa.MemOp(isa.EBX, isa.ECX, 2, 1, 4)},
		{Op: isa.MOVZX, Dst: isa.RegOp(isa.EAX), Src: isa.MemOp(isa.EBX, isa.ECX, 1, 0, 1)},
		{Op: isa.FILD, Dst: isa.MemOp(isa.EBX, isa.ECX, 4, 0, 4)},
		{Op: isa.FSTP, Dst: isa.MemOp(isa.ESI, isa.ECX, 8, 0x100, 8)},
		{Op: isa.PUSH, Src: isa.RegOp(isa.EAX)},
		{Op: isa.POP, Dst: isa.RegOp(isa.EDX)},
		{Op: isa.DEC, Dst: isa.RegOp(isa.EDI)},
		{Op: isa.JNZ, Target: base + 3*4},
		{Op: isa.RET},
	}
	for i, in := range body {
		in.Addr = base + uint32(i)*4
		p.Insts = append(p.Insts, in)
	}
	p.BuildIndex()
	return p
}

// TestRunsDoNotAllocatePerStep is the allocation gate on the emulator's hot
// path: untraced runs, coverage runs and streaming traces allocate only
// per-run state (machine memory, result maps, the page dump), never per
// executed instruction, so the count does not grow with the trip count.
func TestRunsDoNotAllocatePerStep(t *testing.T) {
	discard := trace.SinkFunc(func(trace.DynInst) error { return nil })
	for _, mode := range []struct {
		name string
		run  func(m *Machine) error
	}{
		{"Run", func(m *Machine) error { return m.Run(0) }},
		{"RunCoverage", func(m *Machine) error { _, err := m.RunCoverage(CoverageOptions{}); return err }},
		{"RunTraceStream", func(m *Machine) error {
			_, err := m.RunTraceStream(TraceOptions{FilterEntry: m.Prog.Entry}, discard)
			return err
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			allocs := func(iters int) float64 {
				m := NewMachine(memLoopProgram(iters))
				return testing.AllocsPerRun(5, func() {
					m.Reset()
					if err := mode.run(m); err != nil {
						t.Fatal(err)
					}
				})
			}
			short, long := allocs(100), allocs(10_000)
			if short != long {
				t.Errorf("%s allocates %v times at 100 iterations but %v at 10,000: the step loop allocates", mode.name, short, long)
			}
		})
	}
}

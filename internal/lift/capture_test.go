package lift

import (
	"reflect"
	"testing"

	"helium/internal/asm"
	"helium/internal/isa"
	"helium/internal/vm"
)

// TestLiftFallsBackToTraceRun lifts a program whose on-run captures a
// helper rather than the localized filter: the lift must trace the filter
// in a run of its own and come out as it did when every lift did so.  The
// pinned kernel and counts are that pipeline's.
func TestLiftFallsBackToTraceRun(t *testing.T) {
	tgt, helper := fallbackTarget()
	loc, capt, _, err := localize(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if capt == nil || capt.Entry != helper || loc.FilterEntry == helper {
		t.Fatalf("the on-run captured %+v and localization chose %#x; want the helper %#x captured and not chosen", capt, loc.FilterEntry, helper)
	}

	res, err := Lift("fallback", tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	const kernel = "// fallback: 24x12x1\nout(x, y, c) = byte0((in(x, y) + 7))\n"
	if got := res.Kernel.String(); got != kernel {
		t.Errorf("kernel %q, want %q", got, kernel)
	}
	if res.Loc.FilterEntry != loc.FilterEntry || res.Samples != 288 || res.TraceInsts != 2028 || res.TraceSteps != 2045 {
		t.Errorf("filter %#x, %d samples, %d records over %d steps; want %#x, 288, 2028 over 2045",
			res.Loc.FilterEntry, res.Samples, res.TraceInsts, res.TraceSteps, loc.FilterEntry)
	}
	m := vm.NewMachine(tgt.Prog)
	tgt.Setup(m, true)
	ref, err := m.RunTrace(vm.TraceOptions{FilterEntry: loc.FilterEntry})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Dump, ref.Dump) {
		t.Error("the lift's dump differs from a trace run's of the filter")
	}
	if res.PhaseDur(PhaseTrace) <= 0 {
		t.Error("no time attributed to tracing")
	}
}

// fallbackTarget returns a planar add-7 filter and the entry of a helper
// that its host, when asked for the filter, calls first.  The off-run
// never runs the helper either, and it lies after the filter: localization
// picks the filter (the outermost candidate with the lowest address) while
// the on-run's first uncovered call goes to the helper.
func fallbackTarget() (Target, uint32) {
	const w, h = 24, 12
	const (
		pbFlag = iota * 4
		pbSrc
		pbDst
		pbW
		pbH
	)
	param := func(off int32) isa.Operand { return isa.Mem(isa.RegNone, int32(vm.ParamBlock)+off, 4) }
	eax, ecx, edx := isa.RegOp(isa.EAX), isa.RegOp(isa.ECX), isa.RegOp(isa.EDX)
	esi, edi, esp := isa.RegOp(isa.ESI), isa.RegOp(isa.EDI), isa.RegOp(isa.ESP)

	b := asm.New("fallback")
	b.Label("main")
	b.Prologue(0)
	b.Mov(eax, param(pbFlag))
	b.Test(eax, eax)
	b.Jcc(isa.JZ, "main_skip")
	b.Call("helper")
	b.Push(param(pbH))
	b.Push(param(pbW))
	b.Push(param(pbDst))
	b.Push(param(pbSrc))
	b.Call("filter")
	b.Add(esp, isa.ImmOp(16))
	b.Label("main_skip")
	b.Epilogue()

	b.Label("filter") // filter(src, dst, w, h): dst[i] = src[i] + 7
	b.Prologue(0)
	b.Mov(esi, asm.Arg(0))
	b.Mov(edi, asm.Arg(1))
	b.Mov(ecx, asm.Arg(2))
	b.Imul(ecx, asm.Arg(3))
	b.Mov(edx, isa.ImmOp(0))
	b.Label("f_loop")
	b.Cmp(edx, ecx)
	b.Jcc(isa.JGE, "f_done")
	b.Movzx(eax, isa.MemOp(isa.ESI, isa.EDX, 1, 0, 1))
	b.Add(eax, isa.ImmOp(7))
	b.Mov(isa.MemOp(isa.EDI, isa.EDX, 1, 0, 1), isa.RegOp(isa.AL))
	b.Inc(edx)
	b.Jmp("f_loop")
	b.Label("f_done")
	b.Epilogue()

	b.Label("helper")
	b.Mov(eax, isa.ImmOp(1))
	b.Ret()
	prog := b.MustBuild()
	helper, _ := asm.LabelAddr(b, prog, "helper")

	src := make([]byte, w*h)
	for i := range src {
		src[i] = byte(i*37 + 11)
	}
	srcAddr, dstAddr := vm.HeapBase, vm.HeapBase+0x2000
	return Target{
		Prog: prog,
		Setup: func(m *vm.Machine, apply bool) {
			m.Reset()
			m.Mem.WriteBytes(srcAddr, src)
			flag := uint64(0)
			if apply {
				flag = 1
			}
			for off, v := range map[int32]uint64{pbFlag: flag, pbSrc: uint64(srcAddr), pbDst: uint64(dstAddr), pbW: w, pbH: h} {
				m.Mem.Write(vm.ParamBlock+uint32(off), 4, v)
			}
		},
		Known: KnownInput{Width: w, Height: h, Channels: 1, Interior: src},
	}, helper
}

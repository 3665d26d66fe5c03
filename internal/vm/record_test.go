package vm

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"helium/internal/isa"
	"helium/internal/trace"
)

// recEntry is where the record-pinning programs are laid out.
const recEntry uint32 = 0x00402000

// rref is a trace.Ref with its float value spelled out.  F is compared for
// float source refs only: sources are what the backward analysis lifts as
// constants, while a destination's value is pinned by its stored bits.
type rref struct {
	Space trace.Space
	Addr  uint64
	Width uint8
	Val   uint64
	Float bool
	F     float64
}

type reffect struct {
	Dst  rref
	Op   trace.ExprOp
	Srcs []rref
}

// rrec is the part of a trace.DynInst the record path fills in.
type rrec struct {
	Addr     uint32
	Op       isa.Opcode
	Width    uint8
	Effects  []reffect
	AddrRefs []rref
	MemAddr  uint64
	HasMem   bool
	Sym      string
}

func norm(r trace.Ref, src bool) rref {
	out := rref{Space: r.Space, Addr: r.Addr, Width: r.Width, Val: r.Val, Float: r.Float}
	if r.Float && src {
		out.F = r.FVal()
	}
	return out
}

func normRec(di trace.DynInst) rrec {
	out := rrec{Addr: di.Addr, Op: di.Op, Width: di.Width, MemAddr: di.MemAddr, HasMem: di.HasMem, Sym: di.Sym}
	for _, ef := range di.Effects {
		e := reffect{Dst: norm(ef.Dst, false), Op: ef.Op}
		for _, s := range ef.Srcs {
			e.Srcs = append(e.Srcs, norm(s, true))
		}
		out.Effects = append(out.Effects, e)
	}
	for _, r := range di.AddrRefs {
		out.AddrRefs = append(out.AddrRefs, norm(r, true))
	}
	return out
}

func rreg(r isa.Reg, v uint64) rref {
	return rref{Space: trace.SpaceReg, Addr: trace.RegAddr(r), Width: uint8(r.Width()), Val: v}
}

func rfreg(r isa.Reg, f float64) rref {
	return rref{Space: trace.SpaceReg, Addr: trace.RegAddr(r), Width: 8, Val: math.Float64bits(f), Float: true, F: f}
}

func rmem(addr uint64, w uint8, v uint64) rref {
	return rref{Space: trace.SpaceMem, Addr: addr, Width: w, Val: v}
}

func rimm(v int64) rref { return rref{Space: trace.SpaceImm, Width: 4, Val: uint64(v)} }

func rflags(v uint64) rref {
	return rref{Space: trace.SpaceFlags, Addr: trace.FlagsAddr, Width: 4, Val: v}
}

// f32 is the float32 rounding of f, widened back.
func f32(f float64) float64 { return float64(float32(f)) }

// recordCase runs prefix, then the instruction under test, then an add that
// records effects of its own, then ret, and pins the record the
// instruction under test emits.  The trailing add reuses the tracer's
// per-step buffers, so a trace that kept them instead of copying would
// show its effects in place of the pinned ones.
type recordCase struct {
	name   string
	init   func(m *Machine)
	prefix []isa.Inst
	inst   isa.Inst
	want   rrec // Addr, Op and Width are filled from inst by the test
}

func recordProgram(tc recordCase) *isa.Program {
	p := &isa.Program{Name: "record", Entry: recEntry}
	insts := append(append([]isa.Inst(nil), tc.prefix...), tc.inst,
		isa.Inst{Op: isa.ADD, Dst: isa.RegOp(isa.EBP), Src: isa.MemOp(isa.ESP, isa.EBP, 1, 0, 4)},
		isa.Inst{Op: isa.RET})
	for i, in := range insts {
		in.Addr = recEntry + uint32(i)*4
		p.Insts = append(p.Insts, in)
	}
	p.BuildIndex()
	return p
}

// deepCopy clones a record so it survives the VM reusing its buffers.
func deepCopy(di trace.DynInst) trace.DynInst {
	out := di
	out.Effects = nil
	for _, ef := range di.Effects {
		ef.Srcs = append([]trace.Ref(nil), ef.Srcs...)
		out.Effects = append(out.Effects, ef)
	}
	out.AddrRefs = append([]trace.Ref(nil), di.AddrRefs...)
	if len(di.AddrRefs) == 0 {
		out.AddrRefs = nil
	}
	return out
}

// stored reads record seq of tr back in streaming form through the
// trace's accessors: Seq is its position and Sym the program's symbol for
// the instruction at its address.
func stored(tr *trace.InstTrace, p *isa.Program, seq int) trace.DynInst {
	r := tr.At(seq)
	di := trace.DynInst{Seq: seq, Addr: r.Addr, Op: r.Op, Width: r.Width, MemAddr: r.MemAddr, HasMem: r.HasMem, Taken: r.Taken}
	if pc, ok := p.Lookup(r.Addr); ok {
		di.Sym = p.Insts[pc].Sym
	}
	effects := tr.Effects(r)
	for i := range effects {
		ef := &effects[i]
		di.Effects = append(di.Effects, trace.Effect{Dst: ef.Dst, Op: ef.Op, Srcs: tr.Srcs(ef)})
	}
	di.AddrRefs = tr.AddrRefs(r)
	return deepCopy(di)
}

var recordCases = []recordCase{
	{
		name: "mov-load-base-index-disp",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.SetReg(isa.ECX, 3)
			m.Mem.Write(0x2014, 4, 0xdeadbeef)
		},
		inst: isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.EAX), Src: isa.MemOp(isa.EBX, isa.ECX, 4, 8, 4)},
		want: rrec{
			Effects:  []reffect{{Dst: rreg(isa.EAX, 0xdeadbeef), Op: trace.OpIdentity, Srcs: []rref{rmem(0x2014, 4, 0xdeadbeef)}}},
			AddrRefs: []rref{rreg(isa.EBX, 0x2000), rreg(isa.ECX, 3)},
			MemAddr:  0x2014, HasMem: true,
		},
	},
	{
		name: "mov-store",
		init: func(m *Machine) {
			m.SetReg(isa.ESI, 0x3000)
			m.SetReg(isa.EDX, 0x12345678)
		},
		inst: isa.Inst{Op: isa.MOV, Dst: isa.Mem(isa.ESI, 4, 4), Src: isa.RegOp(isa.EDX)},
		want: rrec{
			Effects:  []reffect{{Dst: rmem(0x3004, 4, 0x12345678), Op: trace.OpIdentity, Srcs: []rref{rreg(isa.EDX, 0x12345678)}}},
			AddrRefs: []rref{rreg(isa.ESI, 0x3000)},
			MemAddr:  0x3004, HasMem: true,
		},
	},
	{
		name: "mov-store-byte-from-ah",
		init: func(m *Machine) {
			m.SetReg(isa.EDI, 0x3000)
			m.SetReg(isa.EAX, 0x1234)
		},
		inst: isa.Inst{Op: isa.MOV, Dst: isa.MemOp(isa.EDI, isa.EAX, 1, -0x1234, 1), Src: isa.RegOp(isa.AH)},
		want: rrec{
			Effects:  []reffect{{Dst: rmem(0x3000, 1, 0x12), Op: trace.OpIdentity, Srcs: []rref{rreg(isa.AH, 0x12)}}},
			AddrRefs: []rref{rreg(isa.EDI, 0x3000), rreg(isa.EAX, 0x1234)},
			MemAddr:  0x3000, HasMem: true,
		},
	},
	{
		name: "movzx-byte",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.Mem.Write(0x2001, 1, 0xf0)
		},
		inst: isa.Inst{Op: isa.MOVZX, Dst: isa.RegOp(isa.EAX), Src: isa.Mem(isa.EBX, 1, 1)},
		want: rrec{
			Effects:  []reffect{{Dst: rreg(isa.EAX, 0xf0), Op: trace.OpZExt, Srcs: []rref{rmem(0x2001, 1, 0xf0)}}},
			AddrRefs: []rref{rreg(isa.EBX, 0x2000)},
			MemAddr:  0x2001, HasMem: true,
		},
	},
	{
		name: "movsx-word",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.Mem.Write(0x2000, 2, 0x8001)
		},
		inst: isa.Inst{Op: isa.MOVSX, Dst: isa.RegOp(isa.EAX), Src: isa.Mem(isa.EBX, 0, 2)},
		want: rrec{
			Effects:  []reffect{{Dst: rreg(isa.EAX, 0xffff8001), Op: trace.OpSExt, Srcs: []rref{rmem(0x2000, 2, 0x8001)}}},
			AddrRefs: []rref{rreg(isa.EBX, 0x2000)},
			MemAddr:  0x2000, HasMem: true,
		},
	},
	{
		name: "add-mem-source",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.SetReg(isa.EDI, 5)
			m.SetReg(isa.ECX, 0xffffffff)
			m.Mem.Write(0x200a, 4, 1)
		},
		inst: isa.Inst{Op: isa.ADD, Dst: isa.RegOp(isa.ECX), Src: isa.MemOp(isa.EBX, isa.EDI, 2, 0, 4)},
		want: rrec{
			Effects: []reffect{
				{Dst: rreg(isa.ECX, 0), Op: trace.OpAdd, Srcs: []rref{rreg(isa.ECX, 0xffffffff), rmem(0x200a, 4, 1)}},
				{Dst: rflags(1<<6 | 1), Op: trace.OpAdd, Srcs: []rref{rreg(isa.ECX, 0xffffffff), rmem(0x200a, 4, 1)}},
			},
			AddrRefs: []rref{rreg(isa.EBX, 0x2000), rreg(isa.EDI, 5)},
			MemAddr:  0x200a, HasMem: true,
		},
	},
	{
		name: "add-mem-destination",
		init: func(m *Machine) {
			m.SetReg(isa.EBP, 0x2100)
			m.SetReg(isa.EDX, 7)
			m.Mem.Write(0x20f8, 4, 0x7fffffff)
		},
		inst: isa.Inst{Op: isa.ADD, Dst: isa.Mem(isa.EBP, -8, 4), Src: isa.RegOp(isa.EDX)},
		want: rrec{
			Effects: []reffect{
				{Dst: rmem(0x20f8, 4, 0x80000006), Op: trace.OpAdd, Srcs: []rref{rmem(0x20f8, 4, 0x7fffffff), rreg(isa.EDX, 7)}},
				{Dst: rflags(1<<7 | 1<<11), Op: trace.OpAdd, Srcs: []rref{rmem(0x20f8, 4, 0x7fffffff), rreg(isa.EDX, 7)}},
			},
			// Read then written through the same operand: the address
			// registers are captured once per access.
			AddrRefs: []rref{rreg(isa.EBP, 0x2100), rreg(isa.EBP, 0x2100)},
			MemAddr:  0x20f8, HasMem: true,
		},
	},
	{
		name: "lea-base-index-scale-disp",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x1000)
			m.SetReg(isa.ECX, 6)
		},
		inst: isa.Inst{Op: isa.LEA, Dst: isa.RegOp(isa.EBX), Src: isa.MemOp(isa.EBX, isa.ECX, 4, 0x10, 4)},
		want: rrec{
			// The base is EBX's value before lea overwrote it.
			Effects: []reffect{{Dst: rreg(isa.EBX, 0x1028), Op: trace.OpLea,
				Srcs: []rref{rreg(isa.EBX, 0x1000), rreg(isa.ECX, 6), rimm(4), rimm(0x10)}}},
		},
	},
	{
		name: "fild-dword",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.Mem.Write(0x2000, 4, uint64(uint32(0xfffffff9))) // -7
		},
		inst: isa.Inst{Op: isa.FILD, Dst: isa.Mem(isa.EBX, 0, 4)},
		want: rrec{
			Effects: []reffect{{Dst: rfreg(isa.F7, -7), Op: trace.OpIntToFP,
				Srcs: []rref{rmem(0x2000, 4, uint64(0xfffffffffffffff9))}}},
			AddrRefs: []rref{rreg(isa.EBX, 0x2000)},
			MemAddr:  0x2000, HasMem: true,
		},
	},
	{
		name: "fld-dword",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.Mem.Write(0x2000, 4, uint64(math.Float32bits(0.1)))
		},
		inst: isa.Inst{Op: isa.FLD, Dst: isa.Mem(isa.EBX, 0, 4)},
		want: rrec{
			Effects: []reffect{{Dst: rfreg(isa.F7, f32(0.1)), Op: trace.OpIdentity,
				Srcs: []rref{{Space: trace.SpaceMem, Addr: 0x2000, Width: 4, Val: uint64(math.Float32bits(0.1)), Float: true, F: f32(0.1)}}}},
			AddrRefs: []rref{rreg(isa.EBX, 0x2000)},
			MemAddr:  0x2000, HasMem: true,
		},
	},
	{
		name: "fld-qword",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.Mem.Write(0x2008, 8, math.Float64bits(0.1))
		},
		inst: isa.Inst{Op: isa.FLD, Dst: isa.Mem(isa.EBX, 8, 8)},
		want: rrec{
			Effects: []reffect{{Dst: rfreg(isa.F7, 0.1), Op: trace.OpIdentity,
				Srcs: []rref{{Space: trace.SpaceMem, Addr: 0x2008, Width: 8, Val: math.Float64bits(0.1), Float: true, F: 0.1}}}},
			AddrRefs: []rref{rreg(isa.EBX, 0x2000)},
			MemAddr:  0x2008, HasMem: true,
		},
	},
	{
		// The stored bits are float32-rounded; the source register keeps
		// the unrounded double.
		name: "fst-dword-rounds",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.SetReg(isa.ESI, 0x3000)
			m.Mem.Write(0x2000, 8, math.Float64bits(0.1))
		},
		prefix: []isa.Inst{{Op: isa.FLD, Dst: isa.Mem(isa.EBX, 0, 8)}},
		inst:   isa.Inst{Op: isa.FST, Dst: isa.Mem(isa.ESI, 0, 4)},
		want: rrec{
			Effects: []reffect{{
				Dst: rref{Space: trace.SpaceMem, Addr: 0x3000, Width: 4, Val: uint64(math.Float32bits(0.1)), Float: true},
				Op:  trace.OpIdentity, Srcs: []rref{rfreg(isa.F7, 0.1)}}},
			AddrRefs: []rref{rreg(isa.ESI, 0x3000)},
			MemAddr:  0x3000, HasMem: true,
		},
	},
	{
		name: "fst-qword",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.SetReg(isa.ESI, 0x3000)
			m.Mem.Write(0x2000, 8, math.Float64bits(0.1))
		},
		prefix: []isa.Inst{{Op: isa.FLD, Dst: isa.Mem(isa.EBX, 0, 8)}},
		inst:   isa.Inst{Op: isa.FST, Dst: isa.Mem(isa.ESI, 8, 8)},
		want: rrec{
			Effects: []reffect{{
				Dst: rref{Space: trace.SpaceMem, Addr: 0x3008, Width: 8, Val: math.Float64bits(0.1), Float: true},
				Op:  trace.OpIdentity, Srcs: []rref{rfreg(isa.F7, 0.1)}}},
			AddrRefs: []rref{rreg(isa.ESI, 0x3000)},
			MemAddr:  0x3008, HasMem: true,
		},
	},
	{
		name: "fstp-dword-second-slot",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.SetReg(isa.ESI, 0x3000)
			m.Mem.Write(0x2000, 8, math.Float64bits(1.0/3))
			m.Mem.Write(0x2008, 8, math.Float64bits(2.5))
		},
		prefix: []isa.Inst{{Op: isa.FLD, Dst: isa.Mem(isa.EBX, 0, 8)}, {Op: isa.FLD, Dst: isa.Mem(isa.EBX, 8, 8)}},
		inst:   isa.Inst{Op: isa.FSTP, Dst: isa.Mem(isa.ESI, 0, 4)},
		want: rrec{
			Effects: []reffect{{
				Dst: rref{Space: trace.SpaceMem, Addr: 0x3000, Width: 4, Val: uint64(math.Float32bits(2.5)), Float: true},
				Op:  trace.OpIdentity, Srcs: []rref{rfreg(isa.F6, 2.5)}}},
			AddrRefs: []rref{rreg(isa.ESI, 0x3000)},
			MemAddr:  0x3000, HasMem: true,
		},
	},
	{
		name: "fstp-qword",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.Mem.Write(0x2000, 8, math.Float64bits(1.0/3))
		},
		prefix: []isa.Inst{{Op: isa.FLD, Dst: isa.Mem(isa.EBX, 0, 8)}},
		inst:   isa.Inst{Op: isa.FSTP, Dst: isa.Mem(isa.EBX, 16, 8)},
		want: rrec{
			Effects: []reffect{{
				Dst: rref{Space: trace.SpaceMem, Addr: 0x2010, Width: 8, Val: math.Float64bits(1.0 / 3), Float: true},
				Op:  trace.OpIdentity, Srcs: []rref{rfreg(isa.F7, 1.0/3)}}},
			AddrRefs: []rref{rreg(isa.EBX, 0x2000)},
			MemAddr:  0x2010, HasMem: true,
		},
	},
	{
		name: "fistp-dword-rounds-to-even",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.SetReg(isa.ECX, 2)
			m.Mem.Write(0x2000, 8, math.Float64bits(-2.5))
		},
		prefix: []isa.Inst{{Op: isa.FLD, Dst: isa.Mem(isa.EBX, 0, 8)}},
		inst:   isa.Inst{Op: isa.FISTP, Dst: isa.MemOp(isa.EBX, isa.ECX, 8, 0, 4)},
		want: rrec{
			Effects: []reffect{{Dst: rmem(0x2010, 4, 0xfffffffe), Op: trace.OpFPToInt,
				Srcs: []rref{rfreg(isa.F7, -2.5)}}},
			AddrRefs: []rref{rreg(isa.EBX, 0x2000), rreg(isa.ECX, 2)},
			MemAddr:  0x2010, HasMem: true,
		},
	},
	{
		name: "call-import",
		init: func(m *Machine) {
			m.SetReg(isa.EBX, 0x2000)
			m.Mem.Write(0x2000, 8, math.Float64bits(2))
		},
		prefix: []isa.Inst{{Op: isa.FLD, Dst: isa.Mem(isa.EBX, 0, 8)}},
		inst:   isa.Inst{Op: isa.CALL, Sym: "sqrt"},
		want: rrec{
			Effects: []reffect{{Dst: rfreg(isa.F7, math.Sqrt2), Op: trace.OpCall, Srcs: []rref{rfreg(isa.F7, 2)}}},
			Sym:     "sqrt",
		},
	},
}

// TestRecordMemoryOperands pins the dynamic record of every memory-operand
// form the tracer handles, through both the batch InstTrace and a
// deep-copying streaming sink.
func TestRecordMemoryOperands(t *testing.T) {
	for _, tc := range recordCases {
		t.Run(tc.name, func(t *testing.T) {
			p := recordProgram(tc)
			addr := recEntry + uint32(len(tc.prefix))*4
			want := tc.want
			want.Addr, want.Op = addr, tc.inst.Op
			w := tc.inst.Dst.OpWidth()
			if w == 0 {
				w = tc.inst.Src.OpWidth()
			}
			want.Width = uint8(w)
			want.Effects = append([]reffect(nil), want.Effects...)
			for i := range want.Effects {
				want.Effects[i].Dst.F = 0
			}

			pick := func(recs []trace.DynInst) (rrec, error) {
				for _, di := range recs {
					if di.Addr == addr {
						return normRec(di), nil
					}
				}
				return rrec{}, fmt.Errorf("no record at %#x among %d", addr, len(recs))
			}

			m := NewMachine(p)
			tc.init(m)
			res, err := m.RunTrace(TraceOptions{FilterEntry: recEntry})
			if err != nil {
				t.Fatalf("RunTrace: %v", err)
			}
			var batch []trace.DynInst
			for i := 0; i < res.Trace.Len(); i++ {
				batch = append(batch, stored(res.Trace, p, i))
			}
			got, err := pick(batch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("RunTrace record\n got %+v\nwant %+v", got, want)
			}

			m = NewMachine(p)
			tc.init(m)
			var streamed []trace.DynInst
			if _, err := m.RunTraceStream(TraceOptions{FilterEntry: recEntry}, trace.SinkFunc(func(di trace.DynInst) error {
				streamed = append(streamed, deepCopy(di))
				return nil
			})); err != nil {
				t.Fatalf("RunTraceStream: %v", err)
			}
			got, err = pick(streamed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("RunTraceStream record\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestFloatStoreDecodesStoredBits pins what a 4-byte float store's refs
// decode to: the destination reports the float32-rounded value it stored,
// the source register the unrounded double.  Only source refs are lifted
// as constants, so the rounding never reaches a lifted tree.
func TestFloatStoreDecodesStoredBits(t *testing.T) {
	m := NewMachine(recordProgram(recordCase{
		prefix: []isa.Inst{{Op: isa.FLD, Dst: isa.Mem(isa.EBX, 0, 8)}},
		inst:   isa.Inst{Op: isa.FST, Dst: isa.Mem(isa.ESI, 0, 4)},
	}))
	m.SetReg(isa.EBX, 0x2000)
	m.SetReg(isa.ESI, 0x3000)
	m.Mem.Write(0x2000, 8, math.Float64bits(0.1))
	res, err := m.RunTrace(TraceOptions{FilterEntry: recEntry})
	if err != nil {
		t.Fatalf("RunTrace: %v", err)
	}
	tr := res.Trace
	ef := &tr.Effects(tr.At(1))[0]
	if got, want := ef.Dst.FVal(), f32(0.1); got != want {
		t.Errorf("fst dword destination decodes to %v, want the rounded %v", got, want)
	}
	if got := tr.Srcs(ef)[0].FVal(); got != 0.1 {
		t.Errorf("fst source register decodes to %v, want 0.1", got)
	}
}

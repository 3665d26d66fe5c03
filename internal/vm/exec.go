package vm

import (
	"math"

	"helium/internal/isa"
	"helium/internal/trace"
)

// stepRecord collects everything instrumentation wants to know about a
// single executed instruction.  A nil record disables all collection.
type stepRecord struct {
	instAddr uint32
	op       isa.Opcode
	width    uint8
	effects  []trace.Effect
	srcs     []trace.Ref // backing store of every effect's Srcs
	addrRefs []trace.Ref
	memAddr  uint64
	hasMem   bool
	taken    bool
	isBranch bool
	sym      string
	accesses []trace.MemAccess
}

func (r *stepRecord) reset() {
	r.instAddr = 0
	r.op = isa.NOP
	r.width = 0
	r.effects = r.effects[:0]
	r.srcs = r.srcs[:0]
	r.addrRefs = r.addrRefs[:0]
	r.accesses = r.accesses[:0]
	r.memAddr = 0
	r.hasMem = false
	r.taken = false
	r.isBranch = false
	r.sym = ""
}

// effect records one assignment.  Its sources are copied into the record's
// srcs buffer, which reset recycles: an effect's Srcs stay valid until the
// next reset.
func (r *stepRecord) effect(dst trace.Ref, op trace.ExprOp, srcs ...trace.Ref) {
	if r == nil {
		return
	}
	start := len(r.srcs)
	r.srcs = append(r.srcs, srcs...)
	end := len(r.srcs)
	r.effects = append(r.effects, trace.Effect{Dst: dst, Op: op, Srcs: r.srcs[start:end:end]})
}

// mem records a memory operand access: its address registers, its
// address and the access itself.
func (r *stepRecord) mem(instAddr uint32, addr uint32, width int, regs *addrRegs, write bool) {
	if r == nil {
		return
	}
	r.addrRefs = append(r.addrRefs, regs.slice()...)
	r.memAddr = uint64(addr)
	r.hasMem = true
	r.access(instAddr, addr, width, write)
}

func (r *stepRecord) access(instAddr uint32, addr uint32, width int, write bool) {
	if r == nil {
		return
	}
	r.accesses = append(r.accesses, trace.MemAccess{
		InstAddr: instAddr, Addr: uint64(addr), Width: uint8(width), Write: write,
	})
}

// maskWidth truncates v to the given byte width.
func maskWidth(v uint64, width int) uint64 {
	switch width {
	case 1:
		return v & 0xff
	case 2:
		return v & 0xffff
	case 4:
		return v & 0xffffffff
	default:
		return v
	}
}

// signExtend sign-extends a value of the given byte width to 64 bits.
func signExtend(v uint64, width int) int64 {
	switch width {
	case 1:
		return int64(int8(v))
	case 2:
		return int64(int16(v))
	case 4:
		return int64(int32(v))
	default:
		return int64(v)
	}
}

// operandValue reads an operand, returning its value, the Ref describing
// it, and memory metadata when the operand is a memory reference.
func (m *Machine) operandValue(inst *isa.Inst, o *isa.Operand, rec *stepRecord) (uint64, trace.Ref, error) {
	switch o.Kind {
	case isa.KindReg:
		return m.readReg(o.Reg), m.regRef(o.Reg), nil
	case isa.KindImm:
		return uint64(o.Imm), immRef(o.Imm), nil
	case isa.KindMem:
		addr, regs := m.effectiveAddr(o)
		v := m.Mem.Read(addr, o.Width)
		rec.mem(inst.Addr, addr, o.Width, &regs, false)
		return v, memRef(addr, o.Width, v), nil
	}
	return 0, trace.Ref{}, m.faultf("unsupported operand kind %d", o.Kind)
}

// operandFloat reads a floating point memory operand (width 4 or 8) or an
// integer memory operand for FILD.
func (m *Machine) operandFloat(inst *isa.Inst, o *isa.Operand, rec *stepRecord) (float64, trace.Ref, error) {
	if o.Kind != isa.KindMem {
		return 0, trace.Ref{}, m.faultf("float operand must be memory")
	}
	addr, regs := m.effectiveAddr(o)
	bits := m.Mem.Read(addr, o.Width)
	var v float64
	if o.Width == 4 {
		v = float64(math.Float32frombits(uint32(bits)))
	} else {
		v = math.Float64frombits(bits)
	}
	rec.mem(inst.Addr, addr, o.Width, &regs, false)
	return v, memRefF(addr, o.Width, v), nil
}

// writeOperand writes v to a register or memory destination and returns the
// Ref describing the write.
func (m *Machine) writeOperand(inst *isa.Inst, o *isa.Operand, v uint64, rec *stepRecord) (trace.Ref, error) {
	switch o.Kind {
	case isa.KindReg:
		m.writeReg(o.Reg, maskWidth(v, o.Reg.Width()))
		ref := m.regRef(o.Reg)
		return ref, nil
	case isa.KindMem:
		addr, regs := m.effectiveAddr(o)
		v = maskWidth(v, o.Width)
		m.Mem.Write(addr, o.Width, v)
		rec.mem(inst.Addr, addr, o.Width, &regs, true)
		return memRef(addr, o.Width, v), nil
	}
	return trace.Ref{}, m.faultf("cannot write operand kind %d", o.Kind)
}

// setFlagsArith updates flags after an addition a + b + carry or a
// subtraction a - b - carry of values of the given width; carry is the
// incoming CF (0 or 1) of adc/sbb and 0 otherwise.  sub selects
// subtraction semantics.  CF and OF are derived from the operands and
// the carry separately, never from b+carry, which can itself wrap.
func (m *Machine) setFlagsArith(a, b, carry, result uint64, width int, sub bool, keepCF bool) {
	signBit := uint64(1) << (uint(width)*8 - 1)
	a, b, r := maskWidth(a, width), maskWidth(b, width), maskWidth(result, width)
	m.flag.zf = r == 0
	m.flag.sf = r&signBit != 0
	if !keepCF {
		// With a carry in, a sum that lands back on a has wrapped, and a
		// difference of equal operands borrows.
		if sub {
			m.flag.cf = a < b || (carry != 0 && a == b)
		} else {
			m.flag.cf = r < a || (carry != 0 && r == a)
		}
	}
	if sub {
		m.flag.of = (a^b)&(a^r)&signBit != 0
	} else {
		m.flag.of = (a^r)&(b^r)&signBit != 0
	}
}

// setFlagsLogic updates flags after a bitwise operation.
func (m *Machine) setFlagsLogic(result uint64, width int) {
	r := maskWidth(result, width)
	m.flag.zf = r == 0
	m.flag.sf = r&(uint64(1)<<(uint(width)*8-1)) != 0
	m.flag.cf = false
	m.flag.of = false
}

// evalCond evaluates a conditional jump or set opcode against the current
// flags.
func (m *Machine) evalCond(op isa.Opcode) bool {
	f := m.flag
	switch op {
	case isa.JZ, isa.SETZ:
		return f.zf
	case isa.JNZ, isa.SETNZ:
		return !f.zf
	case isa.JB, isa.SETB:
		return f.cf
	case isa.JNB, isa.SETNB:
		return !f.cf
	case isa.JBE:
		return f.cf || f.zf
	case isa.JA:
		return !f.cf && !f.zf
	case isa.JL:
		return f.sf != f.of
	case isa.JGE:
		return f.sf == f.of
	case isa.JLE:
		return f.zf || f.sf != f.of
	case isa.JG:
		return !f.zf && f.sf == f.of
	case isa.JS:
		return f.sf
	case isa.JNS:
		return !f.sf
	}
	return false
}

// step executes one instruction, optionally filling rec with its effects
// and memory accesses.
func (m *Machine) step(rec *stepRecord) error {
	if m.halted {
		return m.faultf("machine is halted")
	}
	idx := m.pc
	if idx < 0 {
		return m.faultf("no instruction at eip")
	}
	in := &m.Prog.Insts[idx]
	succ := m.Prog.Successors(idx)
	next := uint32(0)
	if idx+1 < len(m.Prog.Insts) {
		next = m.Prog.Insts[idx+1].Addr
	}
	m.steps++
	if rec != nil {
		rec.instAddr = in.Addr
		rec.op = in.Op
		w := in.Dst.OpWidth()
		if w == 0 {
			w = in.Src.OpWidth()
		}
		rec.width = uint8(w)
	}

	// A taken branch goes to branchTo, the instruction at index branchPC.
	branchTo := uint32(0)
	branchPC := 0
	branched := false

	switch in.Op {
	case isa.NOP:

	case isa.MOV:
		v, src, err := m.operandValue(in, &in.Src, rec)
		if err != nil {
			return err
		}
		dst, err := m.writeOperand(in, &in.Dst, v, rec)
		if err != nil {
			return err
		}
		rec.effect(dst, trace.OpIdentity, src)

	case isa.MOVZX:
		v, src, err := m.operandValue(in, &in.Src, rec)
		if err != nil {
			return err
		}
		dst, err := m.writeOperand(in, &in.Dst, v, rec)
		if err != nil {
			return err
		}
		rec.effect(dst, trace.OpZExt, src)

	case isa.MOVSX:
		v, src, err := m.operandValue(in, &in.Src, rec)
		if err != nil {
			return err
		}
		sv := uint64(signExtend(v, in.Src.OpWidth()))
		dst, err := m.writeOperand(in, &in.Dst, sv, rec)
		if err != nil {
			return err
		}
		rec.effect(dst, trace.OpSExt, src)

	case isa.LEA:
		addr, regs := m.effectiveAddr(&in.Src)
		dst, err := m.writeOperand(in, &in.Dst, uint64(addr), rec)
		if err != nil {
			return err
		}
		// lea performs no memory access, so nothing is added to the memory
		// trace, but the computation itself is data flow.
		base := immRef(0)
		if in.Src.Base != isa.RegNone {
			base = m.regRefBefore(in.Src.Base, regs.slice())
		}
		index := immRef(0)
		if in.Src.Index != isa.RegNone {
			index = m.regRefBefore(in.Src.Index, regs.slice())
		}
		rec.effect(dst, trace.OpLea, base, index, immRef(int64(in.Src.Scale)), immRef(int64(in.Src.Disp)))

	case isa.PUSH:
		v, src, err := m.operandValue(in, &in.Src, rec)
		if err != nil {
			// Allow push with the operand in Dst for convenience.
			v, src, err = m.operandValue(in, &in.Dst, rec)
			if err != nil {
				return err
			}
		}
		espOld := m.regRef(isa.ESP)
		esp := m.regs[isa.ESP-isa.EAX] - 4
		m.regs[isa.ESP-isa.EAX] = esp
		m.Mem.Write(esp, 4, maskWidth(v, 4))
		rec.access(in.Addr, esp, 4, true)
		rec.effect(memRef(esp, 4, maskWidth(v, 4)), trace.OpIdentity, src)
		rec.effect(m.regRef(isa.ESP), trace.OpSub, espOld, immRef(4))

	case isa.POP:
		espOld := m.regRef(isa.ESP)
		esp := m.regs[isa.ESP-isa.EAX]
		v := m.Mem.Read(esp, 4)
		rec.access(in.Addr, esp, 4, false)
		m.regs[isa.ESP-isa.EAX] = esp + 4
		dst, err := m.writeOperand(in, &in.Dst, v, rec)
		if err != nil {
			return err
		}
		rec.effect(dst, trace.OpIdentity, memRef(esp, 4, v))
		rec.effect(m.regRef(isa.ESP), trace.OpAdd, espOld, immRef(4))

	case isa.CDQ:
		eax := m.regRef(isa.EAX)
		var edx uint64
		if int32(m.regs[0]) < 0 {
			edx = 0xffffffff
		}
		m.writeReg(isa.EDX, edx)
		rec.effect(m.regRef(isa.EDX), trace.OpSar, eax, immRef(31))

	case isa.ADD, isa.ADC, isa.SUB, isa.SBB, isa.AND, isa.OR, isa.XOR, isa.IMUL:
		if err := m.execBinary(in, rec); err != nil {
			return err
		}

	case isa.NOT, isa.NEG, isa.INC, isa.DEC:
		if err := m.execUnary(in, rec); err != nil {
			return err
		}

	case isa.SHL, isa.SHR, isa.SAR:
		if err := m.execShift(in, rec); err != nil {
			return err
		}

	case isa.MUL, isa.DIV:
		if err := m.execMulDiv(in, rec); err != nil {
			return err
		}

	case isa.CMP:
		a, aref, err := m.operandValue(in, &in.Dst, rec)
		if err != nil {
			return err
		}
		b, bref, err := m.operandValue(in, &in.Src, rec)
		if err != nil {
			return err
		}
		w := in.Dst.OpWidth()
		m.setFlagsArith(a, b, 0, a-b, w, true, false)
		rec.effect(m.flagsRef(), trace.OpCmp, aref, bref)

	case isa.TEST:
		a, aref, err := m.operandValue(in, &in.Dst, rec)
		if err != nil {
			return err
		}
		b, bref, err := m.operandValue(in, &in.Src, rec)
		if err != nil {
			return err
		}
		m.setFlagsLogic(a&b, in.Dst.OpWidth())
		rec.effect(m.flagsRef(), trace.OpTest, aref, bref)

	case isa.JMP:
		branched, branchTo, branchPC = true, in.Target, int(succ.Target)

	case isa.JZ, isa.JNZ, isa.JB, isa.JNB, isa.JBE, isa.JA,
		isa.JL, isa.JGE, isa.JLE, isa.JG, isa.JS, isa.JNS:
		taken := m.evalCond(in.Op)
		if rec != nil {
			rec.taken = taken
			rec.isBranch = true
		}
		rec.effect(trace.Ref{Space: trace.SpaceNone}, trace.OpBranch, m.flagsRef())
		if taken {
			branched, branchTo, branchPC = true, in.Target, int(succ.Target)
		}

	case isa.SETZ, isa.SETNZ, isa.SETB, isa.SETNB:
		var v uint64
		if m.evalCond(in.Op) {
			v = 1
		}
		dst, err := m.writeOperand(in, &in.Dst, v, rec)
		if err != nil {
			return err
		}
		rec.effect(dst, trace.OpSelectSet, m.flagsRef())

	case isa.CALL:
		if in.Sym != "" {
			handler, ok := m.Imports[in.Sym]
			if !ok {
				return m.faultf("unresolved import %q", in.Sym)
			}
			before := m.regRef(m.fpuTopReg())
			if err := handler(m); err != nil {
				return err
			}
			rec.effect(m.regRef(m.fpuTopReg()), trace.OpCall, before)
			if rec != nil {
				rec.sym = in.Sym
			}
		} else {
			m.push32(next)
			rec.access(in.Addr, m.regs[isa.ESP-isa.EAX], 4, true)
			m.callDepth++
			branched, branchTo, branchPC = true, in.Target, int(succ.Target)
		}

	case isa.RET:
		ret := m.pop32()
		m.callDepth--
		if ret == retSentinel {
			m.halted = true
			return nil
		}
		branched, branchTo, branchPC = true, ret, m.pcOf(ret)

	case isa.CPUID:
		// The instrumentation tool intercepts cpuid and reports that no
		// vector instruction sets are available (paper section 6.1), forcing
		// the application onto its general purpose code paths.
		for _, r := range []isa.Reg{isa.EAX, isa.EBX, isa.ECX, isa.EDX} {
			m.writeReg(r, 0)
			rec.effect(m.regRef(r), trace.OpIdentity, immRef(0))
		}

	case isa.FLD, isa.FILD, isa.FLDZ, isa.FST, isa.FSTP, isa.FISTP,
		isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FADDP, isa.FMULP, isa.FXCH:
		if err := m.execFloat(in, rec); err != nil {
			return err
		}

	default:
		return m.faultf("unimplemented opcode %v", in.Op)
	}

	if branched {
		m.eip, m.pc = branchTo, branchPC
	} else {
		if next == 0 {
			m.halted = true
		}
		m.eip, m.pc = next, int(succ.Next)
	}
	return nil
}

// regRefBefore returns the Ref for register r captured in refs (its value
// before any write this instruction performed), falling back to the current
// value.
func (m *Machine) regRefBefore(r isa.Reg, refs []trace.Ref) trace.Ref {
	addr := trace.RegAddr(r)
	for _, ref := range refs {
		if ref.Space == trace.SpaceReg && ref.Addr == addr && int(ref.Width) == r.Width() {
			return ref
		}
	}
	return m.regRef(r)
}

// execBinary handles two-operand integer arithmetic and logic.
func (m *Machine) execBinary(in *isa.Inst, rec *stepRecord) error {
	// Three-operand imul: dst = src * imm.
	if in.Op == isa.IMUL && in.Src2.Kind == isa.KindImm {
		a, aref, err := m.operandValue(in, &in.Src, rec)
		if err != nil {
			return err
		}
		w := in.Dst.OpWidth()
		res := maskWidth(uint64(int64(a)*in.Src2.Imm), w)
		dst, err := m.writeOperand(in, &in.Dst, res, rec)
		if err != nil {
			return err
		}
		m.setFlagsLogic(res, w)
		rec.effect(dst, trace.OpMul, aref, immRef(in.Src2.Imm))
		rec.effect(m.flagsRef(), trace.OpMul, aref, immRef(in.Src2.Imm))
		return nil
	}

	a, aref, err := m.operandValue(in, &in.Dst, rec)
	if err != nil {
		return err
	}
	b, bref, err := m.operandValue(in, &in.Src, rec)
	if err != nil {
		return err
	}
	w := in.Dst.OpWidth()
	var res uint64
	var op trace.ExprOp
	var srcs []trace.Ref
	carryIn := uint64(0)
	if m.flag.cf {
		carryIn = 1
	}
	flagsBefore := m.flagsRef()

	switch in.Op {
	case isa.ADD:
		res = a + b
		op, srcs = trace.OpAdd, []trace.Ref{aref, bref}
		m.setFlagsArith(a, b, 0, res, w, false, false)
	case isa.ADC:
		res = a + b + carryIn
		op, srcs = trace.OpAdd, []trace.Ref{aref, bref, flagsBefore}
		m.setFlagsArith(a, b, carryIn, res, w, false, false)
	case isa.SUB:
		res = a - b
		op, srcs = trace.OpSub, []trace.Ref{aref, bref}
		m.setFlagsArith(a, b, 0, res, w, true, false)
	case isa.SBB:
		res = a - b - carryIn
		op, srcs = trace.OpSub, []trace.Ref{aref, bref, flagsBefore}
		m.setFlagsArith(a, b, carryIn, res, w, true, false)
	case isa.AND:
		res = a & b
		op, srcs = trace.OpAnd, []trace.Ref{aref, bref}
		m.setFlagsLogic(res, w)
	case isa.OR:
		res = a | b
		op, srcs = trace.OpOr, []trace.Ref{aref, bref}
		m.setFlagsLogic(res, w)
	case isa.XOR:
		res = a ^ b
		m.setFlagsLogic(res, w)
		// xor r, r is the canonical zeroing idiom; treating it as a constant
		// load avoids a bogus data dependency on the previous register value.
		if in.Dst.Kind == isa.KindReg && in.Src.Kind == isa.KindReg && in.Dst.Reg == in.Src.Reg {
			op, srcs = trace.OpIdentity, []trace.Ref{immRef(0)}
		} else {
			op, srcs = trace.OpXor, []trace.Ref{aref, bref}
		}
	case isa.IMUL:
		res = uint64(signExtend(a, w) * signExtend(b, w))
		op, srcs = trace.OpMul, []trace.Ref{aref, bref}
		m.setFlagsLogic(maskWidth(res, w), w)
	}
	res = maskWidth(res, w)
	dst, err := m.writeOperand(in, &in.Dst, res, rec)
	if err != nil {
		return err
	}
	rec.effect(dst, op, srcs...)
	rec.effect(m.flagsRef(), op, srcs...)
	return nil
}

// execUnary handles single-operand integer instructions.
func (m *Machine) execUnary(in *isa.Inst, rec *stepRecord) error {
	a, aref, err := m.operandValue(in, &in.Dst, rec)
	if err != nil {
		return err
	}
	w := in.Dst.OpWidth()
	var res uint64
	var op trace.ExprOp
	var srcs []trace.Ref
	switch in.Op {
	case isa.NOT:
		res = ^a
		op, srcs = trace.OpNot, []trace.Ref{aref}
		// not does not affect flags.
	case isa.NEG:
		res = -a
		op, srcs = trace.OpNeg, []trace.Ref{aref}
		m.setFlagsArith(0, a, 0, res, w, true, false)
	case isa.INC:
		res = a + 1
		op, srcs = trace.OpAdd, []trace.Ref{aref, immRef(1)}
		m.setFlagsArith(a, 1, 0, res, w, false, true)
	case isa.DEC:
		res = a - 1
		op, srcs = trace.OpSub, []trace.Ref{aref, immRef(1)}
		m.setFlagsArith(a, 1, 0, res, w, true, true)
	}
	res = maskWidth(res, w)
	dst, err := m.writeOperand(in, &in.Dst, res, rec)
	if err != nil {
		return err
	}
	rec.effect(dst, op, srcs...)
	if in.Op != isa.NOT {
		rec.effect(m.flagsRef(), op, srcs...)
	}
	return nil
}

// execShift handles shift instructions; the count is an immediate or CL.
func (m *Machine) execShift(in *isa.Inst, rec *stepRecord) error {
	a, aref, err := m.operandValue(in, &in.Dst, rec)
	if err != nil {
		return err
	}
	cnt, cref, err := m.operandValue(in, &in.Src, rec)
	if err != nil {
		return err
	}
	w := in.Dst.OpWidth()
	sh := uint(cnt & 31)
	var res uint64
	var op trace.ExprOp
	switch in.Op {
	case isa.SHL:
		res = a << sh
		op = trace.OpShl
	case isa.SHR:
		res = maskWidth(a, w) >> sh
		op = trace.OpShr
	case isa.SAR:
		res = uint64(signExtend(a, w) >> sh)
		op = trace.OpSar
	}
	res = maskWidth(res, w)
	m.setFlagsLogic(res, w)
	dst, err := m.writeOperand(in, &in.Dst, res, rec)
	if err != nil {
		return err
	}
	rec.effect(dst, op, aref, cref)
	rec.effect(m.flagsRef(), op, aref, cref)
	return nil
}

// execMulDiv handles the one-operand multiply and divide forms.  MUL
// writes the 64-bit product to EDX:EAX as on x86.  DIV deviates from x86:
// the dividend is EAX alone, not EDX:EAX, so EDX's prior value is ignored
// and the quotient cannot overflow; EAX gets the quotient, EDX the
// remainder, and a zero divisor faults.  The corpus relies on this:
// boxblur3 divides with a row pointer in EDX.
func (m *Machine) execMulDiv(in *isa.Inst, rec *stepRecord) error {
	b, bref, err := m.operandValue(in, &in.Dst, rec)
	if err != nil {
		return err
	}
	eaxRef := m.regRef(isa.EAX)
	a := uint64(m.regs[0])
	switch in.Op {
	case isa.MUL:
		full := a * maskWidth(b, 4)
		m.writeReg(isa.EAX, full&0xffffffff)
		m.writeReg(isa.EDX, full>>32)
		rec.effect(m.regRef(isa.EAX), trace.OpMul, eaxRef, bref)
		rec.effect(m.regRef(isa.EDX), trace.OpMulHi, eaxRef, bref)
	case isa.DIV:
		if maskWidth(b, 4) == 0 {
			return m.faultf("division by zero")
		}
		q := a / maskWidth(b, 4)
		r := a % maskWidth(b, 4)
		m.writeReg(isa.EAX, q)
		m.writeReg(isa.EDX, r)
		rec.effect(m.regRef(isa.EAX), trace.OpDiv, eaxRef, bref)
		rec.effect(m.regRef(isa.EDX), trace.OpMod, eaxRef, bref)
	}
	return nil
}

// execFloat handles the x87-style floating point subset.  Stack-relative
// locations are resolved to physical registers here, so the trace already
// contains renamed registers (paper section 4.5).
func (m *Machine) execFloat(in *isa.Inst, rec *stepRecord) error {
	switch in.Op {
	case isa.FLDZ:
		r := m.fpuPush(0)
		rec.effect(m.regRef(r), trace.OpIdentity, trace.Ref{Space: trace.SpaceImm, Width: 8, Val: 0, Float: true})

	case isa.FLD:
		v, src, err := m.operandFloat(in, &in.Dst, rec)
		if err != nil {
			return err
		}
		r := m.fpuPush(v)
		rec.effect(m.regRef(r), trace.OpIdentity, src)

	case isa.FILD:
		if in.Dst.Kind != isa.KindMem {
			return m.faultf("fild requires a memory operand")
		}
		addr, regs := m.effectiveAddr(&in.Dst)
		iv := signExtend(m.Mem.Read(addr, in.Dst.Width), in.Dst.Width)
		rec.mem(in.Addr, addr, in.Dst.Width, &regs, false)
		r := m.fpuPush(float64(iv))
		rec.effect(m.regRef(r), trace.OpIntToFP, memRef(addr, in.Dst.Width, uint64(iv)))

	case isa.FST, isa.FSTP:
		if in.Dst.Kind != isa.KindMem {
			return m.faultf("fst requires a memory operand")
		}
		addr, regs := m.effectiveAddr(&in.Dst)
		topRef := m.regRef(m.fpuTopReg())
		v := m.fpuTop()
		var bits uint64
		if in.Dst.Width == 4 {
			bits = uint64(math.Float32bits(float32(v)))
		} else {
			bits = math.Float64bits(v)
		}
		m.Mem.Write(addr, in.Dst.Width, bits)
		rec.mem(in.Addr, addr, in.Dst.Width, &regs, true)
		rec.effect(memRefF(addr, in.Dst.Width, v), trace.OpIdentity, topRef)
		if in.Op == isa.FSTP {
			m.fpuPop()
		}

	case isa.FISTP:
		if in.Dst.Kind != isa.KindMem {
			return m.faultf("fistp requires a memory operand")
		}
		addr, regs := m.effectiveAddr(&in.Dst)
		topRef := m.regRef(m.fpuTopReg())
		v := m.fpuTop()
		iv := int64(math.RoundToEven(v))
		m.Mem.Write(addr, in.Dst.Width, maskWidth(uint64(iv), in.Dst.Width))
		rec.mem(in.Addr, addr, in.Dst.Width, &regs, true)
		rec.effect(memRef(addr, in.Dst.Width, maskWidth(uint64(iv), in.Dst.Width)), trace.OpFPToInt, topRef)
		m.fpuPop()

	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
		v, src, err := m.operandFloat(in, &in.Dst, rec)
		if err != nil {
			return err
		}
		topRef := m.regRef(m.fpuTopReg())
		a := m.fpuTop()
		var res float64
		var op trace.ExprOp
		switch in.Op {
		case isa.FADD:
			res, op = a+v, trace.OpFAdd
		case isa.FSUB:
			res, op = a-v, trace.OpFSub
		case isa.FMUL:
			res, op = a*v, trace.OpFMul
		case isa.FDIV:
			res, op = a/v, trace.OpFDiv
		}
		m.fpuReplaceTop(res)
		rec.effect(m.regRef(m.fpuTopReg()), op, topRef, src)

	case isa.FADDP, isa.FMULP:
		st0Ref := m.regRef(m.fpuTopReg())
		st1Reg := m.fpuST(1)
		st1Ref := m.regRef(st1Reg)
		a := m.fregs[st1Reg-isa.F0]
		b := m.fpuTop()
		var res float64
		var op trace.ExprOp
		if in.Op == isa.FADDP {
			res, op = a+b, trace.OpFAdd
		} else {
			res, op = a*b, trace.OpFMul
		}
		m.fregs[st1Reg-isa.F0] = res
		m.fpuPop()
		rec.effect(m.regRef(st1Reg), op, st1Ref, st0Ref)

	case isa.FXCH:
		st0 := m.fpuTopReg()
		st1 := m.fpuST(1)
		r0, r1 := m.regRef(st0), m.regRef(st1)
		m.fregs[st0-isa.F0], m.fregs[st1-isa.F0] = m.fregs[st1-isa.F0], m.fregs[st0-isa.F0]
		rec.effect(m.regRef(st0), trace.OpIdentity, r1)
		rec.effect(m.regRef(st1), trace.OpIdentity, r0)
	}
	return nil
}

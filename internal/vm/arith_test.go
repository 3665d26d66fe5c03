package vm

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"helium/internal/isa"
)

// arithEntry is where the arithmetic-semantics programs are laid out.
const arithEntry uint32 = 0x00403000

// program lays insts out four bytes apart from arithEntry.
func program(name string, insts ...isa.Inst) *isa.Program {
	p := &isa.Program{Name: name, Entry: arithEntry}
	for i, in := range insts {
		in.Addr = arithEntry + uint32(i)*4
		p.Insts = append(p.Insts, in)
	}
	p.BuildIndex()
	return p
}

// flagProgram sets CF to carry with a cmp, runs op on the width's A and B
// registers, then reads the flags back the way compiled code does: CF
// through setb dl, ZF through setz cl, and SF != OF through jl, which
// leaves ESI = 1 when taken.
func flagProgram(op isa.Opcode, a, b isa.Reg, carry int64) *isa.Program {
	const jlTarget = arithEntry + 8*4
	return program("flags",
		isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.ECX), Src: isa.ImmOp(0)},
		isa.Inst{Op: isa.CMP, Dst: isa.RegOp(isa.ECX), Src: isa.ImmOp(carry)},
		isa.Inst{Op: op, Dst: isa.RegOp(a), Src: isa.RegOp(b)},
		isa.Inst{Op: isa.SETB, Dst: isa.RegOp(isa.DL)},
		isa.Inst{Op: isa.SETZ, Dst: isa.RegOp(isa.CL)},
		isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.ESI), Src: isa.ImmOp(0)},
		isa.Inst{Op: isa.JL, Target: jlTarget},
		isa.Inst{Op: isa.RET},
		isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.ESI), Src: isa.ImmOp(1)},
		isa.Inst{Op: isa.RET},
	)
}

// arithWant is the x86 outcome of op on width-w operands a and b with the
// given carry in: the destination value, CF, ZF, and SF != OF.
func arithWant(op isa.Opcode, a, b, carry uint32, w int) (res uint32, cf, zf, less bool) {
	n := uint(8 * w)
	mask := uint32(uint64(1)<<n - 1)
	sext := func(v uint32) int64 { return int64(int32(v<<(32-n))) >> (32 - n) }
	var signed int64
	switch op {
	case isa.ADD, isa.ADC:
		if op == isa.ADD {
			carry = 0
		}
		sum, out := bits.Add32(a, b, carry)
		res = sum & mask
		cf = (uint64(out)<<32|uint64(sum))>>n != 0
		signed = sext(a) + sext(b) + int64(carry)
	case isa.SUB, isa.SBB, isa.CMP:
		if op != isa.SBB {
			carry = 0
		}
		// Operands are zero-extended below 2^32, so the 32-bit borrow
		// is the borrow at every narrower width too.
		diff, borrow := bits.Sub32(a, b, carry)
		res = diff & mask
		cf = borrow != 0
		signed = sext(a) - sext(b) - int64(carry)
	}
	of := signed != sext(res)
	sf := res>>(n-1) != 0
	return res, cf, res == 0, sf != of
}

// TestArithFlags pins add/adc/sub/sbb/cmp against math/bits and signed
// arithmetic at every integer width, on the operands where carries and
// signed overflows happen, with CF both clear and set going in.  adc and
// sbb are the cases where src + carry wraps on its own.
func TestArithFlags(t *testing.T) {
	regs := map[int][2]isa.Reg{1: {isa.AL, isa.BL}, 2: {isa.AX, isa.BX}, 4: {isa.EAX, isa.EBX}}
	// Bits above the operand width, which a narrow op must leave alone.
	const upper = 0xc3c3c3c3
	for _, w := range []int{1, 2, 4} {
		n := uint(8 * w)
		mask := uint32(uint64(1)<<n - 1)
		sign := uint32(1) << (n - 1)
		vals := []uint32{0, 1, mask, sign, sign - 1}
		for _, op := range []isa.Opcode{isa.ADD, isa.ADC, isa.SUB, isa.SBB, isa.CMP} {
			for _, carry := range []uint32{0, 1} {
				p := flagProgram(op, regs[w][0], regs[w][1], int64(carry))
				for _, a := range vals {
					for _, b := range vals {
						name := fmt.Sprintf("%s w%d a=%#x b=%#x cf=%d", op, w, a, b, carry)
						m := NewMachine(p)
						m.SetReg(isa.EAX, upper&^mask|a)
						m.SetReg(isa.EBX, upper&^mask|b)
						if err := m.Run(100); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						res, cf, zf, less := arithWant(op, a, b, carry, w)
						if op == isa.CMP {
							res = a
						}
						if got := m.Reg(isa.EAX); got != upper&^mask|res {
							t.Errorf("%s: eax = %#x, want %#x", name, got, upper&^mask|res)
						}
						if got := m.Reg(isa.DL) != 0; got != cf {
							t.Errorf("%s: CF (setb) = %v, want %v", name, got, cf)
						}
						if got := m.Reg(isa.CL) != 0; got != zf {
							t.Errorf("%s: ZF (setz) = %v, want %v", name, got, zf)
						}
						if got := m.Reg(isa.ESI) != 0; got != less {
							t.Errorf("%s: SF!=OF (jl taken) = %v, want %v", name, got, less)
						}
					}
				}
			}
		}
	}
}

// TestDivDividendIsEAX pins the VM's div, which deviates from x86: the
// dividend is EAX alone, so EDX is ignored going in (x86 would divide
// EDX:EAX and, for these inputs, raise a quotient-overflow fault) and
// receives the remainder; a zero divisor faults.
func TestDivDividendIsEAX(t *testing.T) {
	p := program("div", isa.Inst{Op: isa.DIV, Dst: isa.RegOp(isa.EBX)}, isa.Inst{Op: isa.RET})
	cases := []struct {
		eax, edx, ebx uint32
		quo, rem      uint32
	}{
		{eax: 10, edx: 1, ebx: 3, quo: 3, rem: 1},
		{eax: 10, edx: 0x00abcdef, ebx: 3, quo: 3, rem: 1},
		{eax: 0xffffffff, edx: 0xffffffff, ebx: 1, quo: 0xffffffff, rem: 0},
		{eax: 0x80000000, edx: 0x00fe0000, ebx: 9, quo: 0x80000000 / 9, rem: 0x80000000 % 9},
	}
	for _, tc := range cases {
		m := NewMachine(p)
		m.SetReg(isa.EAX, tc.eax)
		m.SetReg(isa.EDX, tc.edx)
		m.SetReg(isa.EBX, tc.ebx)
		if err := m.Run(10); err != nil {
			t.Fatalf("div %#x (edx %#x) by %d: %v", tc.eax, tc.edx, tc.ebx, err)
		}
		if q, r := m.Reg(isa.EAX), m.Reg(isa.EDX); q != tc.quo || r != tc.rem {
			t.Errorf("div %#x (edx %#x) by %d: eax, edx = %#x, %#x, want %#x, %#x",
				tc.eax, tc.edx, tc.ebx, q, r, tc.quo, tc.rem)
		}
	}

	m := NewMachine(p)
	m.SetReg(isa.EAX, 10)
	err := m.Run(10)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("div by zero: err = %v, want a division by zero fault", err)
	}
}

// shiftProgram sets CF, ZF=0 and SF with a cmp that borrows, runs the
// shift of reg by the immediate count, then reads the flags back: CF
// through setb dl, ZF through setz dh, SF through js (ESI = 1) and
// SF != OF through jl (EDI = 1).
func shiftProgram(op isa.Opcode, reg isa.Reg, count int64) *isa.Program {
	const (
		sfTarget   = arithEntry + 9*4
		joinTarget = arithEntry + 10*4
		lessTarget = arithEntry + 12*4
	)
	return program("shift",
		isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.ESI), Src: isa.ImmOp(0)},
		isa.Inst{Op: isa.CMP, Dst: isa.RegOp(isa.ESI), Src: isa.ImmOp(1)},
		isa.Inst{Op: op, Dst: isa.RegOp(reg), Src: isa.ImmOp(count)},
		isa.Inst{Op: isa.SETB, Dst: isa.RegOp(isa.DL)},
		isa.Inst{Op: isa.SETZ, Dst: isa.RegOp(isa.DH)},
		isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.ESI), Src: isa.ImmOp(0)},
		isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.EDI), Src: isa.ImmOp(0)},
		isa.Inst{Op: isa.JS, Target: sfTarget},
		isa.Inst{Op: isa.JMP, Target: joinTarget},
		isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.ESI), Src: isa.ImmOp(1)},
		isa.Inst{Op: isa.JL, Target: lessTarget},
		isa.Inst{Op: isa.RET},
		isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.EDI), Src: isa.ImmOp(1)},
		isa.Inst{Op: isa.RET},
	)
}

// TestShiftSemantics pins shl/shr/sar at every integer width against Go's
// shifts, with the count masked to 5 bits as on x86 (so 32 shifts by 0
// and 33 by 1, even at widths 1 and 2).  The flags pin a known deviation
// from x86: the VM sets ZF and SF from the result and clears CF and OF
// after every shift, count 0 included, where x86 leaves the flags alone at
// count 0 and sets CF to the last bit shifted out.
func TestShiftSemantics(t *testing.T) {
	regs := map[int]isa.Reg{1: isa.AL, 2: isa.AX, 4: isa.EAX}
	const upper = 0xc3c3c3c3
	for _, w := range []int{1, 2, 4} {
		n := uint(8 * w)
		mask := uint32(uint64(1)<<n - 1)
		sign := uint32(1) << (n - 1)
		vals := []uint32{0, 1, mask, sign, sign - 1, 0xa5a5a5a5 & mask}
		for _, op := range []isa.Opcode{isa.SHL, isa.SHR, isa.SAR} {
			for _, count := range []int64{0, 1, 7, 8, 15, 16, 31, 32, 33} {
				p := shiftProgram(op, regs[w], count)
				sh := uint(count & 31)
				for _, a := range vals {
					name := fmt.Sprintf("%s w%d a=%#x count=%d", op, w, a, count)
					var res uint32
					switch op {
					case isa.SHL:
						res = a << sh
					case isa.SHR:
						res = a >> sh
					case isa.SAR:
						res = uint32(int32(a<<(32-n)) >> (32 - n) >> sh)
					}
					res &= mask
					m := NewMachine(p)
					m.SetReg(isa.EAX, upper&^mask|a)
					if err := m.Run(100); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := m.Reg(isa.EAX); got != upper&^mask|res {
						t.Errorf("%s: eax = %#x, want %#x", name, got, upper&^mask|res)
					}
					sf := res&sign != 0
					if got := m.Reg(isa.DL) != 0; got {
						t.Errorf("%s: CF (setb) = true, want the VM's cleared CF", name)
					}
					if got := m.Reg(isa.DH) != 0; got != (res == 0) {
						t.Errorf("%s: ZF (setz) = %v, want %v", name, got, res == 0)
					}
					if got := m.Reg(isa.ESI) != 0; got != sf {
						t.Errorf("%s: SF (js taken) = %v, want %v", name, got, sf)
					}
					// OF is cleared, so jl follows SF alone.
					if got := m.Reg(isa.EDI) != 0; got != sf {
						t.Errorf("%s: SF!=OF (jl taken) = %v, want %v (OF clear)", name, got, sf)
					}
				}
			}
		}
	}
}

// mulVals is the operand grid of the multiply tests: the carry and sign
// boundaries plus two values whose products spread over both halves.
var mulVals = []uint32{0, 1, 2, 0x7fffffff, 0x80000000, 0xffffffff, 0x12345678, 0xfedcba98}

// TestMulSemantics pins mul's EDX:EAX against bits.Mul32 and the two- and
// three-operand imul results against an int32 multiply.
func TestMulSemantics(t *testing.T) {
	mul := program("mul", isa.Inst{Op: isa.MUL, Dst: isa.RegOp(isa.EBX)}, isa.Inst{Op: isa.RET})
	imul := program("imul", isa.Inst{Op: isa.IMUL, Dst: isa.RegOp(isa.EAX), Src: isa.RegOp(isa.EBX)}, isa.Inst{Op: isa.RET})
	for _, a := range mulVals {
		for _, b := range mulVals {
			m := NewMachine(mul)
			m.SetReg(isa.EAX, a)
			m.SetReg(isa.EBX, b)
			m.SetReg(isa.EDX, 0x5a5a5a5a)
			if err := m.Run(10); err != nil {
				t.Fatalf("mul %#x * %#x: %v", a, b, err)
			}
			hi, lo := bits.Mul32(a, b)
			if gh, gl := m.Reg(isa.EDX), m.Reg(isa.EAX); gh != hi || gl != lo {
				t.Errorf("mul %#x * %#x: edx:eax = %#x:%#x, want %#x:%#x", a, b, gh, gl, hi, lo)
			}

			m = NewMachine(imul)
			m.SetReg(isa.EAX, a)
			m.SetReg(isa.EBX, b)
			if err := m.Run(10); err != nil {
				t.Fatalf("imul %#x, %#x: %v", a, b, err)
			}
			if got, want := m.Reg(isa.EAX), uint32(int32(a)*int32(b)); got != want {
				t.Errorf("imul %#x, %#x: eax = %#x, want %#x", a, b, got, want)
			}
		}
		for _, imm := range []int64{0, 1, -1, 3, 127, -128, 0x7fffffff, -0x80000000} {
			p := program("imul3", isa.Inst{Op: isa.IMUL, Dst: isa.RegOp(isa.EAX), Src: isa.RegOp(isa.EBX), Src2: isa.ImmOp(imm)}, isa.Inst{Op: isa.RET})
			m := NewMachine(p)
			m.SetReg(isa.EAX, 0x5a5a5a5a)
			m.SetReg(isa.EBX, a)
			if err := m.Run(10); err != nil {
				t.Fatalf("imul eax, %#x, %d: %v", a, imm, err)
			}
			if got, want := m.Reg(isa.EAX), uint32(int32(a)*int32(imm)); got != want {
				t.Errorf("imul eax, %#x, %d: eax = %#x, want %#x", a, imm, got, want)
			}
		}
	}
}

// condWant evaluates condition code cc after cmp a, b at width w with Go's
// signed and unsigned compares.
func condWant(cc isa.Opcode, a, b uint32, w int) bool {
	n := uint(8 * w)
	sext := func(v uint32) int32 { return int32(v<<(32-n)) >> (32 - n) }
	sa, sb := sext(a), sext(b)
	switch cc {
	case isa.JZ, isa.SETZ:
		return a == b
	case isa.JNZ, isa.SETNZ:
		return a != b
	case isa.JB, isa.SETB:
		return a < b
	case isa.JNB, isa.SETNB:
		return a >= b
	case isa.JBE:
		return a <= b
	case isa.JA:
		return a > b
	case isa.JL:
		return sa < sb
	case isa.JGE:
		return sa >= sb
	case isa.JLE:
		return sa <= sb
	case isa.JG:
		return sa > sb
	case isa.JS:
		return (a-b)>>(n-1)&1 != 0
	case isa.JNS:
		return (a-b)>>(n-1)&1 == 0
	}
	panic(fmt.Sprintf("no condition for %v", cc))
}

// TestCondAfterCmp pins every conditional jump and setcc after cmp a, b
// at widths 1, 2 and 4 over the flag-test operand grid: the branch is
// taken, or the byte set, exactly when Go's signed or unsigned compare
// (or the sign of the difference, for js/jns) says so.
func TestCondAfterCmp(t *testing.T) {
	regs := map[int][2]isa.Reg{1: {isa.AL, isa.BL}, 2: {isa.AX, isa.BX}, 4: {isa.EAX, isa.EBX}}
	jccs := []isa.Opcode{isa.JZ, isa.JNZ, isa.JB, isa.JNB, isa.JBE, isa.JA, isa.JL, isa.JGE, isa.JLE, isa.JG, isa.JS, isa.JNS}
	setccs := []isa.Opcode{isa.SETZ, isa.SETNZ, isa.SETB, isa.SETNB}
	for _, w := range []int{1, 2, 4} {
		n := uint(8 * w)
		mask := uint32(uint64(1)<<n - 1)
		sign := uint32(1) << (n - 1)
		vals := []uint32{0, 1, mask, sign, sign - 1}
		cmp := isa.Inst{Op: isa.CMP, Dst: isa.RegOp(regs[w][0]), Src: isa.RegOp(regs[w][1])}
		var progs []*isa.Program
		for _, cc := range jccs {
			progs = append(progs, program(cc.String(), cmp,
				isa.Inst{Op: cc, Target: arithEntry + 3*4},
				isa.Inst{Op: isa.RET},
				isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.ESI), Src: isa.ImmOp(1)},
				isa.Inst{Op: isa.RET}))
		}
		for _, cc := range setccs {
			progs = append(progs, program(cc.String(), cmp,
				isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.EDX), Src: isa.ImmOp(0x5a5a5a5a)},
				isa.Inst{Op: cc, Dst: isa.RegOp(isa.DL)},
				isa.Inst{Op: isa.RET}))
		}
		for i, cc := range append(jccs, setccs...) {
			for _, a := range vals {
				for _, b := range vals {
					m := NewMachine(progs[i])
					m.SetReg(isa.EAX, a)
					m.SetReg(isa.EBX, b)
					if err := m.Run(10); err != nil {
						t.Fatalf("cmp w%d %#x, %#x; %v: %v", w, a, b, cc, err)
					}
					want := condWant(cc, a, b, w)
					if cc.IsCondJump() {
						if got := m.Reg(isa.ESI) == 1; got != want {
							t.Errorf("cmp w%d %#x, %#x; %v taken = %v, want %v", w, a, b, cc, got, want)
						}
						continue
					}
					// setcc writes 0 or 1 to DL and leaves the rest of EDX.
					wantEDX := uint32(0x5a5a5a00)
					if want {
						wantEDX |= 1
					}
					if got := m.Reg(isa.EDX); got != wantEDX {
						t.Errorf("cmp w%d %#x, %#x; %v edx = %#x, want %#x", w, a, b, cc, got, wantEDX)
					}
				}
			}
		}
	}
}

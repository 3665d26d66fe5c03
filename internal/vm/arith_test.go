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

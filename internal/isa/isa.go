// Package isa defines the 32-bit x86-like instruction set used throughout
// the Helium reproduction.
//
// The real Helium system analyzes stripped 32-bit x86 binaries.  Because the
// lifting algorithms only depend on the dynamic stream of executed
// instructions, their operand locations and the absolute memory addresses
// they touch, we substitute a compact x86-like ISA that preserves the
// features the analyses have to fight: sub-register reads and writes
// (AL/AH/AX inside EAX), complex memory operands (base + index*scale +
// disp), a flags register written implicitly by arithmetic, an x87-style
// floating-point register stack, and external calls resolved through import
// symbols.  The legacy corpus in internal/legacy is "compiled" to this ISA
// with the same optimizations the paper encounters: the brighten kernel is
// unrolled with a peeled remainder loop, the box blur runs under a tiled
// column driver, and the sharpen kernel mixes unrolled x87 float code with
// branch-free clamping.
package isa

import (
	"fmt"
	"strings"
)

// Reg names an architectural register or one of its sub-register views.
// The zero value RegNone means "no register".
type Reg uint8

// General purpose registers and their 16-bit and 8-bit views, the flags
// register, and the physical x87-style floating point registers F0..F7.
const (
	RegNone Reg = iota

	EAX
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI

	AX
	CX
	DX
	BX
	SP
	BP
	SI
	DI

	AL
	CL
	DL
	BL
	AH
	CH
	DH
	BH

	EFLAGS

	// F0..F7 are the physical floating point registers.  The VM resolves
	// x87-style stack-relative names (ST0..ST7) to physical registers while
	// tracing, mirroring the floating point stack renaming Helium performs
	// during instruction trace preprocessing (paper section 4.5).
	F0
	F1
	F2
	F3
	F4
	F5
	F6
	F7

	numRegs
)

// NumRegs is the number of distinct Reg values (including RegNone).
const NumRegs = int(numRegs)

var regNames = map[Reg]string{
	RegNone: "none",
	EAX:     "eax", ECX: "ecx", EDX: "edx", EBX: "ebx",
	ESP: "esp", EBP: "ebp", ESI: "esi", EDI: "edi",
	AX: "ax", CX: "cx", DX: "dx", BX: "bx",
	SP: "sp", BP: "bp", SI: "si", DI: "di",
	AL: "al", CL: "cl", DL: "dl", BL: "bl",
	AH: "ah", CH: "ch", DH: "dh", BH: "bh",
	EFLAGS: "eflags",
	F0:     "f0", F1: "f1", F2: "f2", F3: "f3",
	F4: "f4", F5: "f5", F6: "f6", F7: "f7",
}

// String returns the conventional assembler spelling of the register.
func (r Reg) String() string {
	if s, ok := regNames[r]; ok {
		return s
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// Full returns the full-width architectural register containing r.
// For example AH.Full() == EAX.  Full-width registers map to themselves.
func (r Reg) Full() Reg {
	switch {
	case r >= EAX && r <= EDI:
		return r
	case r >= AX && r <= DI:
		return EAX + (r - AX)
	case r >= AL && r <= BL:
		return EAX + (r - AL)
	case r >= AH && r <= BH:
		return EAX + (r - AH)
	default:
		return r
	}
}

// Offset returns the byte offset of r within its full register.  It is 1
// only for the high-byte views AH, CH, DH and BH.
func (r Reg) Offset() int {
	if r >= AH && r <= BH {
		return 1
	}
	return 0
}

// Width returns the width of the register in bytes.  Floating point
// registers are 8 bytes wide; EFLAGS is treated as 4.
func (r Reg) Width() int {
	switch {
	case r == RegNone:
		return 0
	case r >= EAX && r <= EDI:
		return 4
	case r >= AX && r <= DI:
		return 2
	case r >= AL && r <= BH:
		return 1
	case r == EFLAGS:
		return 4
	case r >= F0 && r <= F7:
		return 8
	default:
		return 0
	}
}

// IsFloat reports whether r is one of the floating point registers.
func (r Reg) IsFloat() bool { return r >= F0 && r <= F7 }

// IsGP reports whether r is a general purpose register or one of its views.
func (r Reg) IsGP() bool { return r >= EAX && r <= BH }

// Opcode identifies an instruction operation.
type Opcode uint8

// The instruction set.  It is a small but representative subset of 32-bit
// x86: enough to express the optimized stencil kernels Helium lifts, with
// the addressing modes, implicit flag updates and partial register traffic
// that make the binaries hard to analyze.
const (
	NOP Opcode = iota

	// Data movement.
	MOV   // mov dst, src
	MOVZX // zero-extending load of a narrower source
	MOVSX // sign-extending load of a narrower source
	LEA   // address computation without memory access
	PUSH
	POP
	CDQ // sign-extend EAX into EDX:EAX

	// Integer arithmetic and logic.  Two-operand forms dst op= src.
	ADD
	ADC
	SUB
	SBB
	IMUL // imul dst, src  or  imul dst, src, imm
	MUL  // unsigned EDX:EAX = EAX * src
	DIV  // unsigned EAX = EAX / src, EDX = remainder (EAX-only dividend, unlike x86)
	AND
	OR
	XOR
	NOT
	NEG
	INC
	DEC
	SHL
	SHR
	SAR

	// Comparison (flag producers without a register result).
	CMP
	TEST

	// Control transfer.
	JMP
	JZ
	JNZ
	JB
	JNB
	JBE
	JA
	JL
	JGE
	JLE
	JG
	JS
	JNS
	CALL
	RET

	// Conditional set (used by branch-free legacy code).
	SETZ
	SETNZ
	SETB
	SETNB

	// x87-style floating point.  Stack-relative operands are resolved to
	// physical registers by the assembler/VM.
	FLD   // push float from memory or register
	FILD  // push integer from memory, converted to float
	FST   // store top of stack to memory/register without popping
	FSTP  // store top of stack and pop
	FISTP // store top of stack as rounded integer and pop
	FADD
	FSUB
	FMUL
	FDIV
	FADDP // add and pop
	FMULP
	FXCH // exchange top of stack with another stack slot
	FLDZ // push +0.0

	// Miscellaneous.
	CPUID // intercepted by the VM: reports no vector extensions

	numOpcodes
)

// NumOpcodes is the number of defined opcodes; fuzzers use it to decode
// arbitrary bytes into in-range (if not necessarily well-formed) opcodes.
const NumOpcodes = int(numOpcodes)

var opNames = [numOpcodes]string{
	NOP: "nop", MOV: "mov", MOVZX: "movzx", MOVSX: "movsx", LEA: "lea",
	PUSH: "push", POP: "pop", CDQ: "cdq",
	ADD: "add", ADC: "adc", SUB: "sub", SBB: "sbb", IMUL: "imul", MUL: "mul",
	DIV: "div", AND: "and", OR: "or", XOR: "xor", NOT: "not", NEG: "neg",
	INC: "inc", DEC: "dec", SHL: "shl", SHR: "shr", SAR: "sar",
	CMP: "cmp", TEST: "test",
	JMP: "jmp", JZ: "jz", JNZ: "jnz", JB: "jb", JNB: "jnb", JBE: "jbe",
	JA: "ja", JL: "jl", JGE: "jge", JLE: "jle", JG: "jg", JS: "js", JNS: "jns",
	CALL: "call", RET: "ret",
	SETZ: "setz", SETNZ: "setnz", SETB: "setb", SETNB: "setnb",
	FLD: "fld", FILD: "fild", FST: "fst", FSTP: "fstp", FISTP: "fistp",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
	FADDP: "faddp", FMULP: "fmulp", FXCH: "fxch", FLDZ: "fldz",
	CPUID: "cpuid",
}

// String returns the assembler mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsCondJump reports whether the opcode is a conditional jump.
func (op Opcode) IsCondJump() bool {
	return op >= JZ && op <= JNS
}

// IsJump reports whether the opcode is any jump (conditional or not).
func (op Opcode) IsJump() bool {
	return op == JMP || op.IsCondJump()
}

// IsBranch reports whether the opcode ends a basic block.
func (op Opcode) IsBranch() bool {
	return op.IsJump() || op == CALL || op == RET
}

// IsFloat reports whether the opcode belongs to the floating point subset.
func (op Opcode) IsFloat() bool {
	return op >= FLD && op <= FLDZ
}

// WritesFlags reports whether the opcode updates the flags register.
func (op Opcode) WritesFlags() bool {
	switch op {
	case ADD, ADC, SUB, SBB, IMUL, MUL, DIV, AND, OR, XOR, NOT, NEG,
		INC, DEC, SHL, SHR, SAR, CMP, TEST:
		return true
	}
	return false
}

// ReadsFlags reports whether the opcode consumes the flags register.
func (op Opcode) ReadsFlags() bool {
	switch op {
	case ADC, SBB, SETZ, SETNZ, SETB, SETNB:
		return true
	}
	return op.IsCondJump()
}

// OperandKind distinguishes the operand forms.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg              // a register operand
	KindImm              // an immediate constant
	KindMem              // a memory operand [base + index*scale + disp]
)

// Operand is a single instruction operand.
type Operand struct {
	Kind OperandKind

	// KindReg.
	Reg Reg

	// KindImm.  Imm holds integer immediates; FImm holds floating point
	// immediates used by the handful of float constant loads.
	Imm  int64
	FImm float64

	// KindMem.
	Base  Reg
	Index Reg
	Scale int32
	Disp  int32
	// Width is the memory access width in bytes (1, 2, 4 or 8).
	Width int
}

// RegOp returns a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// ImmOp returns an integer immediate operand.
func ImmOp(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// MemOp returns a memory operand [base + index*scale + disp] with the given
// access width in bytes.
func MemOp(base, index Reg, scale int32, disp int32, width int) Operand {
	return Operand{Kind: KindMem, Base: base, Index: index, Scale: scale, Disp: disp, Width: width}
}

// Mem returns a simple [base + disp] memory operand.
func Mem(base Reg, disp int32, width int) Operand {
	return MemOp(base, RegNone, 0, disp, width)
}

// OpWidth returns the width in bytes represented by the operand: the
// register width for registers, the access width for memory, and 4 for
// immediates.
func (o Operand) OpWidth() int {
	switch o.Kind {
	case KindReg:
		return o.Reg.Width()
	case KindMem:
		return o.Width
	case KindImm:
		return 4
	}
	return 0
}

// String renders the operand in Intel-ish assembler syntax.
func (o Operand) String() string {
	switch o.Kind {
	case KindNone:
		return ""
	case KindReg:
		return o.Reg.String()
	case KindImm:
		return fmt.Sprintf("0x%x", o.Imm)
	case KindMem:
		var b strings.Builder
		switch o.Width {
		case 1:
			b.WriteString("byte ptr [")
		case 2:
			b.WriteString("word ptr [")
		case 8:
			b.WriteString("qword ptr [")
		default:
			b.WriteString("dword ptr [")
		}
		first := true
		if o.Base != RegNone {
			b.WriteString(o.Base.String())
			first = false
		}
		if o.Index != RegNone {
			if !first {
				b.WriteString("+")
			}
			fmt.Fprintf(&b, "%s*%d", o.Index, o.Scale)
			first = false
		}
		if o.Disp != 0 || first {
			if !first && o.Disp >= 0 {
				b.WriteString("+")
			}
			fmt.Fprintf(&b, "%#x", o.Disp)
		}
		b.WriteString("]")
		return b.String()
	}
	return "?"
}

// Inst is a single static instruction.
type Inst struct {
	// Addr is the virtual address of the instruction.
	Addr uint32
	// Op is the operation.
	Op Opcode
	// Dst, Src and Src2 are the operands.  Most instructions use Dst and
	// Src; three-operand forms (imul dst, src, imm) also use Src2.
	Dst  Operand
	Src  Operand
	Src2 Operand
	// Target is the resolved branch or call target for control transfers
	// within the program.
	Target uint32
	// Sym names the imported external function for CALL instructions that
	// leave the program (for example "sqrt" or "floor").  External symbols
	// survive stripping because the dynamic linker needs them, which is why
	// Helium can special-case known library calls.
	Sym string
}

// String renders the instruction in Intel-ish assembler syntax.
func (in Inst) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%08x  %-6s", in.Addr, in.Op)
	ops := make([]string, 0, 3)
	if in.Op.IsJump() || in.Op == CALL {
		if in.Sym != "" {
			ops = append(ops, in.Sym)
		} else {
			ops = append(ops, fmt.Sprintf("0x%x", in.Target))
		}
	} else {
		for _, o := range []Operand{in.Dst, in.Src, in.Src2} {
			if o.Kind != KindNone {
				ops = append(ops, o.String())
			}
		}
	}
	if len(ops) > 0 {
		b.WriteString(" ")
		b.WriteString(strings.Join(ops, ", "))
	}
	return b.String()
}

// Segment is a block of initialized data placed in the program image, used
// for read-only tables (stencil weights, lookup tables).
type Segment struct {
	Addr uint32
	Data []byte
}

// Program is a loaded, "stripped" program image: a flat list of
// instructions plus initialized data segments.  There is no symbol
// information beyond import symbols referenced by CALL instructions.
type Program struct {
	Name string
	// Entry is the address execution starts at.
	Entry uint32
	// Insts holds the instructions sorted by address.
	Insts []Inst
	// Data holds initialized data segments.
	Data []Segment

	index map[uint32]int
	// succ holds each instruction's successors as instruction indices,
	// resolved through index.
	succ []Succ
}

// Succ is an instruction's control-flow successors as indices into
// Program.Insts, -1 where no instruction sits at the address.
type Succ struct {
	// Next is the instruction at the following instruction's address: the
	// fall-through in layout order.  It is -1 for the last instruction.
	Next int32
	// Target is the instruction at the branch or call target.
	Target int32
}

// BuildIndex (re)builds the address-to-instruction index and the resolved
// successors.  It must be called after the instruction slice is modified.
func (p *Program) BuildIndex() {
	p.index = make(map[uint32]int, len(p.Insts))
	for i, in := range p.Insts {
		p.index[in.Addr] = i
	}
	p.succ = make([]Succ, len(p.Insts))
	for i, in := range p.Insts {
		s := Succ{Next: -1, Target: p.indexOf(in.Target)}
		if i+1 < len(p.Insts) {
			s.Next = p.indexOf(p.Insts[i+1].Addr)
		}
		p.succ[i] = s
	}
}

// indexOf returns the index of the instruction at addr, or -1.
func (p *Program) indexOf(addr uint32) int32 {
	if i, ok := p.index[addr]; ok {
		return int32(i)
	}
	return -1
}

// Successors returns the resolved successors of the instruction at index
// i, so an emulator steps without an address lookup except for dynamic
// targets (ret).
func (p *Program) Successors(i int) Succ {
	if p.index == nil {
		p.BuildIndex()
	}
	return p.succ[i]
}

// Lookup returns the index of the instruction at addr and whether it exists.
func (p *Program) Lookup(addr uint32) (int, bool) {
	if p.index == nil {
		p.BuildIndex()
	}
	i, ok := p.index[addr]
	return i, ok
}

// At returns the instruction at addr.  It panics if addr is not the address
// of an instruction in the program; callers validate addresses beforehand.
func (p *Program) At(addr uint32) Inst {
	i, ok := p.Lookup(addr)
	if !ok {
		panic(fmt.Sprintf("isa: no instruction at %#x in %s", addr, p.Name))
	}
	return p.Insts[i]
}

// Leaders computes the set of static basic block leader addresses: the
// entry point, every branch target and every instruction following a
// control transfer.
func (p *Program) Leaders() map[uint32]bool {
	leaders := map[uint32]bool{p.Entry: true}
	for i, in := range p.Insts {
		if in.Op.IsJump() || in.Op == CALL {
			if in.Sym == "" && in.Target != 0 {
				leaders[in.Target] = true
			}
		}
		if in.Op.IsBranch() && i+1 < len(p.Insts) {
			leaders[p.Insts[i+1].Addr] = true
		}
	}
	return leaders
}

// BlockLeader returns the leader address of the basic block containing
// addr, given the leader set.
func (p *Program) BlockLeader(leaders map[uint32]bool, addr uint32) uint32 {
	i, ok := p.Lookup(addr)
	if !ok {
		return addr
	}
	for ; i > 0; i-- {
		if leaders[p.Insts[i].Addr] {
			break
		}
	}
	return p.Insts[i].Addr
}

// Disassemble renders the whole program as text, one instruction per line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for _, in := range p.Insts {
		b.WriteString(in.String())
		b.WriteString("\n")
	}
	return b.String()
}

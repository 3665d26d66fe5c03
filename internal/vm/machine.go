package vm

import (
	"fmt"
	"math"

	"helium/internal/isa"
	"helium/internal/trace"
)

// Address space layout conventions used by the legacy corpus and the test
// harnesses.  They are conventions only; the analyses never rely on them.
const (
	// StackTop is the initial stack pointer.
	StackTop uint32 = 0x0ff0000
	// ParamBlock is the address of the host parameter block read by program
	// entry points (input/output buffer pointers, sizes, flags).
	ParamBlock uint32 = 0x0800000
	// HeapBase is where harnesses place image buffers.
	HeapBase uint32 = 0x1000000
	// retSentinel is pushed as the return address of the outermost call; the
	// machine halts when control returns to it.
	retSentinel uint32 = 0xffffffff
)

// ImportHandler implements an external library function.  The handler
// receives the machine so it can read its argument from the floating point
// stack (the corpus convention: argument and result in st0).
type ImportHandler func(m *Machine) error

// DefaultImports returns the known external library functions Helium
// special-cases (paper section 4.7, "Known library calls").
func DefaultImports() map[string]ImportHandler {
	return map[string]ImportHandler{
		"sqrt":  func(m *Machine) error { m.fpuReplaceTop(math.Sqrt(m.fpuTop())); return nil },
		"floor": func(m *Machine) error { m.fpuReplaceTop(math.Floor(m.fpuTop())); return nil },
		"ceil":  func(m *Machine) error { m.fpuReplaceTop(math.Ceil(m.fpuTop())); return nil },
		"exp":   func(m *Machine) error { m.fpuReplaceTop(math.Exp(m.fpuTop())); return nil },
		"log":   func(m *Machine) error { m.fpuReplaceTop(math.Log(m.fpuTop())); return nil },
	}
}

// flags models the subset of EFLAGS the corpus relies on.
type flags struct {
	zf, sf, cf, of bool
}

func (f flags) pack() uint64 {
	var v uint64
	if f.zf {
		v |= 1 << 6
	}
	if f.sf {
		v |= 1 << 7
	}
	if f.cf {
		v |= 1
	}
	if f.of {
		v |= 1 << 11
	}
	return v
}

// Machine is a single-threaded emulator for an isa.Program.
type Machine struct {
	Prog *isa.Program
	Mem  *Memory

	// Imports maps external symbols to their implementations.
	Imports map[string]ImportHandler

	regs  [8]uint32  // EAX..EDI indexed by reg-EAX
	fregs [8]float64 // physical floating point registers
	ftop  int        // physical index of the current top of stack
	fcnt  int        // number of live stack entries (for diagnostics)
	flag  flags
	eip   uint32
	// pc is the index in Prog.Insts of the instruction at eip, or -1 when
	// there is none.
	pc int

	callDepth int
	halted    bool
	steps     uint64
}

// NewMachine returns a machine loaded with the program's data segments and
// ready to run from the program entry point.
func NewMachine(p *isa.Program) *Machine {
	m := &Machine{Prog: p, Imports: DefaultImports()}
	m.Reset()
	return m
}

// Reset clears registers and memory, reloads the program's data segments
// and re-arms the entry point.  Buffers written by a previous run are
// discarded; harnesses repopulate the parameter block and input buffers
// after calling Reset.
func (m *Machine) Reset() {
	m.Mem = NewMemory()
	for _, seg := range m.Prog.Data {
		m.Mem.WriteBytes(seg.Addr, seg.Data)
	}
	m.regs = [8]uint32{}
	m.fregs = [8]float64{}
	m.ftop = 0
	m.fcnt = 0
	m.flag = flags{}
	m.eip, m.pc = m.Prog.Entry, m.pcOf(m.Prog.Entry)
	m.halted = false
	m.callDepth = 0
	m.steps = 0
	// Arrange for the outermost return to halt the machine.
	m.regs[isa.ESP-isa.EAX] = StackTop
	m.push32(retSentinel)
}

// Steps returns the number of instructions executed since the last Reset.
func (m *Machine) Steps() uint64 { return m.steps }

// Halted reports whether the program has returned from its entry point.
func (m *Machine) Halted() bool { return m.halted }

// EIP returns the current instruction pointer.
func (m *Machine) EIP() uint32 { return m.eip }

// CallDepth returns the current dynamic call nesting depth.
func (m *Machine) CallDepth() int { return m.callDepth }

// Reg returns the value of a register (any width view).
func (m *Machine) Reg(r isa.Reg) uint32 { return uint32(m.readReg(r)) }

// SetReg sets the value of a register (any width view).
func (m *Machine) SetReg(r isa.Reg, v uint32) { m.writeReg(r, uint64(v)) }

// readReg returns the zero-extended value of the register view r.
func (m *Machine) readReg(r isa.Reg) uint64 {
	if r.IsFloat() {
		return math.Float64bits(m.fregs[r-isa.F0])
	}
	if !r.IsGP() {
		// Hostile instructions can name EFLAGS or out-of-range register
		// encodings as data operands; they read as zero rather than
		// indexing outside the GP file.
		return 0
	}
	full := m.regs[r.Full()-isa.EAX]
	switch r.Width() {
	case 4:
		return uint64(full)
	case 2:
		return uint64(full & 0xffff)
	case 1:
		return uint64((full >> (8 * uint(r.Offset()))) & 0xff)
	}
	return 0
}

// writeReg writes v into the register view r, merging into the containing
// full register for narrow views (as x86 does).
func (m *Machine) writeReg(r isa.Reg, v uint64) {
	if r.IsFloat() {
		m.fregs[r-isa.F0] = math.Float64frombits(v)
		return
	}
	if !r.IsGP() {
		// Writes through non-GP register views are dropped (see readReg).
		return
	}
	idx := r.Full() - isa.EAX
	full := m.regs[idx]
	switch r.Width() {
	case 4:
		full = uint32(v)
	case 2:
		full = (full &^ 0xffff) | uint32(v&0xffff)
	case 1:
		shift := 8 * uint(r.Offset())
		full = (full &^ (0xff << shift)) | (uint32(v&0xff) << shift)
	}
	m.regs[idx] = full
}

// fpu helpers.

func (m *Machine) fpuPush(v float64) isa.Reg {
	m.ftop = (m.ftop + 7) % 8
	m.fregs[m.ftop] = v
	m.fcnt++
	return isa.F0 + isa.Reg(m.ftop)
}

func (m *Machine) fpuPop() (float64, isa.Reg) {
	r := isa.F0 + isa.Reg(m.ftop)
	v := m.fregs[m.ftop]
	m.ftop = (m.ftop + 1) % 8
	if m.fcnt > 0 {
		m.fcnt--
	}
	return v, r
}

func (m *Machine) fpuTop() float64 { return m.fregs[m.ftop] }

func (m *Machine) fpuTopReg() isa.Reg { return isa.F0 + isa.Reg(m.ftop) }

func (m *Machine) fpuST(i int) isa.Reg { return isa.F0 + isa.Reg((m.ftop+i)%8) }

func (m *Machine) fpuReplaceTop(v float64) { m.fregs[m.ftop] = v }

// pcOf returns the index of the instruction at addr, or -1.
func (m *Machine) pcOf(addr uint32) int {
	if i, ok := m.Prog.Lookup(addr); ok {
		return i
	}
	return -1
}

// stack helpers.

func (m *Machine) push32(v uint32) {
	esp := m.regs[isa.ESP-isa.EAX] - 4
	m.regs[isa.ESP-isa.EAX] = esp
	m.Mem.Write(esp, 4, uint64(v))
}

func (m *Machine) pop32() uint32 {
	esp := m.regs[isa.ESP-isa.EAX]
	v := uint32(m.Mem.Read(esp, 4))
	m.regs[isa.ESP-isa.EAX] = esp + 4
	return v
}

// addrRegs holds the register references (base, then index) that formed a
// memory operand's address, by value so that computing an address never
// allocates.
type addrRegs struct {
	refs [2]trace.Ref
	n    int
}

func (a *addrRegs) slice() []trace.Ref { return a.refs[:a.n] }

// effectiveAddr computes the absolute address of a memory operand and
// returns the register references used to form it.
func (m *Machine) effectiveAddr(o *isa.Operand) (uint32, addrRegs) {
	var addr uint32
	var regs addrRegs
	if o.Base != isa.RegNone {
		v := uint32(m.readReg(o.Base))
		addr += v
		regs.refs[regs.n] = m.regRef(o.Base)
		regs.n++
	}
	if o.Index != isa.RegNone {
		v := uint32(m.readReg(o.Index))
		addr += v * uint32(o.Scale)
		regs.refs[regs.n] = m.regRef(o.Index)
		regs.n++
	}
	addr += uint32(o.Disp)
	return addr, regs
}

// regRef builds a trace.Ref for the current value of a register view.
func (m *Machine) regRef(r isa.Reg) trace.Ref {
	return trace.Ref{
		Space: trace.SpaceReg,
		Addr:  trace.RegAddr(r),
		Width: uint8(r.Width()),
		Val:   m.readReg(r),
		Float: r.IsFloat(),
	}
}

// memRef builds a trace.Ref for a memory location holding the given value.
func memRef(addr uint32, width int, val uint64) trace.Ref {
	return trace.Ref{Space: trace.SpaceMem, Addr: uint64(addr), Width: uint8(width), Val: val}
}

// memRefF builds a trace.Ref for a floating point memory location.
func memRefF(addr uint32, width int, fval float64) trace.Ref {
	var bits uint64
	if width == 4 {
		bits = uint64(math.Float32bits(float32(fval)))
	} else {
		bits = math.Float64bits(fval)
	}
	return trace.Ref{Space: trace.SpaceMem, Addr: uint64(addr), Width: uint8(width), Val: bits, Float: true}
}

// immRef builds a trace.Ref for an immediate.
func immRef(v int64) trace.Ref {
	return trace.Ref{Space: trace.SpaceImm, Width: 4, Val: uint64(v)}
}

// flagsRef builds a trace.Ref for the flags register with its packed value.
func (m *Machine) flagsRef() trace.Ref {
	return trace.Ref{Space: trace.SpaceFlags, Addr: trace.FlagsAddr, Width: 4, Val: m.flag.pack()}
}

// fault describes an emulation error with the offending address.
type fault struct {
	addr uint32
	msg  string
}

func (f *fault) Error() string {
	return fmt.Sprintf("vm: fault at %#x: %s", f.addr, f.msg)
}

func (m *Machine) faultf(format string, args ...any) error {
	return &fault{addr: m.eip, msg: fmt.Sprintf(format, args...)}
}

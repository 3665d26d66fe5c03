// Compiled execution of lifted kernels.  A Program is an expression tree
// lowered to a flat SSA-style register program: common subexpressions are
// computed once, constants live in a pooled register-file prefix, integer
// sums collapse into a single multi-tap instruction with the constant bias
// folded in, and constant divisions strength-reduce to multiply-high
// sequences.  Whole rows execute vectorized — every instruction processes
// one output row of samples before the next dispatches — with input taps
// resolved by flat-index addressing against the concrete pixel backing: no
// interface dispatch, no allocation and almost no interpretive overhead on
// the per-sample path.  This is the reproduction's stand-in for the paper's
// regenerated Halide code: the lifted stencil as an executable program
// rather than a walked tree.
package ir

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"helium/internal/par"
)

// Internal opcodes the lowering introduces.  They live past the public Op
// range and never appear in expression trees.
const (
	// opSumTaps is an n-ary integer sum: constant bias + input taps +
	// register operands, masked once at the end exactly like the
	// interpreter's variadic OpAdd.
	opSumTaps Op = 200 + iota
	opMulN
	opAndN
	opOrN
	opXorN
	opMinN
	opMaxN
	// opDivShift / opDivMagic are unsigned division by a nonzero
	// constant: a power of two becomes a shift, anything else an exact
	// multiply-high (the divisor is < 2^32 and the masked numerator fits
	// 32 bits, so the magic form never misrounds).
	opDivShift
	opDivMagic
	opModShift
	opModMagic
)

func init() {
	for op, name := range map[Op]string{
		opSumTaps: "sumtaps", opMulN: "mulN", opAndN: "andN", opOrN: "orN",
		opXorN: "xorN", opMinN: "minN", opMaxN: "maxN",
		opDivShift: "div>>", opDivMagic: "div*", opModShift: "mod&", opModMagic: "mod*",
	} {
		opNames[op] = name
	}
}

// tap is one input sample read at a constant offset from the output
// coordinate.
type tap struct {
	dx, dy, dc int32
}

// pinst is one flat instruction.  Operand registers a, b, c (and args for
// n-ary forms) index the register file; dst is always past the constant
// pool prefix.
type pinst struct {
	op              Op
	width, srcWidth uint8
	// mask is the precomputed result mask (the srcWidth mask for OpZExt);
	// sh is the precomputed sign-extension shift for the ops that compare
	// or extend signed values.
	mask       uint64
	sh         uint8
	a, b, c    int32
	args       []int32
	dst        int32
	val        int64 // extract byte offset / shift amount / sum bias
	magic      uint64
	dcon       uint64 // constant divisor (for the mod reconstructions)
	taps       []tap
	table      []byte
	elem       int
	fn         func(float64) float64
	sym        string // OpCall symbol, kept for the source backend
	fl         bool   // OpSelect: arms are float-domain
	dx, dy, dc int32  // OpLoad tap offsets
	// dead marks a pure instruction whose value is never consumed (a
	// leftover of domain coercion): executors skip it, and the width pass
	// ignores it when narrowing lanes.  Fault-capable instructions are
	// never flagged — their runtime checks are observable behavior.
	dead bool
}

// Program is one channel's expression tree in executable form.
type Program struct {
	// consts holds the pooled constants (floats as IEEE-754 bits);
	// registers [0, len(consts)) are loaded from it once and are never
	// written by instructions.
	consts []uint64
	insts  []pinst
	// numRegs is the register file size: len(consts) plus one register
	// per instruction (SSA form: every instruction defines a fresh
	// register).
	numRegs int
	// root is the register holding the final value; rootFloat marks a
	// floating point result, returned as its bit pattern like Expr.Eval.
	root      int32
	rootFloat bool
	// width holds the width-inference results (per-register bounds and
	// the proven lane width), stamped by CompileExpr.
	width widthInfo
}

// NumInsts returns the instruction count (a proxy for per-sample work).
func (p *Program) NumInsts() int { return len(p.insts) }

// NumConsts returns the size of the pooled constant prefix.
func (p *Program) NumConsts() int { return len(p.consts) }

// NumLoads returns how many input taps the program performs per sample,
// counting both standalone loads and taps fused into sums; after CSE this
// is the number of *distinct* taps outside sums plus the taps of each sum.
func (p *Program) NumLoads() int {
	n := 0
	for i := range p.insts {
		switch p.insts[i].op {
		case OpLoad:
			n++
		case opSumTaps:
			n += len(p.insts[i].taps)
		}
	}
	return n
}

// newRegs allocates a scalar register file with the constant pool loaded.
func (p *Program) newRegs() []uint64 {
	regs := make([]uint64, p.numRegs)
	copy(regs, p.consts)
	return regs
}

// maskFor replicates maskW as a precomputed constant: widths 1, 2 and 4
// mask, every other width passes the value through.
func maskFor(width int) uint64 {
	switch width {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	case 4:
		return 0xffffffff
	}
	return ^uint64(0)
}

// shFor replicates signExt as a shift pair: int64(v<<sh)>>sh equals
// signExt(v, width) for widths 1, 2 and 4, and the identity int64(v)
// (shift 0) for every other width.
func shFor(width int) uint8 {
	switch width {
	case 1:
		return 56
	case 2:
		return 48
	case 4:
		return 32
	}
	return 0
}

// sx sign-extends with a precomputed shift.
func sx(v uint64, sh uint8) int64 { return int64(v<<sh) >> sh }

// binding resolves input taps for one concrete source.  When pix is
// non-nil the executor addresses the backing directly; otherwise it falls
// back to Source interface calls (still within the flat register loop).
type binding struct {
	pix                   []byte
	base, stride, pixStep int
	chanStep              int
	src                   Source
	// xstep is the per-output-sample input advance in pixels along x: 1
	// for classic stencils, the index map's numerator for affine kernels
	// with denominator 1 (row execution stays vectorized, just strided).
	xstep int
	// tbl is the bound stage-input table OpTableIn instructions read.
	tbl []byte
}

// bindSource recognizes the concrete pixel backings and extracts their
// flat geometry; any other Source is bound generically.
func bindSource(src Source) binding {
	switch s := src.(type) {
	case PlaneSource:
		pix, base, stride := s.P.Flat()
		return binding{pix: pix, base: base, stride: stride, pixStep: 1, xstep: 1}
	case *PlaneSource:
		pix, base, stride := s.P.Flat()
		return binding{pix: pix, base: base, stride: stride, pixStep: 1, xstep: 1}
	case InterleavedSource:
		pix, base, stride, pixStep := s.Im.Flat()
		return binding{pix: pix, base: base, stride: stride, pixStep: pixStep, chanStep: 1, xstep: 1}
	case *InterleavedSource:
		pix, base, stride, pixStep := s.Im.Flat()
		return binding{pix: pix, base: base, stride: stride, pixStep: pixStep, chanStep: 1, xstep: 1}
	case TableSource:
		bd := bindSource(s.Src)
		bd.tbl = s.Tbl
		return bd
	}
	return binding{src: src, xstep: 1}
}

// TableSource pairs a pixel source with a bound stage-input table for
// kernels whose programs contain OpTableIn instructions.  Sampling passes
// through to the underlying source.
type TableSource struct {
	Src Source
	Tbl []byte
}

// Sample delegates to the wrapped pixel source.
func (s TableSource) Sample(x, y, c int) uint8 { return s.Src.Sample(x, y, c) }

// flatOff is the flat-index delta of a tap under bd's geometry.
func (bd *binding) flatOff(dx, dy, dc int32) int {
	return int(dy)*bd.stride + int(dx)*bd.pixStep + int(dc)*bd.chanStep
}

// progState is the reusable per-program execution state of an Executor:
// precomputed tap offsets for the bound geometry, the scalar register file
// and the row-vector register file.
type progState struct {
	offs    []int   // flat offset per OpLoad instruction (fused path)
	tapOffs [][]int // flat offsets per opSumTaps instruction (fused path)
	regs    []uint64
	rows    [][]uint64 // numRegs rows of rowWidth; consts splatted
	argRows [][]uint64 // scratch operand-slice list for n-ary ops
}

func (p *Program) newState(bd *binding, rowWidth int) *progState {
	st := &progState{
		offs:    make([]int, len(p.insts)),
		tapOffs: make([][]int, len(p.insts)),
		regs:    p.newRegs(),
	}
	for i := range p.insts {
		in := &p.insts[i]
		if bd.pix != nil {
			switch in.op {
			case OpLoad:
				st.offs[i] = bd.flatOff(in.dx, in.dy, in.dc)
			case opSumTaps:
				offs := make([]int, len(in.taps))
				for j, t := range in.taps {
					offs[j] = bd.flatOff(t.dx, t.dy, t.dc)
				}
				st.tapOffs[i] = offs
			}
		}
	}
	if rowWidth > 0 {
		st.rows = make([][]uint64, p.numRegs)
		backing := make([]uint64, p.numRegs*rowWidth)
		for r := range st.rows {
			st.rows[r] = backing[r*rowWidth : (r+1)*rowWidth]
		}
		for ci, cv := range p.consts {
			row := st.rows[ci]
			for x := range row {
				row[x] = cv
			}
		}
		st.argRows = make([][]uint64, 0, 8)
	}
	return st
}

// errDivZero and friends match the interpreter's failure modes.
func errDivZero() error { return fmt.Errorf("ir: division by zero") }
func errModZero() error { return fmt.Errorf("ir: modulo by zero") }
func errTable(idx int64, table []byte, elem int) error {
	return fmt.Errorf("ir: table index %d out of range (%d elements)", idx, len(table)/elem)
}
func errLoad(x, y, c int) error {
	return fmt.Errorf("ir: compiled load at (%d,%d,%d) outside the pixel backing", x, y, c)
}
func errNotLaneExecutable(op Op) error {
	return fmt.Errorf("ir: op %v reached the lane executor", op)
}

// run executes the program for one output coordinate (x, y, c) in scalar
// form — the reference path behind Run and EvalAt.  Whole-image rendering
// goes through runRow instead.
func (p *Program) run(bd *binding, st *progState, x, y, c int) (uint64, error) {
	regs := st.regs
	pos := 0
	if bd.pix != nil {
		pos = bd.base + y*bd.stride + x*bd.pixStep + c*bd.chanStep
	}
	for i := range p.insts {
		in := &p.insts[i]
		if in.dead {
			continue
		}
		switch in.op {
		case OpLoad:
			if bd.pix != nil {
				idx := pos + st.offs[i]
				if uint(idx) >= uint(len(bd.pix)) {
					return 0, errLoad(x+int(in.dx), y+int(in.dy), c+int(in.dc))
				}
				regs[in.dst] = uint64(bd.pix[idx])
			} else {
				regs[in.dst] = uint64(bd.src.Sample(x+int(in.dx), y+int(in.dy), c+int(in.dc)))
			}
		case opSumTaps:
			s := uint64(in.val)
			if bd.pix != nil {
				for _, off := range st.tapOffs[i] {
					idx := pos + off
					if uint(idx) >= uint(len(bd.pix)) {
						return 0, errLoad(x, y, c)
					}
					s += uint64(bd.pix[idx])
				}
			} else {
				for _, t := range in.taps {
					s += uint64(bd.src.Sample(x+int(t.dx), y+int(t.dy), c+int(t.dc)))
				}
			}
			for _, r := range in.args {
				s += regs[r]
			}
			regs[in.dst] = s & in.mask
		case opMulN:
			s := uint64(1)
			for _, r := range in.args {
				s *= regs[r]
			}
			regs[in.dst] = s & in.mask
		case opAndN:
			s := ^uint64(0)
			for _, r := range in.args {
				s &= regs[r]
			}
			regs[in.dst] = s & in.mask
		case opOrN:
			s := uint64(0)
			for _, r := range in.args {
				s |= regs[r]
			}
			regs[in.dst] = s & in.mask
		case opXorN:
			s := uint64(0)
			for _, r := range in.args {
				s ^= regs[r]
			}
			regs[in.dst] = s & in.mask
		case opMinN:
			s := sx(regs[in.args[0]], in.sh)
			for _, r := range in.args[1:] {
				if v := sx(regs[r], in.sh); v < s {
					s = v
				}
			}
			regs[in.dst] = uint64(s) & in.mask
		case opMaxN:
			s := sx(regs[in.args[0]], in.sh)
			for _, r := range in.args[1:] {
				if v := sx(regs[r], in.sh); v > s {
					s = v
				}
			}
			regs[in.dst] = uint64(s) & in.mask
		case OpSub:
			regs[in.dst] = (regs[in.a] - regs[in.b]) & in.mask
		case OpMulHi:
			regs[in.dst] = ((regs[in.a] & 0xffffffff) * (regs[in.b] & 0xffffffff) >> 32) & in.mask
		case OpDiv:
			d := regs[in.b] & in.mask
			if d == 0 {
				return 0, errDivZero()
			}
			regs[in.dst] = (regs[in.a] & in.mask) / d
		case OpMod:
			d := regs[in.b] & in.mask
			if d == 0 {
				return 0, errModZero()
			}
			regs[in.dst] = (regs[in.a] & in.mask) % d
		case opDivShift:
			regs[in.dst] = (regs[in.a] & in.mask) >> uint(in.val)
		case opDivMagic:
			regs[in.dst] = mulHi64(regs[in.a]&in.mask, in.magic)
		case opModShift:
			regs[in.dst] = regs[in.a] & in.mask & (in.dcon - 1)
		case opModMagic:
			a := regs[in.a] & in.mask
			regs[in.dst] = a - mulHi64(a, in.magic)*in.dcon
		case OpNot:
			regs[in.dst] = ^regs[in.a] & in.mask
		case OpNeg:
			regs[in.dst] = -regs[in.a] & in.mask
		case OpShl:
			regs[in.dst] = regs[in.a] << (regs[in.b] & 31) & in.mask
		case OpShr:
			regs[in.dst] = (regs[in.a] & in.mask) >> (regs[in.b] & 31)
		case OpSar:
			regs[in.dst] = uint64(sx(regs[in.a], in.sh)>>(regs[in.b]&31)) & in.mask
		case OpZExt:
			regs[in.dst] = regs[in.a] & in.mask // mask is the srcWidth mask
		case OpSExt:
			regs[in.dst] = uint64(sx(regs[in.a], in.sh)) & in.mask
		case OpExtract:
			regs[in.dst] = regs[in.a] >> (8 * uint(in.val)) & in.mask
		case OpSelect:
			if regs[in.a] != 0 {
				regs[in.dst] = regs[in.b]
			} else {
				regs[in.dst] = regs[in.c]
			}
		case OpCmpEq:
			regs[in.dst] = b2u(regs[in.a]&in.mask == regs[in.b]&in.mask)
		case OpCmpNe:
			regs[in.dst] = b2u(regs[in.a]&in.mask != regs[in.b]&in.mask)
		case OpCmpLtS:
			regs[in.dst] = b2u(sx(regs[in.a], in.sh) < sx(regs[in.b], in.sh))
		case OpCmpLeS:
			regs[in.dst] = b2u(sx(regs[in.a], in.sh) <= sx(regs[in.b], in.sh))
		case OpCmpLtU:
			regs[in.dst] = b2u(regs[in.a]&in.mask < regs[in.b]&in.mask)
		case OpCmpLeU:
			regs[in.dst] = b2u(regs[in.a]&in.mask <= regs[in.b]&in.mask)
		case OpTable:
			idx := int64(regs[in.a])
			v, err := tableAt(in.table, in.elem, idx)
			if err != nil {
				return 0, err
			}
			regs[in.dst] = v
		case OpTableIn:
			idx := int64(regs[in.a])
			v, err := tableAt(bd.tbl, in.elem, idx)
			if err != nil {
				return 0, err
			}
			regs[in.dst] = v
		case OpIntToFP:
			regs[in.dst] = math.Float64bits(float64(sx(regs[in.a], in.sh)))
		case OpFPToInt:
			regs[in.dst] = uint64(int64(math.RoundToEven(math.Float64frombits(regs[in.a])))) & in.mask
		case OpFAdd:
			regs[in.dst] = math.Float64bits(math.Float64frombits(regs[in.a]) + math.Float64frombits(regs[in.b]))
		case OpFSub:
			regs[in.dst] = math.Float64bits(math.Float64frombits(regs[in.a]) - math.Float64frombits(regs[in.b]))
		case OpFMul:
			regs[in.dst] = math.Float64bits(math.Float64frombits(regs[in.a]) * math.Float64frombits(regs[in.b]))
		case OpFDiv:
			regs[in.dst] = math.Float64bits(math.Float64frombits(regs[in.a]) / math.Float64frombits(regs[in.b]))
		case OpCall:
			regs[in.dst] = math.Float64bits(in.fn(math.Float64frombits(regs[in.a])))
		default:
			return 0, fmt.Errorf("ir: compiled program contains unexecutable op %v", in.op)
		}
	}
	return regs[p.root], nil
}

// b2u maps a comparison outcome to the 0/1 register value.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// mulHi64 returns the high 64 bits of the full 128-bit product.
func mulHi64(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

// tableAt reads one little-endian element, mirroring the interpreter.
func tableAt(table []byte, elem int, idx int64) (uint64, error) {
	off := idx * int64(elem)
	if off < 0 || off+int64(elem) > int64(len(table)) {
		return 0, errTable(idx, table, elem)
	}
	var r uint64
	for i := 0; i < elem; i++ {
		r |= uint64(table[off+int64(i)]) << (8 * i)
	}
	return r, nil
}

// Run evaluates the program once for output coordinate (x, y, c), binding
// src on the fly — the compiled counterpart of Expr.Eval, convenient for
// tests and one-off evaluation.  Drivers rendering whole images should use
// an Executor, which reuses the register file and tap offsets.
func (p *Program) Run(src Source, x, y, c int) (uint64, error) {
	bd := bindSource(src)
	return p.run(&bd, p.newState(&bd, 0), x, y, c)
}

// runRow executes the program vectorized over one output row: every
// instruction processes samples x in [0, width) of channel c at input row
// y before the next instruction dispatches, so the interpretive dispatch
// cost is paid once per instruction per row rather than once per node per
// sample.  xbase is the input-x of output sample 0 (the kernel origin).
//
// Error semantics reproduce per-sample evaluation exactly: when an
// instruction faults at some x the row narrows to [0, x) for the remaining
// instructions, so the reported fault is the one an x-ascending per-sample
// loop would have hit first.  Returns the failing x (-1 if none).
func (p *Program) runRow(bd *binding, st *progState, xbase, y, c, width int) (int, error) {
	n := width
	errX := -1
	var firstErr error
	fail := func(x int, err error) {
		errX, firstErr = x, err
		n = x
	}
	pos0 := 0
	if bd.pix != nil {
		pos0 = bd.base + y*bd.stride + xbase*bd.pixStep + c*bd.chanStep
	}
	xs := bd.xstep
	if xs == 0 {
		xs = 1
	}
	// Consecutive output samples read xstep pixels apart; tap offsets stay
	// unscaled (they are deltas around each mapped position).
	ps := bd.pixStep * xs
	rows := st.rows
	for i := range p.insts {
		if n == 0 {
			break
		}
		in := &p.insts[i]
		if in.dead {
			continue
		}
		d := rows[in.dst][:n]
		switch in.op {
		case OpLoad:
			if bd.pix != nil {
				off := pos0 + st.offs[i]
				lo, hi := off, off+(n-1)*ps
				if lo >= 0 && hi < len(bd.pix) {
					pix := bd.pix
					for x := range d {
						d[x] = uint64(pix[off+x*ps])
					}
				} else {
					for x := range d {
						idx := off + x*ps
						if uint(idx) >= uint(len(bd.pix)) {
							fail(x, errLoad(xbase+x*xs+int(in.dx), y+int(in.dy), c+int(in.dc)))
							break
						}
						d[x] = uint64(bd.pix[idx])
					}
				}
			} else {
				src := bd.src
				for x := range d {
					d[x] = uint64(src.Sample(xbase+x*xs+int(in.dx), y+int(in.dy), c+int(in.dc)))
				}
			}
		case opSumTaps:
			bias := uint64(in.val)
			mask := in.mask
			if bd.pix != nil {
				pix := bd.pix
				safe := true
				for _, off := range st.tapOffs[i] {
					lo, hi := pos0+off, pos0+off+(n-1)*ps
					if lo < 0 || hi >= len(pix) {
						safe = false
						break
					}
				}
				if safe {
					for x := range d {
						s := bias
						base := pos0 + x*ps
						for _, off := range st.tapOffs[i] {
							s += uint64(pix[base+off])
						}
						d[x] = s
					}
				} else {
					for x := range d {
						s := bias
						base := pos0 + x*ps
						bad := false
						for _, off := range st.tapOffs[i] {
							idx := base + off
							if uint(idx) >= uint(len(pix)) {
								fail(x, errLoad(xbase+x*xs, y, c))
								bad = true
								break
							}
							s += uint64(pix[idx])
						}
						if bad {
							break
						}
						d[x] = s
					}
				}
			} else {
				src := bd.src
				for x := range d {
					s := bias
					for _, t := range in.taps {
						s += uint64(src.Sample(xbase+x*xs+int(t.dx), y+int(t.dy), c+int(t.dc)))
					}
					d[x] = s
				}
			}
			d = rows[in.dst][:n] // n may have shrunk
			for _, r := range in.args {
				a := rows[r][:n]
				for x := range d {
					d[x] += a[x]
				}
			}
			for x := range d {
				d[x] &= mask
			}
		case opMulN:
			st.gatherArgs(in, n)
			as := st.argRows
			a0 := as[0]
			for x := range d {
				d[x] = a0[x]
			}
			for _, a := range as[1:] {
				for x := range d {
					d[x] *= a[x]
				}
			}
			for x := range d {
				d[x] &= in.mask
			}
		case opAndN:
			st.gatherArgs(in, n)
			as := st.argRows
			a0 := as[0]
			for x := range d {
				d[x] = a0[x]
			}
			for _, a := range as[1:] {
				for x := range d {
					d[x] &= a[x]
				}
			}
			for x := range d {
				d[x] &= in.mask
			}
		case opOrN:
			st.gatherArgs(in, n)
			as := st.argRows
			a0 := as[0]
			for x := range d {
				d[x] = a0[x]
			}
			for _, a := range as[1:] {
				for x := range d {
					d[x] |= a[x]
				}
			}
			for x := range d {
				d[x] &= in.mask
			}
		case opXorN:
			st.gatherArgs(in, n)
			as := st.argRows
			a0 := as[0]
			for x := range d {
				d[x] = a0[x]
			}
			for _, a := range as[1:] {
				for x := range d {
					d[x] ^= a[x]
				}
			}
			for x := range d {
				d[x] &= in.mask
			}
		case opMinN:
			st.gatherArgs(in, n)
			as := st.argRows
			sh, mask := in.sh, in.mask
			a0 := as[0]
			for x := range d {
				d[x] = uint64(sx(a0[x], sh))
			}
			for _, a := range as[1:] {
				for x := range d {
					if v := sx(a[x], sh); v < int64(d[x]) {
						d[x] = uint64(v)
					}
				}
			}
			for x := range d {
				d[x] &= mask
			}
		case opMaxN:
			st.gatherArgs(in, n)
			as := st.argRows
			sh, mask := in.sh, in.mask
			a0 := as[0]
			for x := range d {
				d[x] = uint64(sx(a0[x], sh))
			}
			for _, a := range as[1:] {
				for x := range d {
					if v := sx(a[x], sh); v > int64(d[x]) {
						d[x] = uint64(v)
					}
				}
			}
			for x := range d {
				d[x] &= mask
			}
		case OpSub:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := in.mask
			for x := range d {
				d[x] = (a[x] - b[x]) & mask
			}
		case OpMulHi:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := in.mask
			for x := range d {
				d[x] = ((a[x] & 0xffffffff) * (b[x] & 0xffffffff) >> 32) & mask
			}
		case OpDiv:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := in.mask
			for x := range d {
				dv := b[x] & mask
				if dv == 0 {
					fail(x, errDivZero())
					break
				}
				d[x] = (a[x] & mask) / dv
			}
		case OpMod:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := in.mask
			for x := range d {
				dv := b[x] & mask
				if dv == 0 {
					fail(x, errModZero())
					break
				}
				d[x] = (a[x] & mask) % dv
			}
		case opDivShift:
			a := rows[in.a][:n]
			mask, s := in.mask, uint(in.val)
			for x := range d {
				d[x] = (a[x] & mask) >> s
			}
		case opDivMagic:
			a := rows[in.a][:n]
			mask, m := in.mask, in.magic
			for x := range d {
				d[x] = mulHi64(a[x]&mask, m)
			}
		case opModShift:
			a := rows[in.a][:n]
			mask, dm := in.mask, in.dcon-1
			for x := range d {
				d[x] = a[x] & mask & dm
			}
		case opModMagic:
			a := rows[in.a][:n]
			mask, m, dc := in.mask, in.magic, in.dcon
			for x := range d {
				v := a[x] & mask
				d[x] = v - mulHi64(v, m)*dc
			}
		case OpNot:
			a := rows[in.a][:n]
			mask := in.mask
			for x := range d {
				d[x] = ^a[x] & mask
			}
		case OpNeg:
			a := rows[in.a][:n]
			mask := in.mask
			for x := range d {
				d[x] = -a[x] & mask
			}
		case OpShl:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := in.mask
			for x := range d {
				d[x] = a[x] << (b[x] & 31) & mask
			}
		case OpShr:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := in.mask
			for x := range d {
				d[x] = (a[x] & mask) >> (b[x] & 31)
			}
		case OpSar:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask, sh := in.mask, in.sh
			for x := range d {
				d[x] = uint64(sx(a[x], sh)>>(b[x]&31)) & mask
			}
		case OpZExt:
			a := rows[in.a][:n]
			mask := in.mask // the srcWidth mask
			for x := range d {
				d[x] = a[x] & mask
			}
		case OpSExt:
			a := rows[in.a][:n]
			mask, sh := in.mask, in.sh
			for x := range d {
				d[x] = uint64(sx(a[x], sh)) & mask
			}
		case OpExtract:
			a := rows[in.a][:n]
			mask, s := in.mask, 8*uint(in.val)
			for x := range d {
				d[x] = a[x] >> s & mask
			}
		case OpSelect:
			cond, bv, cv := rows[in.a][:n], rows[in.b][:n], rows[in.c][:n]
			for x := range d {
				if cond[x] != 0 {
					d[x] = bv[x]
				} else {
					d[x] = cv[x]
				}
			}
		case OpCmpEq:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := in.mask
			for x := range d {
				d[x] = b2u(a[x]&mask == b[x]&mask)
			}
		case OpCmpNe:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := in.mask
			for x := range d {
				d[x] = b2u(a[x]&mask != b[x]&mask)
			}
		case OpCmpLtS:
			a, b := rows[in.a][:n], rows[in.b][:n]
			sh := in.sh
			for x := range d {
				d[x] = b2u(sx(a[x], sh) < sx(b[x], sh))
			}
		case OpCmpLeS:
			a, b := rows[in.a][:n], rows[in.b][:n]
			sh := in.sh
			for x := range d {
				d[x] = b2u(sx(a[x], sh) <= sx(b[x], sh))
			}
		case OpCmpLtU:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := in.mask
			for x := range d {
				d[x] = b2u(a[x]&mask < b[x]&mask)
			}
		case OpCmpLeU:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := in.mask
			for x := range d {
				d[x] = b2u(a[x]&mask <= b[x]&mask)
			}
		case OpTable:
			a := rows[in.a][:n]
			for x := range d {
				v, err := tableAt(in.table, in.elem, int64(a[x]))
				if err != nil {
					fail(x, err)
					break
				}
				d[x] = v
			}
		case OpTableIn:
			a := rows[in.a][:n]
			for x := range d {
				v, err := tableAt(bd.tbl, in.elem, int64(a[x]))
				if err != nil {
					fail(x, err)
					break
				}
				d[x] = v
			}
		case OpIntToFP:
			a := rows[in.a][:n]
			sh := in.sh
			for x := range d {
				d[x] = math.Float64bits(float64(sx(a[x], sh)))
			}
		case OpFPToInt:
			a := rows[in.a][:n]
			mask := in.mask
			for x := range d {
				d[x] = uint64(int64(math.RoundToEven(math.Float64frombits(a[x])))) & mask
			}
		case OpFAdd:
			a, b := rows[in.a][:n], rows[in.b][:n]
			for x := range d {
				d[x] = math.Float64bits(math.Float64frombits(a[x]) + math.Float64frombits(b[x]))
			}
		case OpFSub:
			a, b := rows[in.a][:n], rows[in.b][:n]
			for x := range d {
				d[x] = math.Float64bits(math.Float64frombits(a[x]) - math.Float64frombits(b[x]))
			}
		case OpFMul:
			a, b := rows[in.a][:n], rows[in.b][:n]
			for x := range d {
				d[x] = math.Float64bits(math.Float64frombits(a[x]) * math.Float64frombits(b[x]))
			}
		case OpFDiv:
			a, b := rows[in.a][:n], rows[in.b][:n]
			for x := range d {
				d[x] = math.Float64bits(math.Float64frombits(a[x]) / math.Float64frombits(b[x]))
			}
		case OpCall:
			a := rows[in.a][:n]
			fn := in.fn
			for x := range d {
				d[x] = math.Float64bits(fn(math.Float64frombits(a[x])))
			}
		default:
			return 0, fmt.Errorf("ir: compiled program contains unexecutable op %v", in.op)
		}
	}
	return errX, firstErr
}

// gatherArgs collects the operand rows of an n-ary instruction, sliced to
// the active width, into the reusable scratch list.
func (st *progState) gatherArgs(in *pinst, n int) {
	as := st.argRows[:0]
	for _, r := range in.args {
		as = append(as, st.rows[r][:n])
	}
	st.argRows = as
}

// CompiledKernel is a lifted kernel with every channel tree lowered to a
// register program.  It is immutable after Compile and safe for concurrent
// use; per-evaluation state lives in Executors.
type CompiledKernel struct {
	Name                          string
	OutWidth, OutHeight, Channels int
	OriginX, OriginY              int
	// MapX and MapY are the kernel's affine output->input index maps
	// (identity for classic stencils); see Kernel.MapX.
	MapX, MapY AxisMap
	Progs      []*Program
}

// Mapped reports whether the kernel carries a non-identity index map.
func (ck *CompiledKernel) Mapped() bool { return !ck.MapX.Identity() || !ck.MapY.Identity() }

// Compile lowers every channel tree of the kernel.
func (k *Kernel) Compile() (*CompiledKernel, error) {
	if len(k.Trees) != k.Channels {
		return nil, fmt.Errorf("ir: kernel %s has %d trees for %d channels", k.Name, len(k.Trees), k.Channels)
	}
	ck := &CompiledKernel{
		Name:     k.Name,
		OutWidth: k.OutWidth, OutHeight: k.OutHeight, Channels: k.Channels,
		OriginX: k.OriginX, OriginY: k.OriginY,
		MapX: k.MapX, MapY: k.MapY,
	}
	for c, t := range k.Trees {
		p, err := CompileExpr(t)
		if err != nil {
			return nil, fmt.Errorf("ir: kernel %s channel %d: %w", k.Name, c, err)
		}
		ck.Progs = append(ck.Progs, p)
	}
	return ck, nil
}

// Executor evaluates a compiled kernel against one bound source.  It owns
// the register files and precomputed tap offsets, so evaluation performs
// no allocation.  An Executor is not safe for concurrent use; EvalParallel
// creates one per worker.
type Executor struct {
	k  *CompiledKernel
	bd binding
	// scalar holds the per-channel scalar state behind EvalAt; rows holds
	// the per-channel row executors (64-bit reference or lane-specialized,
	// as the width pass proved).
	scalar []*progState
	rows   []rowExec
}

// NewExecutor binds the kernel to a source.  Sources backed by
// image.Plane or image.Interleaved get fused flat-index addressing; other
// sources are sampled through the interface.
func (ck *CompiledKernel) NewExecutor(src Source) *Executor {
	return ck.newExecutor(src, ck.OutWidth)
}

// newExecutor builds an executor whose row register files hold rowWidth
// samples — the full output width for serial evaluation, one tile width
// for the blocked parallel driver.
func (ck *CompiledKernel) newExecutor(src Source, rowWidth int) *Executor {
	ex := &Executor{k: ck, bd: bindSource(src)}
	if num, den, _ := ck.MapX.Norm(); den == 1 {
		// An integral x-map keeps row execution vectorized at a constant
		// stride; fractional maps take the scalar tile path instead.
		ex.bd.xstep = num
	}
	for _, p := range ck.Progs {
		ex.scalar = append(ex.scalar, p.newState(&ex.bd, 0))
		ex.rows = append(ex.rows, newRowExec(p, &ex.bd, rowWidth))
	}
	return ex
}

// EvalAt evaluates channel c of output pixel (x, y) to one sample byte.
func (ex *Executor) EvalAt(x, y, c int) (uint8, error) {
	k := ex.k
	v, err := k.Progs[c].run(&ex.bd, ex.scalar[c], k.MapX.Apply(x)+k.OriginX, k.MapY.Apply(y)+k.OriginY, c)
	return uint8(v), err
}

// tileError is one tile's first failure in x-then-c per-sample scan order;
// a nil err means the tile rendered completely.
type tileError struct {
	x, y, c int
	err     error
}

// before orders tile errors by the serial per-sample scan: row-major, then
// x, then channel.
func (e tileError) before(o tileError) bool {
	if e.y != o.y {
		return e.y < o.y
	}
	if e.x != o.x {
		return e.x < o.x
	}
	return e.c < o.c
}

func (ck *CompiledKernel) wrapTileError(e tileError) error {
	return fmt.Errorf("ir: kernel %s at (%d,%d,%d): %w", ck.Name, e.x, e.y, e.c, e.err)
}

// evalTile renders output samples [x0,x1) x [y0,y1) into out (the full
// row-major output buffer), row-vectorized per channel over the tile
// width.  The returned tileError is the first failure the serial
// per-sample scan of the tile would hit, so callers can merge errors
// across tiles deterministically.  The executor's row width must be at
// least x1-x0.
func (ex *Executor) evalTile(x0, x1, y0, y1 int, out []byte) tileError {
	k := ex.k
	if _, den, _ := k.MapX.Norm(); den != 1 {
		// Fractional x-maps (upsampling) repeat input pixels at a
		// non-uniform stride, so the row executors' constant advance does
		// not apply; evaluate the tile per sample instead.
		return ex.evalTileScalar(x0, x1, y0, y1, out)
	}
	w, ch := k.OutWidth, k.Channels
	n := x1 - x0
	for y := y0; y < y1; y++ {
		rowBase := y*w*ch + x0*ch
		errX, errC := -1, -1
		var firstErr error
		for c := 0; c < ch; c++ {
			x, err := ex.rows[c].runRow(k.MapX.Apply(x0)+k.OriginX, k.MapY.Apply(y)+k.OriginY, c, n)
			if err != nil && (errX < 0 || x < errX) {
				errX, errC, firstErr = x, c, err
			}
			if err == nil {
				ex.rows[c].storeRow(out[rowBase+c:], ch, n)
			}
		}
		if firstErr != nil {
			return tileError{x: x0 + errX, y: y, c: errC, err: firstErr}
		}
	}
	return tileError{}
}

// evalTileScalar renders the tile one sample at a time through the scalar
// programs, applying the index maps per coordinate.  The y-then-x-then-c
// scan makes the first error it hits exactly the serial per-sample one.
func (ex *Executor) evalTileScalar(x0, x1, y0, y1 int, out []byte) tileError {
	k := ex.k
	w, ch := k.OutWidth, k.Channels
	for y := y0; y < y1; y++ {
		yi := k.MapY.Apply(y) + k.OriginY
		for x := x0; x < x1; x++ {
			xi := k.MapX.Apply(x) + k.OriginX
			base := (y*w + x) * ch
			for c := 0; c < ch; c++ {
				v, err := k.Progs[c].run(&ex.bd, ex.scalar[c], xi, yi, c)
				if err != nil {
					return tileError{x: x, y: y, c: c, err: err}
				}
				out[base+c] = uint8(v)
			}
		}
	}
	return tileError{}
}

// Eval renders the whole output region in row-major sample order, exactly
// like Kernel.Eval but through the compiled programs.
func (ex *Executor) Eval() ([]byte, error) {
	out := make([]byte, ex.k.OutWidth*ex.k.OutHeight*ex.k.Channels)
	if te := ex.evalTile(0, ex.k.OutWidth, 0, ex.k.OutHeight, out); te.err != nil {
		return nil, ex.k.wrapTileError(te)
	}
	return out, nil
}

// Eval is the one-shot convenience: bind src and render the whole output.
func (ck *CompiledKernel) Eval(src Source) ([]byte, error) {
	return ck.NewExecutor(src).Eval()
}

// Cache budgets the tile heuristic targets: the row register file of a
// tile should fit comfortably in L1, the tile's input and output traffic
// in L2.  These are deliberately conservative round numbers rather than
// probed hardware values; getting within 2x of optimal tiling captures
// almost all of the win.
const (
	tileL1Budget = 32 << 10
	tileL2Budget = 192 << 10
)

// tileSize picks the 2-D tile extents for the blocked parallel driver:
// the width is shrunk until the widest channel program's row register file
// fits the L1 budget (narrow lanes buy proportionally wider tiles), the
// height until a tile's sample traffic fits the L2 budget.
func (ck *CompiledKernel) tileSize() (tw, th int) {
	regBytes := 1
	for _, p := range ck.Progs {
		regBytes = max(regBytes, p.numRegs*p.width.laneBits/8)
	}
	tw = ck.OutWidth
	if tw*regBytes > tileL1Budget {
		tw = max(tileL1Budget/regBytes, 64)
		tw = min(tw, ck.OutWidth)
	}
	th = tileL2Budget / max(tw*ck.Channels, 1)
	th = min(max(th, 4), ck.OutHeight)
	return tw, th
}

// EvalParallel renders the output with a pool of workers over
// cache-blocked 2-D tiles, each worker evaluating whole tiles with its own
// Executor.  workers <= 0 uses GOMAXPROCS.  The output — and any reported
// error — is identical to Eval's regardless of worker count, scheduling or
// tile geometry; src must tolerate concurrent Sample calls (all package
// sources and the lift dump source are read-only).
func (ck *CompiledKernel) EvalParallel(src Source, workers int) ([]byte, error) {
	workers = ck.Workers(workers)
	out := make([]byte, ck.OutWidth*ck.OutHeight*ck.Channels)
	tw, th := ck.tileSize()
	tilesX := (ck.OutWidth + tw - 1) / tw
	tilesY := (ck.OutHeight + th - 1) / th

	// Every tile renders (no early abort): the serial scan's first error
	// may live in a higher-index tile than another tile's failure, so the
	// driver collects every tile's first error and picks the scan-order
	// minimum afterwards.
	errs := make([]tileError, tilesX*tilesY)
	_ = par.For(tilesX*tilesY, 1, workers, func(int) func(int, int) error {
		ex := ck.newExecutor(src, tw)
		return func(t0, t1 int) error {
			for t := t0; t < t1; t++ {
				ty, tx := t/tilesX, t%tilesX
				x0, y0 := tx*tw, ty*th
				errs[t] = ex.evalTile(x0, min(x0+tw, ck.OutWidth), y0, min(y0+th, ck.OutHeight), out)
			}
			return nil
		}
	})
	best := -1
	for i := range errs {
		if errs[i].err != nil && (best < 0 || errs[i].before(errs[best])) {
			best = i
		}
	}
	if best >= 0 {
		return nil, ck.wrapTileError(errs[best])
	}
	return out, nil
}

// Workers returns the effective worker count EvalParallel will use for a
// requested value, exposed so drivers can report it.  The count is capped
// by the number of tiles the output blocks into — a 3-row image never
// spins up 16 goroutines; it gets at most as many workers as it has
// independent tiles.
func (ck *CompiledKernel) Workers(requested int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	tw, th := ck.tileSize()
	tiles := ((ck.OutWidth + tw - 1) / tw) * ((ck.OutHeight + th - 1) / th)
	if requested > tiles {
		requested = tiles
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

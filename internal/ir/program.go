// Compiled execution of lifted kernels.  A Program is an expression tree
// lowered to a flat SSA-style register program: common subexpressions are
// computed once, constants live in a pooled register-file prefix, integer
// sums collapse into a single multi-tap instruction with the constant bias
// folded in, and constant divisions strength-reduce to multiply-high
// sequences.  One generic row executor (laneState[T].runRow in lanes.go)
// runs every program at the lane width the width pass proved: every
// instruction processes one output row of samples before the next
// dispatches, with input taps resolved by flat-index addressing against
// the concrete pixel backing — no interface dispatch, no allocation and
// almost no interpretive overhead per sample.  Index maps keep rows
// vectorized: an integral x-map is a constant input stride, and a
// fractional one splits each output row into residue classes that are each
// a constant-stride row (see Executor.Eval).  This is the
// reproduction's stand-in for the paper's regenerated Halide code: the
// lifted stencil as an executable program rather than a walked tree.
package ir

import (
	"fmt"
	"math/bits"
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
	// xstep is the per-output-sample input advance in pixels along x
	// within one executed row: 1 for classic stencils, the index map's
	// numerator for affine kernels.
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

// errDivZero and friends match the interpreter's failure modes.
func errDivZero() error { return fmt.Errorf("ir: division by zero") }
func errModZero() error { return fmt.Errorf("ir: modulo by zero") }
func errTable(idx int64, table []byte, elem int) error {
	return fmt.Errorf("ir: table index %d out of range (%d elements)", idx, len(table)/elem)
}
func errLoad(x, y, c int) error {
	return fmt.Errorf("ir: compiled load at (%d,%d,%d) outside the pixel backing", x, y, c)
}
func errUnexecutable(op Op) error {
	return fmt.Errorf("ir: compiled program contains unexecutable op %v", op)
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
// tests and one-off evaluation.  It executes a one-sample row at 64-bit
// lanes; drivers rendering whole images should use an Executor, which
// reuses the register file and tap offsets.
func (p *Program) Run(src Source, x, y, c int) (uint64, error) {
	bd := bindSource(src)
	st := newLaneState[uint64](p, &bd, 1)
	if _, err := st.runRow(x, y, c, 1); err != nil {
		return 0, err
	}
	return st.rows[p.root][0], nil
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
// no allocation.  An Executor is not safe for concurrent use.
type Executor struct {
	k  *CompiledKernel
	bd binding
	// rows holds the per-channel row executors, each at the lane width the
	// width pass proved.
	rows []rowExec
}

// NewExecutor binds the kernel to a source.  Sources backed by
// image.Plane or image.Interleaved get fused flat-index addressing; other
// sources are sampled through the interface.
func (ck *CompiledKernel) NewExecutor(src Source) *Executor {
	ex := &Executor{k: ck, bd: bindSource(src)}
	// Consecutive samples of one row (or, under a fractional map, of one
	// residue class) read num input pixels apart.
	ex.bd.xstep, _, _ = ck.MapX.Norm()
	for _, p := range ck.Progs {
		ex.rows = append(ex.rows, newRowExec(p, &ex.bd, ck.OutWidth))
	}
	return ex
}

// Eval renders the whole output region in row-major sample order, exactly
// like Kernel.Eval but through the compiled programs, row-vectorized per
// channel over the output width.  An error names the first failing sample
// of the serial per-sample scan: row-major, then x, then channel.
//
// Under a fractional x-map x' = floor((num*x+off)/den) the samples
// x = r + den*j of residue class r < den read input column
// MapX.Apply(r) + num*j, so each class is one row at stride num, stored
// every den samples.  Integral maps are the single class den == 1.
func (ex *Executor) Eval() ([]byte, error) {
	k := ex.k
	_, den, _ := k.MapX.Norm()
	w, ch := k.OutWidth, k.Channels
	out := make([]byte, w*k.OutHeight*ch)
	for y := 0; y < k.OutHeight; y++ {
		rowBase := y * w * ch
		yi := k.MapY.Apply(y) + k.OriginY
		errX, errC := -1, -1
		var firstErr error
		for r := 0; r < min(den, w); r++ {
			n := (w - r + den - 1) / den
			xi := k.MapX.Apply(r) + k.OriginX
			for c := 0; c < ch; c++ {
				j, err := ex.rows[c].runRow(xi, yi, c, n)
				if err != nil {
					// Within one x the channels run in order, so the
					// first failure kept is the scan's (x, c) minimum.
					if x := r + den*j; errX < 0 || x < errX {
						errX, errC, firstErr = x, c, err
					}
					continue
				}
				ex.rows[c].storeRow(out[rowBase+r*ch+c:], den*ch, n)
			}
		}
		if firstErr != nil {
			return nil, fmt.Errorf("ir: kernel %s at (%d,%d,%d): %w", k.Name, errX, y, errC, firstErr)
		}
	}
	return out, nil
}

// Eval is the one-shot convenience: bind src and render the whole output.
func (ck *CompiledKernel) Eval(src Source) ([]byte, error) {
	return ck.NewExecutor(src).Eval()
}

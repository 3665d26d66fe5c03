// Lowering from expression trees to flat register programs.
//
// The compiler performs three optimizations over a channel's tree:
//
//   - common-subexpression elimination: structurally identical subtrees
//     (by canonical key, so value-equal copies merge even when the tree
//     does not share pointers) compute into one register;
//   - constant pooling: every distinct constant, integer or float, is
//     materialized once in the register-file prefix and never reloaded;
//   - variadic binarization: canonicalized n-ary chains (the flattened
//     associative sums the lifting pipeline produces) become sequences of
//     binary instructions with identical masking semantics.
//
// Compilation is strict where the interpreter is lenient: malformed arities
// and unknown call symbols are rejected up front instead of failing at
// evaluation time.  Domain mismatches (an integer tree feeding a float
// operation or vice versa) are compiled to the zero value the interpreter's
// two-field value struct yields, so compiled execution stays bit-identical
// even on such trees.
package ir

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// cref is a compile-time value reference: a register in one of the two
// numbering spaces (constants are encoded as ^poolIndex, temporaries as
// their instruction index) plus the value's domain.
type cref struct {
	id    int32
	float bool
}

type poolKey struct {
	bits  uint64
	float bool
}

type compiler struct {
	consts []uint64
	pool   map[poolKey]int32
	insts  []pinst
	byPtr  map[*Expr]cref
	byID   map[int32]cref
	// Hash-consing state for exprID: structurally identical subtrees map
	// to one id.
	idByPtr map[*Expr]int32
	idByKey map[string]int32
}

// CompileExpr lowers one expression tree to a register program.
func CompileExpr(e *Expr) (*Program, error) {
	c := &compiler{
		pool:    make(map[poolKey]int32),
		byPtr:   make(map[*Expr]cref),
		byID:    make(map[int32]cref),
		idByPtr: make(map[*Expr]int32),
		idByKey: make(map[string]int32),
	}
	root, err := c.lower(e)
	if err != nil {
		return nil, err
	}
	p := &Program{
		consts:    c.consts,
		insts:     c.insts,
		numRegs:   len(c.consts) + len(c.insts),
		root:      c.fix(root.id),
		rootFloat: root.float,
	}
	for i := range p.insts {
		in := &p.insts[i]
		in.a, in.b, in.c = c.fix(in.a), c.fix(in.b), c.fix(in.c)
		for j := range in.args {
			in.args[j] = c.fix(in.args[j])
		}
		in.dst = c.fix(in.dst)
		finalize(in)
	}
	markLiveness(p)
	p.width = inferWidths(p)
	return p, nil
}

// markLiveness flags pure instructions whose value is never consumed —
// leftovers of the interpreter-exact domain coercions (a float subtree
// consumed as an integer reads as zero, so the float computation is dead).
// Fault-capable instructions (division, modulo, table lookups, fused
// loads) stay live: their runtime checks are observable, and the operands
// those checks read stay live with them.
func markLiveness(p *Program) {
	nc := int32(len(p.consts))
	live := make([]bool, len(p.insts))
	mark := func(id int32) {
		if id >= nc {
			live[id-nc] = true
		}
	}
	mark(p.root)
	for i := len(p.insts) - 1; i >= 0; i-- {
		in := &p.insts[i]
		if live[i] {
			for _, r := range operands(in) {
				mark(r)
			}
			continue
		}
		switch in.op {
		case OpDiv, OpMod:
			mark(in.b) // the zero check reads the divisor
		case OpTable, OpTableIn:
			mark(in.a) // the range check reads the index
		}
	}
	for i := range p.insts {
		if live[i] {
			continue
		}
		switch in := &p.insts[i]; in.op {
		case OpDiv, OpMod, OpTable, OpTableIn, OpLoad:
			// Fault-capable: keeps executing for its checks.
		case opSumTaps:
			if len(in.taps) == 0 {
				in.dead = true
			}
		default:
			in.dead = true
		}
	}
}

// finalize precomputes the executor's mask and sign-extension shift from
// the instruction's widths, replicating maskW and signExt exactly: widths
// 1, 2 and 4 mask and sign-extend, every other width passes values
// through untouched.
func finalize(in *pinst) {
	switch in.op {
	case OpZExt:
		in.mask = maskFor(int(in.srcWidth))
	case OpSExt:
		in.mask = maskFor(int(in.width))
		in.sh = shFor(int(in.srcWidth))
	case OpIntToFP:
		in.sh = shFor(int(in.srcWidth))
	case OpSar, opMinN, opMaxN, OpCmpLtS, OpCmpLeS:
		in.mask = maskFor(int(in.width))
		in.sh = shFor(int(in.width))
	case OpLoad, OpSelect, OpTable, OpTableIn, OpFAdd, OpFSub, OpFMul, OpFDiv, OpCall:
		// No masking: loads produce bytes, select copies a value, tables
		// produce at most elem bytes, float results stay full bit patterns.
	default:
		in.mask = maskFor(int(in.width))
	}
}

// divByConst strength-reduces an unsigned division or modulo by a
// constant.  A power-of-two divisor becomes a shift (or an AND for the
// remainder).  Any other divisor becomes an exact multiply-high with
// magic = floor(2^64/d) + 1: for a masked numerator a < 2^32 and divisor
// 2 <= d < 2^32, a*magic/2^64 <= a/d + a/2^64 < a/d + 1/d, so the high
// word is exactly floor(a/d).  Widths outside {1,2,4} leave the numerator
// unbounded and keep the runtime instruction, as does a divisor that
// masks to zero (which must keep faulting at runtime).
func divByConst(op Op, w uint8, d uint64, a int32) (pinst, bool) {
	dm := d & maskFor(int(w))
	if dm == 0 {
		return pinst{}, false
	}
	if dm&(dm-1) == 0 {
		if op == OpDiv {
			return pinst{op: opDivShift, width: w, val: int64(bits.TrailingZeros64(dm)), a: a}, true
		}
		return pinst{op: opModShift, width: w, dcon: dm, a: a}, true
	}
	if w != 1 && w != 2 && w != 4 {
		return pinst{}, false
	}
	magic := math.MaxUint64/dm + 1
	if op == OpDiv {
		return pinst{op: opDivMagic, width: w, magic: magic, dcon: dm, a: a}, true
	}
	return pinst{op: opModMagic, width: w, magic: magic, dcon: dm, a: a}, true
}

// fix maps an encoded register id to its final register-file index:
// constants keep their pool index, temporaries shift past the pool.
func (c *compiler) fix(id int32) int32 {
	if id < 0 {
		return ^id
	}
	return id + int32(len(c.consts))
}

// constRef pools a constant value, keyed by bits and domain.
func (c *compiler) constRef(bits uint64, float bool) cref {
	key := poolKey{bits: bits, float: float}
	if i, ok := c.pool[key]; ok {
		return cref{id: ^i, float: float}
	}
	i := int32(len(c.consts))
	c.consts = append(c.consts, bits)
	c.pool[key] = i
	return cref{id: ^i, float: float}
}

// emit appends one instruction defining a fresh temporary register.
func (c *compiler) emit(in pinst) cref {
	in.dst = int32(len(c.insts))
	c.insts = append(c.insts, in)
	return cref{id: in.dst, float: in.op.IsFloat() || in.op == OpConstF}
}

// asInt coerces a reference to the integer domain.  The interpreter's
// value struct zero-fills the unused field, so a float value consumed as an
// integer reads as 0; mirror that exactly.
func (c *compiler) asInt(r cref) cref {
	if !r.float {
		return r
	}
	return c.constRef(0, false)
}

// asFloat coerces a reference to the float domain (an integer value
// consumed as a float reads as 0.0, whose bit pattern is also zero).
func (c *compiler) asFloat(r cref) cref {
	if r.float {
		return r
	}
	return c.constRef(0, true)
}

func (c *compiler) lower(e *Expr) (cref, error) {
	if r, ok := c.byPtr[e]; ok {
		return r, nil
	}
	switch e.Op {
	case OpConst:
		r := c.constRef(uint64(e.Val), false)
		c.byPtr[e] = r
		return r, nil
	case OpConstF:
		r := c.constRef(math.Float64bits(e.F), true)
		c.byPtr[e] = r
		return r, nil
	}
	id := c.exprID(e)
	if r, ok := c.byID[id]; ok {
		c.byPtr[e] = r
		return r, nil
	}
	r, err := c.lowerOp(e)
	if err != nil {
		return cref{}, err
	}
	c.byPtr[e] = r
	c.byID[id] = r
	return r, nil
}

// exprID hash-conses the subtree: structurally identical subtrees (the
// value equality CSE merges by) get the same id.  Each node's key encodes
// its operator and scalar fields plus its children's *ids*, not their
// expansions, so key sizes and work stay linear even on the heavily
// shared DAGs the extractor's memo produces — a full textual expansion
// would be exponential there.
func (c *compiler) exprID(e *Expr) int32 {
	if id, ok := c.idByPtr[e]; ok {
		return id
	}
	b, _ := e.appendKeyHeader(nil, true)
	b = append(b, '(')
	for i, a := range e.Args {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '#')
		b = strconv.AppendInt(b, int64(c.exprID(a)), 10)
	}
	b = append(b, ')')
	id, ok := c.idByKey[string(b)]
	if !ok {
		id = int32(len(c.idByKey))
		c.idByKey[string(b)] = id
	}
	c.idByPtr[e] = id
	return id
}

// foldArity gives the exact operand count of the ops the generic
// constant-folding path may evaluate; ops with flexible arity fold in
// their own lowering branches.
var foldArity = map[Op]int{
	OpSub: 2, OpMulHi: 2, OpShl: 2, OpShr: 2, OpSar: 2,
	OpNot: 1, OpNeg: 1, OpZExt: 1, OpSExt: 1, OpExtract: 1,
	OpSelect: 3, OpIntToFP: 1, OpFPToInt: 1,
	OpFAdd: 2, OpFSub: 2, OpFMul: 2, OpFDiv: 2, OpCall: 1,
	OpCmpEq: 2, OpCmpNe: 2, OpCmpLtS: 2, OpCmpLeS: 2, OpCmpLtU: 2, OpCmpLeU: 2,
}

// constVal recovers the interpreter value of a constant reference.
func (c *compiler) constVal(r cref) value {
	bits := c.consts[^r.id]
	if r.float {
		return value{f: math.Float64frombits(bits), fl: true}
	}
	return value{i: bits}
}

// foldRefs evaluates a pure operation whose operands all lowered to pool
// constants, with the interpreter's own apply so the semantics (masking,
// domain mixing, rounding) are identical by construction.  Division,
// modulo and table lookups are never folded: their runtime faults must
// keep happening at runtime.
func (c *compiler) foldRefs(e *Expr, args []cref) (cref, bool) {
	arity, ok := foldArity[e.Op]
	if !ok || arity != len(args) {
		return cref{}, false
	}
	if e.Op == OpSelect && args[1].float != args[2].float {
		// Mixed-domain arms are a compile error, not a foldable value.
		return cref{}, false
	}
	if e.Op == OpCall {
		if _, ok := KnownCalls[e.Sym]; !ok {
			return cref{}, false
		}
	}
	vals := make([]value, len(args))
	for i, r := range args {
		if r.id >= 0 {
			return cref{}, false
		}
		vals[i] = c.constVal(r)
	}
	v, err := e.apply(vals)
	if err != nil {
		return cref{}, false
	}
	if v.fl {
		return c.constRef(math.Float64bits(v.f), true), true
	}
	return c.constRef(v.i, false), true
}

func (c *compiler) lowerOp(e *Expr) (cref, error) {
	w := uint8(e.Width)

	switch e.Op {
	case OpLoad:
		return c.emit(pinst{op: OpLoad, dx: int32(e.DX), dy: int32(e.DY), dc: int32(e.DC)}), nil

	case OpAdd:
		// The workhorse of stencil kernels: fuse the whole (possibly
		// n-ary) sum into one instruction.  Input taps fold into a tap
		// list, constants into a compile-time bias, and everything else
		// becomes a register operand; the mask applies once at the end,
		// exactly like the interpreter's variadic sum.
		if len(e.Args) == 0 {
			return cref{}, fmt.Errorf("ir: compile: %v with no operands", e.Op)
		}
		var taps []tap
		var bias uint64
		var regArgs []int32
		for _, a := range e.Args {
			switch a.Op {
			case OpLoad:
				taps = append(taps, tap{dx: int32(a.DX), dy: int32(a.DY), dc: int32(a.DC)})
			case OpConst:
				bias += uint64(a.Val)
			case OpConstF:
				// A float constant consumed by an integer sum reads as
				// integer zero: contributes nothing.
			default:
				r, err := c.lower(a)
				if err != nil {
					return cref{}, err
				}
				// Operands that folded to constants merge into the bias
				// instead of burning a register add per sample.
				if id := c.asInt(r).id; id < 0 {
					bias += c.consts[^id]
				} else {
					regArgs = append(regArgs, id)
				}
			}
		}
		if len(taps) == 0 && len(regArgs) == 0 {
			// Every operand was a compile-time constant: the sum is one.
			return c.constRef(maskW(bias, e.Width), false), nil
		}
		return c.emit(pinst{op: opSumTaps, width: w, val: int64(bias), taps: taps, args: regArgs}), nil

	case OpMul, OpAnd, OpOr, OpXor, OpMin, OpMax:
		if len(e.Args) == 0 {
			return cref{}, fmt.Errorf("ir: compile: %v with no operands", e.Op)
		}
		nary := map[Op]Op{OpMul: opMulN, OpAnd: opAndN, OpOr: opOrN, OpXor: opXorN, OpMin: opMinN, OpMax: opMaxN}
		refs := make([]cref, len(e.Args))
		regArgs := make([]int32, len(e.Args))
		allConst := true
		for i, a := range e.Args {
			r, err := c.lower(a)
			if err != nil {
				return cref{}, err
			}
			refs[i] = r
			regArgs[i] = c.asInt(r).id
			if regArgs[i] >= 0 {
				allConst = false
			}
		}
		if allConst {
			vals := make([]value, len(refs))
			for i, r := range refs {
				vals[i] = c.constVal(r)
			}
			if v, err := e.apply(vals); err == nil {
				return c.constRef(v.i, false), nil
			}
		}
		return c.emit(pinst{op: nary[e.Op], width: w, args: regArgs}), nil

	case OpDiv, OpMod:
		if len(e.Args) != 2 {
			return cref{}, fmt.Errorf("ir: compile: %v with %d operands", e.Op, len(e.Args))
		}
		num, err := c.lower(e.Args[0])
		if err != nil {
			return cref{}, err
		}
		a := c.asInt(num).id
		if dv := e.Args[1]; dv.Op == OpConst {
			if in, ok := divByConst(e.Op, w, uint64(dv.Val), a); ok {
				return c.emit(in), nil
			}
		}
		den, err := c.lower(e.Args[1])
		if err != nil {
			return cref{}, err
		}
		return c.emit(pinst{op: e.Op, width: w, a: a, b: c.asInt(den).id}), nil
	}

	args := make([]cref, len(e.Args))
	for i, a := range e.Args {
		r, err := c.lower(a)
		if err != nil {
			return cref{}, err
		}
		args[i] = r
	}

	if r, ok := c.foldRefs(e, args); ok {
		return r, nil
	}

	switch e.Op {
	case OpSub, OpMulHi, OpShl, OpShr, OpSar,
		OpCmpEq, OpCmpNe, OpCmpLtS, OpCmpLeS, OpCmpLtU, OpCmpLeU:
		if len(args) != 2 {
			return cref{}, fmt.Errorf("ir: compile: %v with %d operands", e.Op, len(args))
		}
		return c.emit(pinst{op: e.Op, width: w, a: c.asInt(args[0]).id, b: c.asInt(args[1]).id}), nil

	case OpNot, OpNeg:
		if len(args) != 1 {
			return cref{}, fmt.Errorf("ir: compile: %v with %d operands", e.Op, len(args))
		}
		return c.emit(pinst{op: e.Op, width: w, a: c.asInt(args[0]).id}), nil

	case OpZExt, OpSExt:
		if len(args) != 1 {
			return cref{}, fmt.Errorf("ir: compile: %v with %d operands", e.Op, len(args))
		}
		return c.emit(pinst{op: e.Op, width: w, srcWidth: uint8(e.SrcWidth), a: c.asInt(args[0]).id}), nil

	case OpExtract:
		if len(args) != 1 {
			return cref{}, fmt.Errorf("ir: compile: extract with %d operands", len(args))
		}
		return c.emit(pinst{op: OpExtract, width: w, val: e.Val, a: c.asInt(args[0]).id}), nil

	case OpSelect:
		if len(args) != 3 {
			return cref{}, fmt.Errorf("ir: compile: select with %d operands", len(args))
		}
		if args[1].float != args[2].float {
			return cref{}, fmt.Errorf("ir: compile: select arms have mixed integer/float domains")
		}
		r := c.emit(pinst{op: OpSelect, fl: args[1].float, a: c.asInt(args[0]).id, b: args[1].id, c: args[2].id})
		r.float = args[1].float
		return r, nil

	case OpTable:
		if len(args) != 1 {
			return cref{}, fmt.Errorf("ir: compile: table with %d operands", len(args))
		}
		if e.Elem <= 0 {
			return cref{}, fmt.Errorf("ir: compile: table with element width %d", e.Elem)
		}
		return c.emit(pinst{op: OpTable, table: e.Table, elem: e.Elem, a: c.asInt(args[0]).id}), nil

	case OpTableIn:
		if len(args) != 1 {
			return cref{}, fmt.Errorf("ir: compile: tablein with %d operands", len(args))
		}
		if e.Elem <= 0 {
			return cref{}, fmt.Errorf("ir: compile: tablein with element width %d", e.Elem)
		}
		return c.emit(pinst{op: OpTableIn, elem: e.Elem, a: c.asInt(args[0]).id}), nil

	case OpIntToFP:
		if len(args) != 1 {
			return cref{}, fmt.Errorf("ir: compile: i2f with %d operands", len(args))
		}
		return c.emit(pinst{op: OpIntToFP, srcWidth: uint8(e.SrcWidth), a: c.asInt(args[0]).id}), nil

	case OpFPToInt:
		if len(args) != 1 {
			return cref{}, fmt.Errorf("ir: compile: f2i with %d operands", len(args))
		}
		return c.emit(pinst{op: OpFPToInt, width: w, a: c.asFloat(args[0]).id}), nil

	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		if len(args) != 2 {
			return cref{}, fmt.Errorf("ir: compile: %v with %d operands", e.Op, len(args))
		}
		return c.emit(pinst{op: e.Op, a: c.asFloat(args[0]).id, b: c.asFloat(args[1]).id}), nil

	case OpCall:
		if len(args) != 1 {
			return cref{}, fmt.Errorf("ir: compile: call with %d operands", len(args))
		}
		fn, ok := KnownCalls[e.Sym]
		if !ok {
			return cref{}, fmt.Errorf("ir: compile: unknown library call %q", e.Sym)
		}
		return c.emit(pinst{op: OpCall, fn: fn, sym: e.Sym, a: c.asFloat(args[0]).id}), nil
	}
	return cref{}, fmt.Errorf("ir: compile: op %v is not compilable", e.Op)
}

// Disasm renders the program for debugging and golden tests.
func (p *Program) Disasm() string {
	var b strings.Builder
	for i, cv := range p.consts {
		fmt.Fprintf(&b, "r%d = const %#x\n", i, cv)
	}
	for i := range p.insts {
		in := &p.insts[i]
		fmt.Fprintf(&b, "r%d = %s", in.dst, in.op)
		if in.width != 0 {
			fmt.Fprintf(&b, ".w%d", in.width)
		}
		switch in.op {
		case OpLoad:
			fmt.Fprintf(&b, " (%d,%d,%d)", in.dx, in.dy, in.dc)
		case opSumTaps:
			for _, t := range in.taps {
				fmt.Fprintf(&b, " (%d,%d,%d)", t.dx, t.dy, t.dc)
			}
			for _, r := range in.args {
				fmt.Fprintf(&b, " r%d", r)
			}
			if in.val != 0 {
				fmt.Fprintf(&b, " +%d", in.val)
			}
		case opMulN, opAndN, opOrN, opXorN, opMinN, opMaxN:
			for j, r := range in.args {
				if j > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, " r%d", r)
			}
		case opDivShift, opModShift, opDivMagic, opModMagic:
			fmt.Fprintf(&b, " r%d", in.a)
			if in.op == opDivShift {
				fmt.Fprintf(&b, ", %d", in.val)
			} else {
				fmt.Fprintf(&b, ", d=%d", in.dcon)
			}
		case OpNot, OpNeg, OpZExt, OpSExt, OpIntToFP, OpFPToInt, OpCall, OpTable, OpTableIn, OpExtract:
			fmt.Fprintf(&b, " r%d", in.a)
		case OpSelect:
			fmt.Fprintf(&b, " r%d, r%d, r%d", in.a, in.b, in.c)
		default:
			fmt.Fprintf(&b, " r%d, r%d", in.a, in.b)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "ret r%d\n", p.root)
	return b.String()
}

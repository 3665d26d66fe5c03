// Package ir defines the Halide-like stencil expression language lifted
// kernels are expressed in, together with an evaluator that executes a
// lifted kernel directly against image buffers (paper section 5: the
// expression trees extracted from the dynamic trace are the bodies of
// Halide update definitions).
//
// An expression computes one output sample as a function of input samples
// at constant offsets from the output coordinate (x, y, c), constants,
// read-only table lookups and known library calls.  Integer operations
// carry an explicit byte width and wrap exactly like the 32-bit machine the
// tree was lifted from, so evaluating a lifted kernel reproduces the legacy
// binary's output bit for bit.
package ir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Op enumerates the expression node kinds.
type Op uint8

// Expression operations.
const (
	OpInvalid Op = iota

	// Leaves.
	OpLoad   // input sample at (x+DX, y+DY, c+DC)
	OpConst  // integer constant (Val)
	OpConstF // floating point constant (F)

	// Integer arithmetic, masked to Width bytes.
	OpAdd
	OpSub
	OpMul
	OpMulHi // high 32 bits of a widening 32x32 unsigned multiply
	OpDiv   // unsigned
	OpMod   // unsigned
	OpAnd
	OpOr
	OpXor
	OpNot
	OpNeg
	OpShl
	OpShr // logical shift right
	OpSar // arithmetic shift right

	// Width changes.
	OpZExt    // zero extend (child masked at SrcWidth)
	OpSExt    // sign extend from SrcWidth to Width
	OpExtract // byte-extract Width bytes at byte offset Val from the child

	// High-level operations introduced by canonicalization.
	OpMin    // signed minimum
	OpMax    // signed maximum
	OpSelect // Args[0] != 0 ? Args[1] : Args[2]

	// Comparisons, introduced by predicated (branch-aware) lifting: the
	// operands are compared at Width bytes and the result is 0 or 1.
	// Greater-than forms are normalized away by swapping the operands, so
	// only equality, less-than and less-or-equal exist.
	OpCmpEq  // Args[0] == Args[1]
	OpCmpNe  // Args[0] != Args[1]
	OpCmpLtS // signed Args[0] < Args[1]
	OpCmpLeS // signed Args[0] <= Args[1]
	OpCmpLtU // unsigned Args[0] < Args[1]
	OpCmpLeU // unsigned Args[0] <= Args[1]

	// Table lookup: Table[index * Elem .. ), Args[0] is the index.
	OpTable
	// Stage-input table lookup: like OpTable, but the table bytes are not
	// baked into the tree — they are the serialized output of an earlier
	// reduction stage, bound at evaluation time.  Args[0] is the index,
	// Elem the element width in bytes.
	OpTableIn

	// Floating point.
	OpIntToFP // signed SrcWidth-byte integer to float64
	OpFPToInt // round float64 to nearest-even integer, masked to Width
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpCall // known library call Sym(Args[0])
)

var opNames = map[Op]string{
	OpLoad: "in", OpConst: "const", OpConstF: "constf",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpMulHi: "*hi", OpDiv: "/", OpMod: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpNot: "~", OpNeg: "neg",
	OpShl: "<<", OpShr: ">>", OpSar: ">>a",
	OpZExt: "zext", OpSExt: "sext", OpExtract: "extract",
	OpMin: "min", OpMax: "max", OpSelect: "select", OpTable: "table",
	OpTableIn: "tablein",
	OpCmpEq:   "==", OpCmpNe: "!=", OpCmpLtS: "<", OpCmpLeS: "<=",
	OpCmpLtU: "<u", OpCmpLeU: "<=u",
	OpIntToFP: "i2f", OpFPToInt: "f2i",
	OpFAdd: "+.", OpFSub: "-.", OpFMul: "*.", OpFDiv: "/.",
	OpCall: "call",
}

// String returns the compact spelling of the operation.
func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("irop(%d)", uint8(op))
}

// IsFloat reports whether the operation produces a floating point value.
func (op Op) IsFloat() bool {
	switch op {
	case OpConstF, OpIntToFP, OpFAdd, OpFSub, OpFMul, OpFDiv, OpCall:
		return true
	}
	return false
}

// IsCmp reports whether the operation is a comparison producing 0 or 1.
func (op Op) IsCmp() bool {
	switch op {
	case OpCmpEq, OpCmpNe, OpCmpLtS, OpCmpLeS, OpCmpLtU, OpCmpLeU:
		return true
	}
	return false
}

// Commutative reports whether the operation's integer arguments may be
// reordered without changing the result.  Floating point operations are
// excluded: reassociating or reordering them changes rounding.
func (op Op) Commutative() bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpMin, OpMax:
		return true
	}
	return false
}

// Associative reports whether chains of the operation may be flattened.
func (op Op) Associative() bool {
	return op.Commutative()
}

// Expr is one node of a lifted stencil expression tree.
type Expr struct {
	Op Op

	// DX, DY, DC are the load offsets relative to the output coordinate
	// (OpLoad only).
	DX, DY, DC int

	// Val is the integer constant for OpConst and the byte offset for
	// OpExtract.
	Val int64
	// F is the floating point constant for OpConstF.
	F float64

	// Width is the result width in bytes for integer operations; results
	// wrap at this width exactly like the lifted machine code.  Zero means
	// "no masking" (leaves, float ops).
	Width int
	// SrcWidth is the source width in bytes for OpZExt, OpSExt, OpIntToFP
	// and OpExtract.
	SrcWidth int

	// Sym is the library function name for OpCall.
	Sym string

	// Table holds the read-only table contents for OpTable; Elem is the
	// element width in bytes.
	Table []byte
	Elem  int

	// Args are the operand subtrees.
	Args []*Expr
}

// Load returns an input-sample leaf at offset (dx, dy, dc).
func Load(dx, dy, dc int) *Expr { return &Expr{Op: OpLoad, DX: dx, DY: dy, DC: dc} }

// Const returns an integer constant leaf.
func Const(v int64) *Expr { return &Expr{Op: OpConst, Val: v} }

// ConstF returns a floating point constant leaf.
func ConstF(f float64) *Expr { return &Expr{Op: OpConstF, F: f} }

// Bin returns a width-masked binary integer node.
func Bin(op Op, width int, a, b *Expr) *Expr {
	return &Expr{Op: op, Width: width, Args: []*Expr{a, b}}
}

// Clone returns a deep copy of the expression.
func (e *Expr) Clone() *Expr {
	c := *e
	if e.Args != nil {
		c.Args = make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			c.Args[i] = a.Clone()
		}
	}
	return &c
}

// Size returns the number of nodes in the tree.
func (e *Expr) Size() int {
	n := 1
	for _, a := range e.Args {
		n += a.Size()
	}
	return n
}

// Key returns a canonical structural key for the tree: two trees compute
// the same function iff (after canonicalization) their keys are equal.
// Unlike String it encodes widths and table identities, so it is the
// equality the lifting pipeline uses to collapse unrolled copies.
func (e *Expr) Key() string {
	return string(e.appendKey(nil))
}

func (e *Expr) appendKey(b []byte) []byte {
	b, leaf := e.appendKeyHeader(b, false)
	if leaf {
		return b
	}
	b = append(b, '(')
	for i, a := range e.Args {
		if i > 0 {
			b = append(b, ',')
		}
		b = a.appendKey(b)
	}
	return append(b, ')')
}

// AppendKeyHeader appends the operator-and-scalar-field prefix of the
// node's Key — everything except the parenthesized children — and reports
// whether the node is a leaf (its whole key is the header).  Callers that
// cache child keys rebuild Key byte for byte as
// header + "(" + child keys joined by "," + ")".
func (e *Expr) AppendKeyHeader(b []byte) ([]byte, bool) {
	return e.appendKeyHeader(b, false)
}

// appendKeyHeader is AppendKeyHeader with a choice of float spelling.
// exactFloats spells float constants as IEEE-754 bit patterns, so distinct
// NaN payloads never share a key; the compiler's common-subexpression
// elimination demands that exactness, the printable Key keeps the readable
// %g form.
func (e *Expr) appendKeyHeader(b []byte, exactFloats bool) ([]byte, bool) {
	switch e.Op {
	case OpLoad:
		b = append(b, "in("...)
		b = strconv.AppendInt(b, int64(e.DX), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.DY), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.DC), 10)
		return append(b, ')'), true
	case OpConst:
		return strconv.AppendInt(b, e.Val, 10), true
	case OpConstF:
		if exactFloats {
			return appendHex16(append(b, 'f'), math.Float64bits(e.F)), true
		}
		return strconv.AppendFloat(b, e.F, 'g', -1, 64), true
	}
	b = append(b, e.Op.String()...)
	switch e.Op {
	case OpZExt, OpSExt, OpIntToFP:
		b = strconv.AppendInt(b, int64(e.SrcWidth), 10)
		b = append(b, '>')
		b = strconv.AppendInt(b, int64(e.Width), 10)
	case OpExtract:
		b = append(b, '@')
		b = strconv.AppendInt(b, e.Val, 10)
		b = append(b, " w"...)
		b = strconv.AppendInt(b, int64(e.Width), 10)
	case OpTable:
		b = append(b, '#')
		b = strconv.AppendUint(b, tableFingerprint(e.Table), 16)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(e.Elem), 10)
	case OpTableIn:
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(e.Elem), 10)
	case OpCall:
		b = append(b, ':')
		b = append(b, e.Sym...)
	default:
		if e.Width != 0 {
			b = append(b, 'w')
			b = strconv.AppendInt(b, int64(e.Width), 10)
		}
	}
	return b, false
}

// appendHex16 appends v as exactly 16 lowercase hex digits.
func appendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[(v>>uint(shift))&0xf])
	}
	return b
}

// tableFingerprint hashes table contents (FNV-1a) so distinct tables get
// distinct keys without embedding the whole table in the key.
func tableFingerprint(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range data {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// String renders the expression in a compact Halide-like syntax, e.g.
//
//	min(max(5*in(x, y) - (in(x-1, y) + in(x+1, y)), 0), 255)
func (e *Expr) String() string {
	var b strings.Builder
	e.print(&b)
	return b.String()
}

func coord(base string, d int) string {
	switch {
	case d > 0:
		return fmt.Sprintf("%s+%d", base, d)
	case d < 0:
		return fmt.Sprintf("%s-%d", base, -d)
	}
	return base
}

func (e *Expr) print(b *strings.Builder) {
	switch e.Op {
	case OpLoad:
		fmt.Fprintf(b, "in(%s, %s", coord("x", e.DX), coord("y", e.DY))
		if e.DC != 0 {
			fmt.Fprintf(b, ", %s", coord("c", e.DC))
		}
		b.WriteString(")")
	case OpConst:
		fmt.Fprintf(b, "%d", e.Val)
	case OpConstF:
		fmt.Fprintf(b, "%g", e.F)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpSar, OpFAdd, OpFSub, OpFMul, OpFDiv, OpMulHi,
		OpCmpEq, OpCmpNe, OpCmpLtS, OpCmpLeS, OpCmpLtU, OpCmpLeU:
		b.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				fmt.Fprintf(b, " %s ", e.Op)
			}
			a.print(b)
		}
		b.WriteString(")")
	case OpNot, OpNeg:
		fmt.Fprintf(b, "%s(", e.Op)
		e.Args[0].print(b)
		b.WriteString(")")
	case OpZExt, OpSExt:
		// Width changes are semantically important but noisy; render the
		// child with a light annotation only for sign extension.
		if e.Op == OpSExt {
			fmt.Fprintf(b, "i%d(", e.SrcWidth*8)
			e.Args[0].print(b)
			b.WriteString(")")
		} else {
			e.Args[0].print(b)
		}
	case OpExtract:
		fmt.Fprintf(b, "byte%d(", e.Val)
		e.Args[0].print(b)
		b.WriteString(")")
	case OpMin, OpMax:
		fmt.Fprintf(b, "%s(", e.Op)
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			a.print(b)
		}
		b.WriteString(")")
	case OpSelect:
		b.WriteString("select(")
		e.Args[0].print(b)
		b.WriteString(", ")
		e.Args[1].print(b)
		b.WriteString(", ")
		e.Args[2].print(b)
		b.WriteString(")")
	case OpTable:
		b.WriteString("lut[")
		e.Args[0].print(b)
		b.WriteString("]")
	case OpTableIn:
		b.WriteString("tbl[")
		e.Args[0].print(b)
		b.WriteString("]")
	case OpIntToFP:
		b.WriteString("float(")
		e.Args[0].print(b)
		b.WriteString(")")
	case OpFPToInt:
		b.WriteString("round(")
		e.Args[0].print(b)
		b.WriteString(")")
	case OpCall:
		fmt.Fprintf(b, "%s(", e.Sym)
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			a.print(b)
		}
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "%s(", e.Op)
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			a.print(b)
		}
		b.WriteString(")")
	}
}

// AxisMap is an affine (rational) index map along one output axis: output
// coordinate x reads input coordinate floor((Num*x + Off) / Den).  The
// zero value is the identity map (Num=1, Den=1, Off=0), so kernels lifted
// before index maps existed need no migration.  Lifted maps are
// normalized: Num >= 1, Den >= 1, Off >= 0, and gcd reduction is the
// lifter's job (a {2,2,0} map is spelled {1,1,0}).
type AxisMap struct {
	Num, Den, Off int
}

// Identity reports whether the map is the identity (including the zero
// value).
func (m AxisMap) Identity() bool {
	return m == AxisMap{} || (m.Num == 1 && m.Den == 1 && m.Off == 0)
}

// Norm returns the effective (num, den, off) triple, resolving the zero
// value to the identity.
func (m AxisMap) Norm() (num, den, off int) {
	if (m == AxisMap{}) {
		return 1, 1, 0
	}
	return m.Num, m.Den, m.Off
}

// Apply maps one output coordinate to its input coordinate.
func (m AxisMap) Apply(x int) int {
	num, den, off := m.Norm()
	if den == 1 {
		return num*x + off
	}
	return floorDiv(num*x+off, den)
}

// String renders the map as the input-coordinate formula for an axis.
func (m AxisMap) String() string { return m.axisString("x") }

func (m AxisMap) axisString(axis string) string {
	num, den, off := m.Norm()
	s := axis
	if num != 1 {
		s = fmt.Sprintf("%d*%s", num, axis)
	}
	if off != 0 {
		s = fmt.Sprintf("%s+%d", s, off)
	}
	if den != 1 {
		s = fmt.Sprintf("(%s)/%d", s, den)
	}
	return s
}

// floorDiv is division rounding toward negative infinity (what the x86
// sar-based strength reductions and C's >> compute for the lifted code).
func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// Kernel is a lifted stencil kernel: one expression tree per output channel
// over an output grid.  The output coordinate frame is the written region
// discovered by buffer reconstruction; load offsets are relative to it.
type Kernel struct {
	Name string
	// OutWidth and OutHeight are the extents of the written output region
	// in pixels; Channels is the number of samples per pixel.
	OutWidth, OutHeight, Channels int
	// OriginX and OriginY map output coordinates into the input: output
	// pixel (x, y) is centered on input pixel (x+OriginX, y+OriginY).  A
	// filter that only writes an interior window (like the sharpen kernel)
	// has a nonzero origin; full-frame filters have origin (0, 0).
	OriginX, OriginY int
	// MapX and MapY are the affine index maps of a resize-style kernel:
	// output (x, y) is centered on input (MapX(x)+OriginX, MapY(y)+OriginY),
	// and load offsets are relative to that mapped center.  Zero values are
	// the identity, recovering the classic stencil frame.  Affine kernels
	// are normalized by the lifter to Origin (0, 0) with any centering
	// folded into the maps' offsets.
	MapX, MapY AxisMap
	// Trees holds the per-channel expression trees (len == Channels).
	Trees []*Expr
}

// Mapped reports whether the kernel uses a non-identity index map.
func (k *Kernel) Mapped() bool { return !k.MapX.Identity() || !k.MapY.Identity() }

// String renders the kernel as Halide-like update definitions.
func (k *Kernel) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s: %dx%dx%d\n", k.Name, k.OutWidth, k.OutHeight, k.Channels)
	if k.Mapped() {
		fmt.Fprintf(&b, "// index map: x' = %s, y' = %s\n", k.MapX.axisString("x"), k.MapY.axisString("y"))
	}
	uniform := true
	for _, t := range k.Trees[1:] {
		if t.Key() != k.Trees[0].Key() {
			uniform = false
		}
	}
	if uniform {
		fmt.Fprintf(&b, "out(x, y, c) = %s\n", k.Trees[0])
	} else {
		for c, t := range k.Trees {
			fmt.Fprintf(&b, "out(x, y, %d) = %s\n", c, t)
		}
	}
	return b.String()
}

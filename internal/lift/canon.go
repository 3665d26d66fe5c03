package lift

import (
	"math"
	"sort"

	"helium/internal/ir"
)

// Canonicalize rewrites an extracted expression tree into the canonical
// form the pipeline compares trees in (paper section 5): constants fold,
// associative integer chains flatten and sort, branch-free clamp idioms
// become min/max, and value-range analysis removes narrowing operations
// that cannot change the value.  Distinct dynamic copies of the same
// source computation — unrolled lanes, peeled remainder iterations, tile
// positions — all canonicalize to the same tree.  Floating point chains
// are never reassociated or reordered: that would change rounding.
//
// Canonicalize is a one-shot wrapper over a fresh expression table; the
// result is a fresh tree that shares no node with the input.
func Canonicalize(e *ir.Expr) *ir.Expr {
	t := newExprTable()
	return t.canon(t.adopt(e)).Clone()
}

// canon returns the canonical form of an interned node, computed once per
// distinct node: the node rebuilt over its canonical children, rewritten.
func (t *exprTable) canon(e *ir.Expr) *ir.Expr {
	tn := t.byExpr[e]
	if tn.canon != nil {
		return tn.canon
	}
	var buf [3]*ir.Expr
	args := buf[:0]
	for _, a := range e.Args {
		args = append(args, t.canon(a))
	}
	c := t.rewrite(t.node(*e, args...))
	tn.canon = c
	return c
}

// rewrite applies the canonicalizing rewrites to a node whose arguments
// are already canonical, memoized per node.
func (t *exprTable) rewrite(e *ir.Expr) *ir.Expr {
	tn := t.byExpr[e]
	if tn.rw == nil {
		tn.rw = t.rewriteNode(e)
	}
	return tn.rw
}

func (t *exprTable) rewriteNode(e *ir.Expr) *ir.Expr {
	e = t.foldConst(e)
	if e.Op == ir.OpConst || e.Op == ir.OpConstF {
		return e
	}

	switch e.Op {
	case ir.OpSelect:
		return t.rewriteSelect(e)
	case ir.OpZExt:
		// Zero extension of a value that already fits its source width is
		// the value itself.
		if iv := ir.Bounds(e.Args[0]); iv.Within(0, int64(maskOf(e.SrcWidth))) {
			return e.Args[0]
		}
	case ir.OpSExt:
		// Sign extension with a provably clear sign bit changes nothing.
		if iv := ir.Bounds(e.Args[0]); iv.Within(0, int64(maskOf(e.SrcWidth))>>1) {
			return e.Args[0]
		}
	case ir.OpExtract:
		// Extracting the low bytes of a value that fits in them is a no-op.
		if e.Val == 0 {
			if iv := ir.Bounds(e.Args[0]); iv.Within(0, int64(maskOf(e.Width))) {
				return e.Args[0]
			}
		}
	case ir.OpShl, ir.OpShr, ir.OpSar:
		if isConst(e.Args[1], 0) {
			return e.Args[0]
		}
	case ir.OpSub:
		if isConst(e.Args[1], 0) {
			return e.Args[0]
		}
	}

	if e.Op.Associative() {
		e = t.flatten(e)
		if e.Op == ir.OpConst || len(e.Args) == 1 {
			if e.Op == ir.OpConst {
				return e
			}
			return e.Args[0]
		}
		if m := t.matchMin(e); m != nil {
			return m
		}
		if m := t.matchMax(e); m != nil {
			return m
		}
	}
	return e
}

// foldConst evaluates operations whose arguments are all constants.
func (t *exprTable) foldConst(e *ir.Expr) *ir.Expr {
	switch e.Op {
	case ir.OpLoad, ir.OpConst, ir.OpConstF, ir.OpTable, ir.OpSelect:
		return e
	}
	for _, a := range e.Args {
		if a.Op != ir.OpConst && a.Op != ir.OpConstF {
			return e
		}
	}
	v, err := e.Eval(nil, 0, 0, 0)
	if err != nil {
		return e
	}
	if e.Op.IsFloat() {
		return t.constF(math.Float64frombits(v))
	}
	return t.constant(int64(v))
}

// flatten merges nested chains of the same associative operation, combines
// constant operands, drops identity elements and sorts the operands by
// canonical key, so every unrolled copy of the same reduction linearizes
// identically.
func (t *exprTable) flatten(e *ir.Expr) *ir.Expr {
	var args []*ir.Expr
	var consts []int64
	var walk func(n *ir.Expr)
	walk = func(n *ir.Expr) {
		if n.Op == e.Op && n.Width == e.Width {
			for _, a := range n.Args {
				walk(a)
			}
			return
		}
		if n.Op == ir.OpConst {
			consts = append(consts, n.Val)
			return
		}
		args = append(args, n)
	}
	for _, a := range e.Args {
		walk(a)
	}

	if len(consts) > 0 {
		cval := consts[0]
		for _, c := range consts[1:] {
			switch e.Op {
			case ir.OpAdd:
				cval += c
			case ir.OpMul:
				cval *= c
			case ir.OpAnd:
				cval &= c
			case ir.OpOr:
				cval |= c
			case ir.OpXor:
				cval ^= c
			case ir.OpMin:
				cval = min(cval, c)
			case ir.OpMax:
				cval = max(cval, c)
			}
		}
		identity := false
		switch e.Op {
		case ir.OpAdd, ir.OpOr, ir.OpXor:
			identity = cval == 0 && len(args) > 0
		case ir.OpMul:
			if cval == 0 {
				return t.constant(0)
			}
			identity = cval == 1 && len(args) > 0
		case ir.OpAnd:
			identity = e.Width > 0 && uint64(cval) == maskOf(e.Width) && len(args) > 0
		}
		if !identity {
			args = append(args, t.constant(cval))
		}
	}

	// Canonical operand order: non-constants by key, constants last.
	sort.SliceStable(args, func(i, j int) bool {
		ci := args[i].Op == ir.OpConst || args[i].Op == ir.OpConstF
		cj := args[j].Op == ir.OpConst || args[j].Op == ir.OpConstF
		if ci != cj {
			return cj
		}
		return t.key(args[i]) < t.key(args[j])
	})
	if len(args) == 1 {
		return args[0]
	}
	return t.node(ir.Expr{Op: e.Op, Width: e.Width}, args...)
}

func maskOf(width int) uint64 {
	return 1<<(8*width) - 1
}

func isConst(e *ir.Expr, v int64) bool {
	return e.Op == ir.OpConst && e.Val == v
}

// rewriteSelect simplifies a predicated node produced by branch-aware
// lifting.  A constant condition picks its arm, equal arms collapse, and
// the compare-and-pick shapes that are provably clamps become min/max —
// anything else stays a select.
func (t *exprTable) rewriteSelect(e *ir.Expr) *ir.Expr {
	cond, a, b := e.Args[0], e.Args[1], e.Args[2]
	if cond.Op == ir.OpConst {
		if cond.Val != 0 {
			return a
		}
		return b
	}
	if t.sameKey(a, b) {
		return a
	}
	// Hoist the store-narrowing byte extraction out of the arms so clamp
	// recognition sees the compare operands themselves:
	//
	//	select(c, byteN(x), K) == byteN(select(c, x, K))
	//
	// (a select only picks a value, so extraction commutes with it; a
	// constant arm that already fits the extracted width is its own
	// extraction).  The rewritten select often becomes min/max, whose
	// bounds then discharge the extraction entirely.
	if h := t.hoistExtract(cond, a, b); h != nil {
		return h
	}
	if cond.Op != ir.OpCmpLtS && cond.Op != ir.OpCmpLeS {
		return e
	}
	// select(x < y, x, y) is min(x, y); select(x < y, y, x) is max(x, y).
	// Both hold for <= as well: on equality every form yields the same
	// value.
	l, r := cond.Args[0], cond.Args[1]
	lk, rk, ak, bk := t.key(l), t.key(r), t.key(a), t.key(b)
	w := cond.Width
	if ak == lk && bk == rk {
		return t.rewrite(t.bin(ir.OpMin, w, a, b))
	}
	if ak == rk && bk == lk {
		return t.rewrite(t.bin(ir.OpMax, w, a, b))
	}
	// Two-sided clamps built from sequential branches:
	//
	//	select(L <= v, min(v, C), L)  ==  min(max(v, L), C)   when C >= L
	//	select(v <= C, max(v, L), C)  ==  min(max(v, L), C)   when C >= L
	//
	// (the dropped compare cannot fire on the clamped side because the
	// clamp constants are ordered).
	if l.Op == ir.OpConst && b.Op == ir.OpConst && l.Val == b.Val &&
		a.Op == ir.OpMin && len(a.Args) == 2 {
		if c := t.constOperand(a, rk); c != nil && c.Val >= l.Val {
			return t.rewrite(t.bin(ir.OpMin, w, t.rewrite(t.bin(ir.OpMax, w, r, t.constant(l.Val))), c))
		}
	}
	if r.Op == ir.OpConst && b.Op == ir.OpConst && r.Val == b.Val &&
		a.Op == ir.OpMax && len(a.Args) == 2 {
		if c := t.constOperand(a, lk); c != nil && r.Val >= c.Val {
			return t.rewrite(t.bin(ir.OpMin, w, t.rewrite(t.bin(ir.OpMax, w, l, c)), t.constant(r.Val)))
		}
	}
	return e
}

// hoistExtract rewrites select(c, byte0(x), y) to byte0(select(c, x, y))
// when y is a constant fitting the extracted width (or an identical
// extraction), and nil when the shape does not apply.
func (t *exprTable) hoistExtract(cond, a, b *ir.Expr) *ir.Expr {
	ex := a
	other, otherFirst := b, false
	if ex.Op != ir.OpExtract || ex.Val != 0 {
		ex, other, otherFirst = b, a, true
	}
	if ex.Op != ir.OpExtract || ex.Val != 0 {
		return nil
	}
	var inner *ir.Expr
	switch {
	case other.Op == ir.OpConst && other.Val >= 0 && uint64(other.Val) <= maskOf(ex.Width):
		inner = other
	case other.Op == ir.OpExtract && other.Val == 0 && other.Width == ex.Width && other.SrcWidth == ex.SrcWidth:
		inner = other.Args[0]
	default:
		return nil
	}
	x, y := ex.Args[0], inner
	if otherFirst {
		x, y = y, x
	}
	sel := t.rewriteSelect(t.node(ir.Expr{Op: ir.OpSelect}, cond, x, y))
	return t.rewrite(t.node(ir.Expr{Op: ir.OpExtract, Val: 0, Width: ex.Width, SrcWidth: ex.SrcWidth}, sel))
}

// constOperand returns the constant bound of a two-operand min/max whose
// other operand's key is vKey.
func (t *exprTable) constOperand(m *ir.Expr, vKey string) *ir.Expr {
	for i, arg := range m.Args {
		if arg.Op == ir.OpConst && t.key(m.Args[1-i]) == vKey {
			return arg
		}
	}
	return nil
}

// matchMax recognizes the branch-free lower clamp
//
//	x & ^(x >>a 31)  ==  max(x, 0)
//
// on a flattened, sorted AND node.
func (t *exprTable) matchMax(e *ir.Expr) *ir.Expr {
	if e.Op != ir.OpAnd || len(e.Args) != 2 || e.Width != 4 {
		return nil
	}
	for i := 0; i < 2; i++ {
		x, not := e.Args[i], e.Args[1-i]
		if not.Op != ir.OpNot {
			continue
		}
		sar := not.Args[0]
		if sar.Op != ir.OpSar || !isConst(sar.Args[1], 31) {
			continue
		}
		if t.sameKey(sar.Args[0], x) {
			return t.bin(ir.OpMax, 4, x, t.constant(0))
		}
	}
	return nil
}

// matchMin recognizes the branch-free upper clamp
//
//	c + ((x - c) & ((x - c) >>a 31))  ==  min(x, c)
//
// on a flattened, sorted ADD node.
func (t *exprTable) matchMin(e *ir.Expr) *ir.Expr {
	if e.Op != ir.OpAdd || len(e.Args) != 2 || e.Width != 4 {
		return nil
	}
	for i := 0; i < 2; i++ {
		c, and := e.Args[i], e.Args[1-i]
		if c.Op != ir.OpConst || and.Op != ir.OpAnd || len(and.Args) != 2 {
			continue
		}
		for j := 0; j < 2; j++ {
			d, sar := and.Args[j], and.Args[1-j]
			if sar.Op != ir.OpSar || !isConst(sar.Args[1], 31) || !t.sameKey(sar.Args[0], d) {
				continue
			}
			if d.Op != ir.OpSub || !isConst(d.Args[1], c.Val) {
				continue
			}
			return t.bin(ir.OpMin, 4, d.Args[0], t.constant(c.Val))
		}
	}
	return nil
}

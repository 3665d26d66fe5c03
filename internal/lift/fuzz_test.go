package lift

import (
	"sync"
	"testing"

	"helium/internal/ir"
)

// exprDecoder turns a fuzzer byte string into a bounded, arity-correct
// integer expression tree.  Only structurally valid trees are built — the
// canonicalizer's contract starts at well-formed extractor output — but
// within that, operators, widths, constants and tap offsets are whatever
// the bytes say.
type exprDecoder struct {
	data  []byte
	pos   int
	nodes int
}

func (d *exprDecoder) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// canonOps are the integer operators the extractor can produce, tagged
// with their arity (OpSelect is handled separately).
var canonOps = []struct {
	op    ir.Op
	arity int
}{
	{ir.OpAdd, 2}, {ir.OpSub, 2}, {ir.OpMul, 2}, {ir.OpMulHi, 2},
	{ir.OpDiv, 2}, {ir.OpMod, 2}, {ir.OpAnd, 2}, {ir.OpOr, 2},
	{ir.OpXor, 2}, {ir.OpShl, 2}, {ir.OpShr, 2}, {ir.OpSar, 2},
	{ir.OpMin, 2}, {ir.OpMax, 2},
	{ir.OpCmpEq, 2}, {ir.OpCmpNe, 2}, {ir.OpCmpLtS, 2}, {ir.OpCmpLeS, 2},
	{ir.OpCmpLtU, 2}, {ir.OpCmpLeU, 2},
	{ir.OpNot, 1}, {ir.OpNeg, 1},
}

func (d *exprDecoder) width() int { return []int{1, 2, 4}[d.next()%3] }

func (d *exprDecoder) expr(depth int) *ir.Expr {
	d.nodes++
	b := d.next()
	if depth >= 8 || d.nodes > 300 || b < 64 {
		// Leaf.
		if b&1 == 0 {
			return ir.Const(int64(int8(d.next())) << (d.next() % 16))
		}
		return ir.Load(int(int8(d.next()))%4, int(int8(d.next()))%4, 0)
	}
	switch {
	case b < 80: // zext/sext/extract wrappers
		e := &ir.Expr{Width: d.width(), SrcWidth: d.width(), Args: []*ir.Expr{d.expr(depth + 1)}}
		switch b % 3 {
		case 0:
			e.Op = ir.OpZExt
		case 1:
			e.Op = ir.OpSExt
		default:
			e.Op = ir.OpExtract
			e.Val = int64(d.next() % 4)
		}
		return e
	case b < 96: // select
		return &ir.Expr{Op: ir.OpSelect, Width: d.width(),
			Args: []*ir.Expr{d.expr(depth + 1), d.expr(depth + 1), d.expr(depth + 1)}}
	case b < 112: // flattened associative chain (3..4 args)
		n := 3 + int(d.next()%2)
		e := &ir.Expr{Op: []ir.Op{ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor}[d.next()%5], Width: d.width()}
		for i := 0; i < n; i++ {
			e.Args = append(e.Args, d.expr(depth+1))
		}
		return e
	default:
		oa := canonOps[int(d.next())%len(canonOps)]
		e := &ir.Expr{Op: oa.op, Width: d.width()}
		for i := 0; i < oa.arity; i++ {
			e.Args = append(e.Args, d.expr(depth+1))
		}
		return e
	}
}

// sharedCanon is the expression table FuzzCanon reuses across inputs, so
// each input is canonicalized by a table that has already interned and
// canonicalized the previous ones.  It is reset when it grows large, to
// keep long fuzzing runs bounded.
var sharedCanon struct {
	sync.Mutex
	t *exprTable
}

// FuzzCanon throws arbitrary well-formed trees at the canonicalizer and
// holds it to its structural guarantees: it terminates without
// panicking; it is idempotent — canonical form is a fixed point, so
// re-canonicalizing never changes the tree's key (idempotence is what
// unification leans on: trees are compared by canonical key, so a canon
// that kept drifting would collapse nothing); and memoization is exact —
// a table that already holds earlier inputs' nodes and canonical forms
// canonicalizes the input to the same key as a fresh Canonicalize.
func FuzzCanon(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &exprDecoder{data: data}
		e := d.expr(0)
		before := e.Key()
		c1 := Canonicalize(e)
		c2 := Canonicalize(c1)
		if k1, k2 := c1.Key(), c2.Key(); k1 != k2 {
			t.Fatalf("canonicalization is not idempotent:\n first: %s\nsecond: %s", k1, k2)
		}

		sharedCanon.Lock()
		defer sharedCanon.Unlock()
		if sharedCanon.t == nil || sharedCanon.t.Len() > 1<<16 {
			sharedCanon.t = newExprTable()
		}
		st := sharedCanon.t
		sc := st.canon(st.adopt(e))
		if got, want := st.key(sc), c1.Key(); got != want {
			t.Fatalf("shared-table canonicalization differs from a fresh one:\nshared: %s\n fresh: %s", got, want)
		}
		if got, want := st.key(st.canon(sc)), c1.Key(); got != want {
			t.Fatalf("shared-table canonicalization is not idempotent:\n first: %s\nsecond: %s", want, got)
		}
		if got := e.Key(); got != before {
			t.Fatalf("canonicalization mutated its input:\n before: %s\n  after: %s", before, got)
		}
	})
}

package lift

import (
	"math"
	"strings"

	"helium/internal/ir"
)

// exprTable hash-conses expression nodes.  Every node built through a
// table is interned by its operator, its scalar fields and the identity
// of its (already interned) children, so structurally equal subtrees are
// one node: a repeated node costs a map lookup and no allocation.  On top
// of the interning the table caches, per node, its rendered Key (built
// once from the children's cached keys) and its canonical form, so the
// canonicalizer runs once per distinct node instead of once per output
// sample that contains it.
//
// Interned nodes are shared by everything built through the table and
// must never be mutated; rewrites that move loads build new nodes
// (shift), and trees that leave the lifter are deep copies (Clone) that
// share no node with any table.  A table is not safe for concurrent use:
// each extraction worker owns one, and unification, the affine refit and
// the reduction recognizer each own one per stage.
type exprTable struct {
	nodes   map[nodeKey]*tnode
	byExpr  map[*ir.Expr]*tnode
	adopted map[*ir.Expr]*ir.Expr // foreign node -> interned copy
	shifted map[shiftKey]*ir.Expr
	classes map[string]int32 // rendered key -> key class
	syms    map[string]int32
	lists   map[string]int32 // child-id lists of nodes with more than 3 args
	scratch []byte
}

// tnode is one interned node and its cached facts.
type tnode struct {
	e      ir.Expr
	argBuf [3]*ir.Expr // backs e.Args for nodes with at most three args
	id     int32
	class  int32 // key class, 0 until first asked
	loads  int8  // 0 unknown, 1 reads no input sample, 2 reads one
	key    string
	canon  *ir.Expr // canonical form, nil until computed
	rw     *ir.Expr // rewrite of this (canonical-argument) node
}

// nodeKey is a node's interning identity: every ir.Expr field, with the
// children by pointer (they are interned first), the table by its backing
// array and floats by bit pattern.  Identity is therefore at least as fine
// as Key equality, so memoizing any structural function per node is exact.
type nodeKey struct {
	a, b, c               *ir.Expr
	tbl                   *byte
	tblLen, nargs         int
	val                   int64
	f                     uint64
	dx, dy, dc            int
	width, srcWidth, elem int
	sym, list             int32
	op                    ir.Op
}

type shiftKey struct {
	e      *ir.Expr
	dx, dy int
}

// testHookTable, when non-nil, receives every expression table once its
// owner (named by role: extract, unify, affine, reduction) is done with
// it; tests bound table growth through it.
var testHookTable func(role string, t *exprTable)

func newExprTable() *exprTable {
	return &exprTable{
		nodes:   make(map[nodeKey]*tnode),
		byExpr:  make(map[*ir.Expr]*tnode),
		adopted: make(map[*ir.Expr]*ir.Expr),
	}
}

// Len reports the number of distinct nodes interned so far.
func (t *exprTable) Len() int { return len(t.byExpr) }

// node interns the node with p's scalar fields (p.Args is ignored) over
// the given interned children.
func (t *exprTable) node(p ir.Expr, args ...*ir.Expr) *ir.Expr {
	k := nodeKey{
		op: p.Op, nargs: len(args),
		dx: p.DX, dy: p.DY, dc: p.DC,
		val: p.Val, f: math.Float64bits(p.F),
		width: p.Width, srcWidth: p.SrcWidth, elem: p.Elem,
	}
	switch len(args) {
	case 0:
	case 1:
		k.a = args[0]
	case 2:
		k.a, k.b = args[0], args[1]
	case 3:
		k.a, k.b, k.c = args[0], args[1], args[2]
	default:
		k.list = t.listID(args)
	}
	if p.Sym != "" {
		k.sym = t.symID(p.Sym)
	}
	if len(p.Table) > 0 {
		k.tbl, k.tblLen = &p.Table[0], len(p.Table)
	}
	if tn, ok := t.nodes[k]; ok {
		return &tn.e
	}
	tn := &tnode{id: int32(len(t.byExpr))}
	tn.e = ir.Expr{
		Op: p.Op, DX: p.DX, DY: p.DY, DC: p.DC,
		Val: p.Val, F: p.F, Width: p.Width, SrcWidth: p.SrcWidth,
		Sym: p.Sym, Table: p.Table, Elem: p.Elem,
	}
	switch {
	case len(args) == 0:
	case len(args) <= len(tn.argBuf):
		tn.e.Args = tn.argBuf[:len(args):len(args)]
		copy(tn.e.Args, args)
	default:
		tn.e.Args = append([]*ir.Expr(nil), args...)
	}
	t.nodes[k] = tn
	t.byExpr[&tn.e] = tn
	return &tn.e
}

// listID interns the identity list of a wide node's children.
func (t *exprTable) listID(args []*ir.Expr) int32 {
	b := t.scratch[:0]
	for _, a := range args {
		id := t.byExpr[a].id
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	t.scratch = b
	if id, ok := t.lists[string(b)]; ok {
		return id
	}
	if t.lists == nil {
		t.lists = make(map[string]int32)
	}
	id := int32(len(t.lists) + 1)
	t.lists[string(b)] = id
	return id
}

func (t *exprTable) symID(s string) int32 {
	if id, ok := t.syms[s]; ok {
		return id
	}
	if t.syms == nil {
		t.syms = make(map[string]int32)
	}
	id := int32(len(t.syms) + 1)
	t.syms[s] = id
	return id
}

func (t *exprTable) constant(v int64) *ir.Expr { return t.node(ir.Expr{Op: ir.OpConst, Val: v}) }

func (t *exprTable) constF(f float64) *ir.Expr { return t.node(ir.Expr{Op: ir.OpConstF, F: f}) }

func (t *exprTable) load(dx, dy, dc int) *ir.Expr {
	return t.node(ir.Expr{Op: ir.OpLoad, DX: dx, DY: dy, DC: dc})
}

func (t *exprTable) bin(op ir.Op, width int, a, b *ir.Expr) *ir.Expr {
	return t.node(ir.Expr{Op: op, Width: width}, a, b)
}

// adopt interns a tree built outside this table (by hand, or through
// another table) and returns its interned copy; the input is not touched.
func (t *exprTable) adopt(e *ir.Expr) *ir.Expr {
	if _, ok := t.byExpr[e]; ok {
		return e
	}
	if n, ok := t.adopted[e]; ok {
		return n
	}
	var buf [3]*ir.Expr
	args := buf[:0]
	for _, a := range e.Args {
		args = append(args, t.adopt(a))
	}
	n := t.node(*e, args...)
	t.adopted[e] = n
	return n
}

// key returns the node's Key, rendered once from its children's cached
// keys (byte-identical to ir.Expr.Key).
func (t *exprTable) key(e *ir.Expr) string {
	tn := t.byExpr[e]
	if tn.key != "" {
		return tn.key
	}
	n := 2
	for _, a := range e.Args {
		n += len(t.key(a)) + 1
	}
	hdr, leaf := e.AppendKeyHeader(t.scratch[:0])
	t.scratch = hdr
	if leaf {
		tn.key = string(hdr)
		return tn.key
	}
	var b strings.Builder
	b.Grow(len(hdr) + n)
	b.Write(hdr)
	b.WriteByte('(')
	for i, a := range e.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.byExpr[a].key)
	}
	b.WriteByte(')')
	tn.key = b.String()
	return tn.key
}

// class returns a small id shared by exactly the nodes with equal keys:
// the equality unification groups by, looked up once per distinct node.
func (t *exprTable) class(e *ir.Expr) int32 {
	tn := t.byExpr[e]
	if tn.class == 0 {
		if t.classes == nil {
			t.classes = make(map[string]int32)
		}
		k := t.key(e)
		c, ok := t.classes[k]
		if !ok {
			c = int32(len(t.classes) + 1)
			t.classes[k] = c
		}
		tn.class = c
	}
	return tn.class
}

// sameKey reports whether two nodes of this table have equal keys.
func (t *exprTable) sameKey(a, b *ir.Expr) bool {
	return a == b || t.key(a) == t.key(b)
}

// hasLoad reports whether the expression reads any input sample.
func (t *exprTable) hasLoad(e *ir.Expr) bool {
	tn := t.byExpr[e]
	if tn.loads == 0 {
		tn.loads = 1
		if e.Op == ir.OpLoad {
			tn.loads = 2
		}
		for _, a := range e.Args {
			if t.hasLoad(a) {
				tn.loads = 2
				break
			}
		}
	}
	return tn.loads == 2
}

// shift returns the node with every load moved by (-dx, -dy), built as
// new interned nodes: the copy-on-write form of rebasing a tree's taps.
func (t *exprTable) shift(e *ir.Expr, dx, dy int) *ir.Expr {
	if dx == 0 && dy == 0 {
		return e
	}
	k := shiftKey{e: e, dx: dx, dy: dy}
	if r, ok := t.shifted[k]; ok {
		return r
	}
	p := *e
	if p.Op == ir.OpLoad {
		p.DX -= dx
		p.DY -= dy
	}
	var buf [3]*ir.Expr
	args := buf[:0]
	for _, a := range e.Args {
		args = append(args, t.shift(a, dx, dy))
	}
	r := t.node(p, args...)
	if t.shifted == nil {
		t.shifted = make(map[shiftKey]*ir.Expr)
	}
	t.shifted[k] = r
	return r
}

package ir

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"helium/internal/image"
)

// testRNG is a splitmix64 generator so the differential trees are
// deterministic across runs and Go versions.
type testRNG uint64

func (r *testRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// opaqueSource hides the concrete backing from bindSource, forcing the
// compiled executor onto its generic Source path.
type opaqueSource struct{ s Source }

func (o opaqueSource) Sample(x, y, c int) uint8 { return o.s.Sample(x, y, c) }

// treeGen builds random well-formed expression trees covering every op,
// mixed widths, tables, float chains and deliberate domain mixes.
type treeGen struct {
	r *testRNG
}

func (g *treeGen) width() int {
	switch g.r.intn(8) {
	case 0:
		return 1
	case 1:
		return 2
	default:
		return 4
	}
}

func (g *treeGen) load() *Expr {
	return Load(g.r.intn(5)-2, g.r.intn(5)-2, 0)
}

func (g *treeGen) constant() *Expr {
	vals := []int64{0, 1, 2, 3, 9, 255, 256, -1, -8, 0x7fffffff, -0x80000000, 0xffffffff, 31}
	return Const(vals[g.r.intn(len(vals))])
}

func (g *treeGen) constantF() *Expr {
	vals := []float64{0, 1, 0.5, -2.25, 255, 1e-3, 3.75, -0.0, 2.5}
	return ConstF(vals[g.r.intn(len(vals))])
}

// intExpr generates an integer-domain tree.  With a small probability it
// returns a float tree instead, exercising the interpreter's rule that a
// float value consumed as an integer reads as zero.
func (g *treeGen) intExpr(depth int) *Expr {
	if g.r.intn(20) == 0 && depth > 0 {
		return g.floatExpr(depth - 1)
	}
	if depth <= 0 {
		if g.r.intn(2) == 0 {
			return g.load()
		}
		return g.constant()
	}
	w := g.width()
	switch g.r.intn(22) {
	case 0: // n-ary chains, including the degenerate single-operand form.
		n := 1 + g.r.intn(3)
		args := make([]*Expr, n)
		for i := range args {
			args[i] = g.intExpr(depth - 1)
		}
		ops := []Op{OpAdd, OpMul, OpAnd, OpOr, OpXor, OpMin, OpMax}
		return &Expr{Op: ops[g.r.intn(len(ops))], Width: w, Args: args}
	case 1:
		return Bin(OpSub, w, g.intExpr(depth-1), g.intExpr(depth-1))
	case 2:
		return Bin(OpMul, w, g.intExpr(depth-1), g.intExpr(depth-1))
	case 3:
		return Bin(OpMulHi, 4, g.intExpr(depth-1), g.intExpr(depth-1))
	case 4: // division, sometimes by zero
		return Bin(OpDiv, w, g.intExpr(depth-1), g.intExpr(depth-1))
	case 5:
		return Bin(OpMod, w, g.intExpr(depth-1), g.intExpr(depth-1))
	case 6:
		return Bin(OpAnd, w, g.intExpr(depth-1), g.intExpr(depth-1))
	case 7:
		return Bin(OpOr, w, g.intExpr(depth-1), g.intExpr(depth-1))
	case 8:
		return Bin(OpXor, w, g.intExpr(depth-1), g.intExpr(depth-1))
	case 9:
		return &Expr{Op: OpNot, Width: w, Args: []*Expr{g.intExpr(depth - 1)}}
	case 10:
		return &Expr{Op: OpNeg, Width: w, Args: []*Expr{g.intExpr(depth - 1)}}
	case 11:
		return Bin(OpShl, w, g.intExpr(depth-1), g.intExpr(depth-1))
	case 12:
		return Bin(OpShr, w, g.intExpr(depth-1), g.intExpr(depth-1))
	case 13:
		return Bin(OpSar, w, g.intExpr(depth-1), g.intExpr(depth-1))
	case 14:
		sw := []int{1, 2, 4}[g.r.intn(3)]
		return &Expr{Op: OpZExt, Width: w, SrcWidth: sw, Args: []*Expr{g.intExpr(depth - 1)}}
	case 15:
		sw := []int{1, 2, 4}[g.r.intn(3)]
		return &Expr{Op: OpSExt, Width: w, SrcWidth: sw, Args: []*Expr{g.intExpr(depth - 1)}}
	case 16:
		return &Expr{Op: OpExtract, Width: 1 + g.r.intn(2), SrcWidth: 4, Val: int64(g.r.intn(4)), Args: []*Expr{g.intExpr(depth - 1)}}
	case 17:
		return Bin(OpMin, w, g.intExpr(depth-1), g.intExpr(depth-1))
	case 18:
		return Bin(OpMax, w, g.intExpr(depth-1), g.intExpr(depth-1))
	case 19:
		a, b := g.intExpr(depth-1), g.intExpr(depth-1)
		// The compiler (rightly) rejects mixed-domain arms, so keep the
		// rare domain flips of both arms in agreement.
		if a.Op.IsFloat() != b.Op.IsFloat() {
			b = g.constant()
			if a.Op.IsFloat() {
				a = g.constant()
			}
		}
		return &Expr{Op: OpSelect, Args: []*Expr{g.intExpr(depth - 1), a, b}}
	case 20: // table lookup, sometimes sized so byte indices run off the end
		elem := 1 + g.r.intn(2)
		n := []int{16, 300}[g.r.intn(2)]
		table := make([]byte, elem*n)
		for i := range table {
			table[i] = byte(g.r.next())
		}
		idx := g.intExpr(depth - 1)
		if g.r.intn(2) == 0 {
			idx = &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{g.load()}}
		}
		return &Expr{Op: OpTable, Table: table, Elem: elem, Args: []*Expr{idx}}
	default: // round-trip through the float domain
		return &Expr{Op: OpFPToInt, Width: 4, Args: []*Expr{g.floatExpr(depth - 1)}}
	}
}

// floatExpr generates a float-domain tree, with the mirror-image rare
// domain mix (an integer value consumed as a float reads as 0.0).
func (g *treeGen) floatExpr(depth int) *Expr {
	if g.r.intn(20) == 0 && depth > 0 {
		return g.intExpr(depth - 1)
	}
	if depth <= 0 {
		return g.constantF()
	}
	switch g.r.intn(7) {
	case 0:
		sw := []int{1, 2, 4}[g.r.intn(3)]
		return &Expr{Op: OpIntToFP, SrcWidth: sw, Args: []*Expr{g.intExpr(depth - 1)}}
	case 1:
		return &Expr{Op: OpFAdd, Args: []*Expr{g.floatExpr(depth - 1), g.floatExpr(depth - 1)}}
	case 2:
		return &Expr{Op: OpFSub, Args: []*Expr{g.floatExpr(depth - 1), g.floatExpr(depth - 1)}}
	case 3:
		return &Expr{Op: OpFMul, Args: []*Expr{g.floatExpr(depth - 1), g.floatExpr(depth - 1)}}
	case 4:
		return &Expr{Op: OpFDiv, Args: []*Expr{g.floatExpr(depth - 1), g.floatExpr(depth - 1)}}
	case 5:
		syms := []string{"sqrt", "floor", "ceil", "exp", "log"}
		return &Expr{Op: OpCall, Sym: syms[g.r.intn(len(syms))], Args: []*Expr{g.floatExpr(depth - 1)}}
	default:
		return g.constantF()
	}
}

// diffPlane builds the deterministic plane all differential runs sample.
func diffPlane() *image.Plane {
	p := image.NewPlane(8, 6, 2)
	r := testRNG(42)
	for y := -2; y < 8; y++ {
		for x := -2; x < 10; x++ {
			p.Set(x, y, byte(r.next()))
		}
	}
	return p
}

// TestCompiledDifferential generates random well-formed trees and asserts
// compiled execution is bit-identical to the tree-walking interpreter —
// values and error outcomes alike — on both the fused plane path and the
// generic Source path.
func TestCompiledDifferential(t *testing.T) {
	plane := diffPlane()
	fused := PlaneSource{P: plane}
	generic := opaqueSource{s: fused}
	coords := [][2]int{{0, 0}, {3, 2}, {7, 5}, {2, 4}}

	r := testRNG(1)
	g := &treeGen{r: &r}
	trees := 0
	for i := 0; i < 400; i++ {
		var e *Expr
		if i%4 == 3 {
			e = g.floatExpr(4)
		} else {
			e = g.intExpr(4)
		}
		p, err := CompileExpr(e)
		if err != nil {
			t.Fatalf("tree %d: CompileExpr(%s): %v", i, e, err)
		}
		trees++
		for _, xy := range coords {
			x, y := xy[0], xy[1]
			want, werr := e.Eval(fused, x, y, 0)
			for _, src := range []Source{fused, generic} {
				got, gerr := p.Run(src, x, y, 0)
				if (werr != nil) != (gerr != nil) {
					t.Fatalf("tree %d at (%d,%d): interp err %v, compiled err %v\ntree: %s\nprogram:\n%s",
						i, x, y, werr, gerr, e, p.Disasm())
				}
				if werr == nil && got != want {
					t.Fatalf("tree %d at (%d,%d): interp %#x, compiled %#x\ntree: %s\nprogram:\n%s",
						i, x, y, want, got, e, p.Disasm())
				}
			}
		}
	}
	if trees != 400 {
		t.Fatalf("generated %d trees, want 400", trees)
	}
}

// TestCompiledRowDifferential pits the row-vectorized executor against the
// interpreter over whole kernel grids: outputs must be byte-identical and,
// when a tree faults on some sample, the error — failing coordinate and
// message alike — must be the one an x-then-c per-sample scan reports.
func TestCompiledRowDifferential(t *testing.T) {
	plane := diffPlane()
	src := PlaneSource{P: plane}
	generic := opaqueSource{s: src}
	values, faults := 0, 0
	for seed := uint64(0); seed < 150; seed++ {
		r := testRNG(seed)
		g := &treeGen{r: &r}
		tree := g.intExpr(4)
		k := &Kernel{Name: "rowdiff", OutWidth: 6, OutHeight: 4, Channels: 1,
			OriginX: 1, OriginY: 1, Trees: []*Expr{tree}}
		want, werr := k.Eval(src)
		ck, err := k.Compile()
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		for _, s := range []Source{src, generic} {
			got, gerr := ck.Eval(s)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("seed %d: interp err %v, compiled err %v\ntree: %s", seed, werr, gerr, tree)
			}
			if werr != nil {
				if werr.Error() != gerr.Error() {
					t.Fatalf("seed %d: interp error %q, compiled error %q\ntree: %s", seed, werr, gerr, tree)
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: compiled row output differs from interpreter\ntree: %s", seed, tree)
			}
		}
		if werr != nil {
			faults++
		} else {
			values++
		}
	}
	if values == 0 || faults == 0 {
		t.Fatalf("differential corpus is unbalanced: %d value kernels, %d faulting kernels", values, faults)
	}
}

// TestCompiledErrorCases pins the runtime error parity on the cases the
// interpreter defines: division and modulo by zero and out-of-range table
// indices fail in both backends.
func TestCompiledErrorCases(t *testing.T) {
	cases := []*Expr{
		Bin(OpDiv, 4, Const(7), Const(0)),
		Bin(OpMod, 4, Const(7), Const(0)),
		Bin(OpDiv, 1, Const(7), Const(256)), // divisor masks to zero at width 1
		{Op: OpTable, Table: []byte{1, 2, 3}, Elem: 1, Args: []*Expr{Const(3)}},
		{Op: OpTable, Table: []byte{1, 2, 3, 4}, Elem: 2, Args: []*Expr{Const(-1)}},
	}
	for _, e := range cases {
		if _, err := e.Eval(nil, 0, 0, 0); err == nil {
			t.Fatalf("interp must error on %s", e)
		}
		p, err := CompileExpr(e)
		if err != nil {
			t.Fatalf("CompileExpr(%s): %v", e, err)
		}
		if _, err := p.Run(nil, 0, 0, 0); err == nil {
			t.Fatalf("compiled must error on %s", e)
		}
	}
}

// TestCompileRejects pins the cases compilation refuses up front; the
// interpreter fails on these at evaluation time (it evaluates all operands
// eagerly), so rejecting them early loses nothing.
func TestCompileRejects(t *testing.T) {
	cases := []*Expr{
		{Op: OpCall, Sym: "nope", Args: []*Expr{ConstF(1)}},
		{Op: OpSelect, Args: []*Expr{Const(1), Const(2), ConstF(3)}}, // mixed-domain arms
		{Op: OpAdd, Width: 4}, // no operands
		{Op: OpTable, Table: []byte{1}, Elem: 0, Args: []*Expr{Const(0)}},
	}
	for _, e := range cases {
		if _, err := CompileExpr(e); err == nil {
			t.Fatalf("CompileExpr must reject %s", e)
		}
	}
}

// TestCompileCSEAndPooling checks the two compile-time optimizations: a
// value-identical subtree computes once even without pointer sharing, and
// repeated constants occupy one pooled register.
func TestCompileCSEAndPooling(t *testing.T) {
	// float(in(x, y)) * float(in(x, y)) with structurally distinct children.
	f := func() *Expr {
		return &Expr{Op: OpIntToFP, SrcWidth: 1, Args: []*Expr{Load(0, 0, 0)}}
	}
	sq := &Expr{Op: OpFMul, Args: []*Expr{f(), f()}}
	p, err := CompileExpr(sq)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLoads() != 1 {
		t.Errorf("CSE left %d loads, want 1:\n%s", p.NumLoads(), p.Disasm())
	}
	if p.NumInsts() != 3 { // load, i2f, fmul
		t.Errorf("CSE left %d instructions, want 3:\n%s", p.NumInsts(), p.Disasm())
	}

	cp := Bin(OpAdd, 4, Bin(OpMul, 4, Load(0, 0, 0), Const(9)), Const(9))
	p, err = CompileExpr(cp)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumConsts() != 1 {
		t.Errorf("constant pool holds %d entries, want 1:\n%s", p.NumConsts(), p.Disasm())
	}
}

// TestCompileSharedDAGLinear pins compile-time behavior on heavily shared
// expression DAGs, which the extractor's per-sample memo deliberately
// produces: v1 = v0+v0, v2 = v1+v1, ... doubles the value 40 times but
// must compile in linear time to ~40 instructions (a full textual
// expansion of the sharing would need 2^40 visits).
func TestCompileSharedDAGLinear(t *testing.T) {
	const depth = 40
	v := Const(1)
	cur := &Expr{Op: OpAdd, Width: 0, Args: []*Expr{v, v}}
	for i := 1; i < depth; i++ {
		cur = &Expr{Op: OpAdd, Width: 0, Args: []*Expr{cur, cur}}
	}
	p, err := CompileExpr(cur)
	if err != nil {
		t.Fatalf("CompileExpr: %v", err)
	}
	if p.NumInsts() > depth+1 {
		t.Errorf("shared DAG compiled to %d instructions, want <= %d", p.NumInsts(), depth+1)
	}
	got, err := p.Run(nil, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(1) << depth; got != want {
		t.Errorf("doubling ladder = %d, want %d", got, want)
	}
}

// TestCompiledKernelMatchesInterp renders a whole kernel through both
// compiled bindings, fused and generic, and demands byte equality with the
// interpreter.
func TestCompiledKernelMatchesInterp(t *testing.T) {
	plane := diffPlane()
	// Walk seeds until the generator yields a tree that is total over the
	// whole grid (no data-dependent table/division errors); those error
	// paths are covered by the differential test above.
	var k *Kernel
	var want []byte
	for seed := uint64(7); ; seed++ {
		r := testRNG(seed)
		g := &treeGen{r: &r}
		tree := g.intExpr(4)
		k = &Kernel{Name: "diff", OutWidth: 6, OutHeight: 4, Channels: 1, OriginX: 1, OriginY: 1, Trees: []*Expr{tree}}
		out, err := k.Eval(PlaneSource{P: plane})
		if err == nil {
			want = out
			break
		}
		if seed > 100 {
			t.Fatalf("no total tree found in 100 seeds: %v", err)
		}
	}
	ck, err := k.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	srcs := map[string]Source{
		"fused":   PlaneSource{P: plane},
		"generic": opaqueSource{s: PlaneSource{P: plane}},
	}
	for name, src := range srcs {
		got, err := ck.Eval(src)
		if err != nil {
			t.Fatalf("%s Eval: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s compiled output differs from interpreter", name)
		}
	}
}

// TestCompiledInterleavedFusion checks the fused interleaved binding
// against per-sample interface dispatch.
func TestCompiledInterleavedFusion(t *testing.T) {
	im := image.NewInterleaved(7, 5, 3)
	im.FillPattern(9)
	// Per-channel mix of neighboring samples, taps stay in bounds.
	tree := Bin(OpAdd, 1, Load(1, 0, 0), Bin(OpXor, 1, Load(0, 1, 0), Load(0, 0, 0)))
	k := &Kernel{Name: "ilv", OutWidth: 6, OutHeight: 4, Channels: 3, Trees: []*Expr{tree, tree.Clone(), tree.Clone()}}
	want, err := k.Eval(InterleavedSource{Im: im})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ck.Eval(InterleavedSource{Im: im})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("fused interleaved output differs from interpreter")
	}
}

// TestCompiledLoadOutOfBackingErrors pins the fused path's bounds
// behavior: a tap outside the concrete backing reports an error instead of
// reading out of range.
func TestCompiledLoadOutOfBackingErrors(t *testing.T) {
	p := image.NewPlane(4, 3, 0)
	prog, err := CompileExpr(Load(-1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(PlaneSource{P: p}, 0, 0, 0); err == nil {
		t.Error("fused load outside the backing must error")
	}
}

// TestProgramRootFloat checks the float-root convention matches the
// interpreter: the result is the IEEE-754 bit pattern.
func TestProgramRootFloat(t *testing.T) {
	e := &Expr{Op: OpFMul, Args: []*Expr{ConstF(1.5), ConstF(2)}}
	p, err := CompileExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Run(nil, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f := math.Float64frombits(v); f != 3 {
		t.Errorf("float root = %g, want 3", f)
	}
	if !p.rootFloat {
		t.Error("rootFloat not set for a float tree")
	}
}

func init() {
	// Guard against accidental non-determinism in the generator: two
	// identically seeded generators must produce identical trees.
	r1, r2 := testRNG(5), testRNG(5)
	g1, g2 := &treeGen{r: &r1}, &treeGen{r: &r2}
	a, bb := g1.intExpr(3), g2.intExpr(3)
	if a.Key() != bb.Key() {
		panic(fmt.Sprintf("tree generator is nondeterministic: %s vs %s", a, bb))
	}
}

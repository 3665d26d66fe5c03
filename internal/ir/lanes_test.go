package ir

import (
	"bytes"
	"strings"
	"testing"

	"helium/internal/image"
)

// narrowTreeGen builds random trees whose values provably stay small, so
// the width pass selects 8/16/32-bit lanes — the population the lane
// executor differential needs.  (The broad generator in compile_test.go
// mostly produces unbounded 32-bit arithmetic, which stays on the 64-bit
// reference path.)
type narrowTreeGen struct {
	r *testRNG
}

func (g *narrowTreeGen) byteLeaf() *Expr {
	if g.r.intn(3) == 0 {
		return Const(int64(g.r.intn(256)))
	}
	return &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(g.r.intn(5)-2, g.r.intn(5)-2, 0)}}
}

func (g *narrowTreeGen) expr(depth int) *Expr {
	if depth <= 0 {
		return g.byteLeaf()
	}
	w := 4
	switch g.r.intn(12) {
	case 0: // tap sum, the stencil workhorse
		n := 2 + g.r.intn(6)
		args := make([]*Expr, n)
		for i := range args {
			args[i] = g.byteLeaf()
		}
		return &Expr{Op: OpAdd, Width: w, Args: args}
	case 1:
		return Bin(OpMul, w, g.expr(depth-1), Const(int64(1+g.r.intn(9))))
	case 2:
		return Bin(OpDiv, w, g.expr(depth-1), Const(int64(2+g.r.intn(15))))
	case 3:
		return Bin(OpMod, w, g.expr(depth-1), Const(int64(2+g.r.intn(15))))
	case 4:
		return Bin(OpShr, w, g.expr(depth-1), Const(int64(g.r.intn(5))))
	case 5:
		return Bin(OpMin, w, g.expr(depth-1), Const(int64(g.r.intn(4096))))
	case 6:
		return Bin(OpMax, w, g.expr(depth-1), Const(int64(g.r.intn(256))))
	case 7:
		return Bin(OpAnd, w, g.expr(depth-1), Const(int64(g.r.intn(65536))))
	case 8:
		return Bin(OpXor, 2, g.expr(depth-1), g.expr(depth-1))
	case 9:
		return Bin(OpOr, 2, g.expr(depth-1), g.expr(depth-1))
	case 10: // byte table lookup, always in range
		table := make([]byte, 256)
		for i := range table {
			table[i] = byte(g.r.next())
		}
		idx := &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{g.expr(depth - 1)}}
		return &Expr{Op: OpTable, Table: table, Elem: 1, Args: []*Expr{idx}}
	default:
		return &Expr{Op: OpExtract, Width: 1, SrcWidth: 4, Val: int64(g.r.intn(2)), Args: []*Expr{g.expr(depth - 1)}}
	}
}

// TestLaneRowDifferential drives the width-specialized row executors
// against the interpreter on trees the width pass can narrow: outputs (and
// the parallel tiled driver's outputs) must match byte for byte, and the
// corpus must actually select narrow lanes rather than silently falling
// back to 64-bit rows.
func TestLaneRowDifferential(t *testing.T) {
	plane := diffPlane()
	src := PlaneSource{P: plane}
	generic := opaqueSource{s: src}
	laneCounts := map[int]int{}
	for seed := uint64(0); seed < 250; seed++ {
		r := testRNG(seed * 977)
		g := &narrowTreeGen{r: &r}
		tree := g.expr(3)
		k := &Kernel{Name: "lanediff", OutWidth: 6, OutHeight: 4, Channels: 1,
			OriginX: 1, OriginY: 1, Trees: []*Expr{tree}}
		want, werr := k.Eval(src)
		if werr != nil {
			t.Fatalf("seed %d: narrow tree unexpectedly faults: %v\ntree: %s", seed, werr, tree)
		}
		ck, err := k.Compile()
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		laneCounts[ck.Progs[0].LaneBits()]++
		for _, s := range []Source{src, generic} {
			got, gerr := ck.Eval(s)
			if gerr != nil {
				t.Fatalf("seed %d: compiled eval: %v\ntree: %s\n%s", seed, gerr, tree, ck.Progs[0].Disasm())
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: lane output differs from interpreter (lanes=%d)\ntree: %s\n%s",
					seed, ck.Progs[0].LaneBits(), tree, ck.Progs[0].Disasm())
			}
			got, gerr = ck.EvalParallel(s, 3)
			if gerr != nil || !bytes.Equal(got, want) {
				t.Fatalf("seed %d: parallel lane output differs (err %v)", seed, gerr)
			}
		}
	}
	if laneCounts[8]+laneCounts[16]+laneCounts[32] < 150 {
		t.Fatalf("width pass narrowed too few programs: %v", laneCounts)
	}
	if laneCounts[8] == 0 || laneCounts[16] == 0 {
		t.Fatalf("lane corpus must cover 8- and 16-bit paths: %v", laneCounts)
	}
	t.Logf("lane widths over corpus: %v", laneCounts)
}

// coordSource is a cheap unbounded synthetic source for wide-image tests.
type coordSource struct{}

func (coordSource) Sample(x, y, c int) uint8 { return uint8(x*31 ^ y*17 ^ c*5) }

// wideKernel builds a kernel big enough that the blocked driver genuinely
// splits it into multiple tiles in both dimensions.
func wideKernel(tree *Expr) *Kernel {
	return &Kernel{Name: "wide", OutWidth: 1500, OutHeight: 900, Channels: 1,
		OriginX: 1, OriginY: 1, Trees: []*Expr{tree}}
}

// TestTiledEvalMatchesSerial checks the cache-blocked parallel driver
// against the serial full-row executor on an image large enough for a real
// tile grid, across worker counts.
func TestTiledEvalMatchesSerial(t *testing.T) {
	// Enough distinct subexpressions that the row register file forces
	// tiling in x.
	taps := make([]*Expr, 0, 12)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			taps = append(taps, &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(dx, dy, 0)}})
		}
	}
	taps = append(taps, Const(4))
	tree := Bin(OpMin, 4,
		Bin(OpDiv, 4, &Expr{Op: OpAdd, Width: 4, Args: taps}, Const(9)),
		Const(255))
	k := wideKernel(tree)
	ck, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tw, th := ck.tileSize()
	if tw >= k.OutWidth || th >= k.OutHeight {
		t.Fatalf("tile geometry %dx%d does not block a %dx%d image", tw, th, k.OutWidth, k.OutHeight)
	}
	src := coordSource{}
	want, err := ck.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := ck.EvalParallel(src, workers)
		if err != nil {
			t.Fatalf("EvalParallel(%d): %v", workers, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tiled output differs from serial at %d workers (tiles %dx%d)", workers, tw, th)
		}
	}
}

// TestTiledErrorDeterministic pins the blocked driver's error semantics: a
// data-dependent fault must be reported at exactly the coordinate and with
// exactly the message the serial per-sample scan produces, for every
// worker count, even when the faulting sample sits in a late tile while an
// earlier-index tile also faults.
func TestTiledErrorDeterministic(t *testing.T) {
	// table has 128 entries, the index is the input byte: every sample
	// whose input is >= 128 faults, which happens all over the grid.
	table := make([]byte, 128)
	for i := range table {
		table[i] = byte(i * 3)
	}
	idx := &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(0, 0, 0)}}
	tree := &Expr{Op: OpTable, Table: table, Elem: 1, Args: []*Expr{idx}}
	k := wideKernel(tree)
	ck, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	src := coordSource{}
	_, serr := ck.Eval(src)
	if serr == nil {
		t.Fatal("fault kernel must error serially")
	}
	for _, workers := range []int{1, 2, 5, 16} {
		_, perr := ck.EvalParallel(src, workers)
		if perr == nil {
			t.Fatalf("EvalParallel(%d): fault kernel must error", workers)
		}
		if perr.Error() != serr.Error() {
			t.Fatalf("EvalParallel(%d) error %q differs from serial %q", workers, perr, serr)
		}
	}
}

// TestWorkersCappedByWork pins the worker-count cap: workers never exceed
// the number of independent tiles, so a 3-row image never spins up 16
// goroutines' worth of executors — a small image collapses to one worker
// — while a wide short image still gets one worker per column tile.
func TestWorkersCappedByWork(t *testing.T) {
	k := &Kernel{Name: "short", OutWidth: 64, OutHeight: 3, Channels: 1,
		Trees: []*Expr{Load(0, 0, 0)}}
	ck, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, requested := range []int{16, 3, 2, 1, 0} {
		got := ck.Workers(requested)
		if got < 1 || got > 3 {
			t.Errorf("Workers(%d) on a 64x3 kernel = %d, want within [1, 3]", requested, got)
		}
	}
	// A wide short image with a fat register file tiles in x, so useful
	// parallelism can exceed the row count.
	args := make([]*Expr, 0, 40)
	for i := 0; i < 40; i++ {
		args = append(args, Bin(OpMul, 4,
			&Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(i%5-2, i/5%5-2, 0)}},
			&Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(i/25-2, i%25/5-2, 0)}}))
	}
	wide := &Kernel{Name: "wideshort", OutWidth: 1500, OutHeight: 3, Channels: 1,
		OriginX: 2, OriginY: 2, Trees: []*Expr{{Op: OpAdd, Width: 4, Args: args}}}
	wck, err := wide.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tw, th := wck.tileSize()
	tiles := ((wide.OutWidth + tw - 1) / tw) * ((wide.OutHeight + th - 1) / th)
	if tiles <= 3 {
		t.Fatalf("wide-short kernel only blocks into %d tiles; the test needs x-tiling", tiles)
	}
	if got := wck.Workers(64); got != tiles {
		t.Errorf("Workers(64) on a %d-tile kernel = %d, want %d", tiles, got, tiles)
	}
	// The cap must hold end to end, not just in the accessor.
	for _, kk := range []*CompiledKernel{ck, wck} {
		out, err := kk.EvalParallel(coordSource{}, 16)
		if err != nil {
			t.Fatal(err)
		}
		want, err := kk.Eval(coordSource{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("%s: capped parallel output differs from serial", kk.Name)
		}
	}
}

// TestFoldedConstantsDoNotWidenLanes pins two compiler interactions the
// width pass depends on: pool constants left behind by constant folding
// (float bit patterns especially) must not inflate the inferred lane
// width, and constant-folded sum operands must merge into the sumtaps
// bias rather than surviving as per-sample register adds.
func TestFoldedConstantsDoNotWidenLanes(t *testing.T) {
	load := func() *Expr {
		return &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(0, 0, 0)}}
	}
	// FPToInt(2.5 + 0.5) folds to the integer 3, leaving float constants
	// in the pool that nothing references.
	folded := &Expr{Op: OpFPToInt, Width: 4, Args: []*Expr{
		{Op: OpFAdd, Args: []*Expr{ConstF(2.5), ConstF(0.5)}}}}
	tree := Bin(OpAdd, 4, load(), folded)
	p, err := CompileExpr(tree)
	if err != nil {
		t.Fatal(err)
	}
	if p.LaneBits() > 16 {
		t.Errorf("folded float constants widened lanes to %d, want <= 16:\n%s", p.LaneBits(), p.Disasm())
	}
	merged := false
	for i := range p.insts {
		if in := &p.insts[i]; in.op == opSumTaps {
			if in.val != 3 || len(in.args) != 1 {
				t.Errorf("folded constant not merged into the sum bias (bias %d, %d register args):\n%s",
					in.val, len(in.args), p.Disasm())
			}
			merged = true
		}
	}
	if !merged {
		t.Fatalf("expected a sumtaps instruction:\n%s", p.Disasm())
	}

	// A float subtree consumed as an integer reads as zero: its (pure)
	// float instructions go dead and must neither widen lanes nor
	// derail row execution; its loads keep their fault checks.
	deadFloat := Bin(OpAdd, 4, load(),
		&Expr{Op: OpIntToFP, SrcWidth: 1, Args: []*Expr{Load(1, 1, 0)}})
	p2, err := CompileExpr(deadFloat)
	if err != nil {
		t.Fatal(err)
	}
	if p2.LaneBits() > 16 {
		t.Errorf("dead float instructions widened lanes to %d, want <= 16:\n%s", p2.LaneBits(), p2.Disasm())
	}
	for _, tree := range []*Expr{tree, deadFloat} {
		k := &Kernel{Name: "fold", OutWidth: 6, OutHeight: 4, Channels: 1,
			OriginX: 1, OriginY: 1, Trees: []*Expr{tree}}
		src := PlaneSource{P: diffPlane()}
		want, err := k.Eval(src)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := k.Compile()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ck.Eval(src)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("narrowed execution differs from interpreter\ntree: %s", tree)
		}
	}
}

// checkCompiledMatchesInterp holds the compiled kernel to the interpreter
// on src through the serial executor and the tiled driver at 3 workers:
// identical bytes, or the identical error (failing coordinate and message
// alike).  It reports whether the interpreter faulted.
func checkCompiledMatchesInterp(t *testing.T, k *Kernel, src Source) bool {
	t.Helper()
	want, werr := k.Eval(src)
	ck, err := k.Compile()
	if err != nil {
		t.Fatalf("%s: Compile: %v", k.Name, err)
	}
	for _, path := range []struct {
		name string
		eval func() ([]byte, error)
	}{
		{"Eval", func() ([]byte, error) { return ck.Eval(src) }},
		{"EvalParallel", func() ([]byte, error) { return ck.EvalParallel(src, 3) }},
	} {
		got, gerr := path.eval()
		switch {
		case werr != nil:
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Errorf("%s: compiled %s error %v, want %q", k.Name, path.name, gerr, werr)
			}
		case gerr != nil:
			t.Errorf("%s: compiled %s: %v", k.Name, path.name, gerr)
		case !bytes.Equal(got, want):
			t.Errorf("%s: compiled %s output differs from the interpreter", k.Name, path.name)
		}
	}
	return werr != nil
}

// TestCompiledIndexMapDifferential is the compiled executor's affine-map
// differential: strided, fractional and column-broadcast x-maps (each
// residue class of a fractional map executes as one constant-stride row,
// a broadcast as a stride-0 row) must match the
// interpreter in values, fault positions and fault messages, serially and
// through the tiled driver.
func TestCompiledIndexMapDifferential(t *testing.T) {
	plane, kernels, minFaults := indexMapEdgeKernels()
	faults := 0
	for _, k := range kernels {
		for _, src := range []Source{PlaneSource{P: plane}, opaqueSource{s: PlaneSource{P: plane}}} {
			if checkCompiledMatchesInterp(t, k, src) {
				faults++
			}
		}
	}
	if faults < 2*minFaults {
		t.Fatalf("only %d faulting runs; the index-map fault coverage collapsed", faults)
	}

	// Interleaved, 3 channels under in(x/2, y), each channel indexing its
	// own 200-entry table.  Row 1 faults in channels 1 and 2 at x = 10
	// and in channel 0 at x = 12: the scan's first failure is (10, 1, 1),
	// which pins the x-then-c tie-break across channels.
	im := image.NewInterleaved(7, 3, 3)
	r := testRNG(5)
	for y := 0; y < 3; y++ {
		for x := 0; x < 7; x++ {
			for c := 0; c < 3; c++ {
				im.Set(x, y, c, byte(r.intn(200)))
			}
		}
	}
	im.Set(5, 1, 1, 255)
	im.Set(5, 1, 2, 250)
	im.Set(6, 1, 0, 255)
	il := &Kernel{Name: "il3", OutWidth: 13, OutHeight: 3, Channels: 3,
		MapX: AxisMap{Num: 1, Den: 2}}
	for c := 0; c < 3; c++ {
		tab := make([]byte, 200)
		for i := range tab {
			tab[i] = byte(i*7 + c)
		}
		il.Trees = append(il.Trees, &Expr{Op: OpTable, Table: tab, Elem: 1, Args: []*Expr{Load(0, 0, 0)}})
	}
	isrc := InterleavedSource{Im: im}
	if _, err := il.Eval(isrc); err == nil || !strings.Contains(err.Error(), "at (10,1,1)") {
		t.Fatalf("interleaved fault kernel: interpreter error %v, want one at (10,1,1)", err)
	}
	checkCompiledMatchesInterp(t, il, isrc)
	il.Trees = il.Trees[:0]
	for c := 0; c < 3; c++ {
		il.Trees = append(il.Trees, Bin(OpAdd, 1, Load(0, 0, 0), Const(int64(c))))
	}
	if checkCompiledMatchesInterp(t, il, isrc) {
		t.Fatal("interleaved value kernel faulted")
	}

	// A 64-bit float tree under in(x/2, y) on the wide geometry: the tiled
	// driver's tile width is odd, so every other column tile starts in the
	// middle of a residue class.  The table variant faults data-dependently.
	zx := func(e *Expr) *Expr { return &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{e}} }
	fl := func(e *Expr) *Expr { return &Expr{Op: OpIntToFP, SrcWidth: 4, Args: []*Expr{zx(e)}} }
	blend := &Expr{Op: OpFPToInt, Width: 4, Args: []*Expr{
		{Op: OpFAdd, Args: []*Expr{
			{Op: OpFMul, Args: []*Expr{fl(Load(0, 0, 0)), ConstF(0.75)}},
			{Op: OpFMul, Args: []*Expr{fl(Load(1, 1, 0)), ConstF(0.25)}}}}}}
	tab := make([]byte, 250)
	for i := range tab {
		tab[i] = byte(i ^ 0x5a)
	}
	for _, tree := range []*Expr{blend, {Op: OpTable, Table: tab, Elem: 1, Args: []*Expr{blend}}} {
		k := wideKernel(tree)
		k.MapX = AxisMap{Num: 1, Den: 2}
		ck, err := k.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if lanes := ck.Progs[0].LaneBits(); lanes != 64 {
			t.Fatalf("float tree runs at %d-bit lanes, want 64", lanes)
		}
		if tw, _ := ck.tileSize(); tw >= k.OutWidth || tw%2 == 0 {
			t.Fatalf("tile width %d does not split the %d columns at an odd offset", tw, k.OutWidth)
		}
		checkCompiledMatchesInterp(t, k, coordSource{})
	}
}

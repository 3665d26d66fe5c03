package ir

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"helium/internal/image"
)

// TestGenerateDeterministic pins byte-identical output across runs — the
// gen-and-diff CI job depends on it.
func TestGenerateDeterministic(t *testing.T) {
	r := testRNG(3)
	g := &treeGen{r: &r}
	var ks []*Kernel
	for i := 0; i < 5; i++ {
		ks = append(ks, &Kernel{Name: fmt.Sprintf("det%d", i), OutWidth: 6, OutHeight: 4,
			Channels: 1, OriginX: 1, OriginY: 1, Trees: []*Expr{g.intExpr(4)}})
	}
	a, err := Generate("liftedkernels", ks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("liftedkernels", ks)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Generate is nondeterministic")
	}
}

// TestGenerateRejectsDuplicateNames pins the one structural error Generate
// owns.
func TestGenerateRejectsDuplicateNames(t *testing.T) {
	k := &Kernel{Name: "dup", OutWidth: 1, OutHeight: 1, Channels: 1, Trees: []*Expr{Load(0, 0, 0)}}
	if _, err := Generate("p", []*Kernel{k, k}); err == nil {
		t.Fatal("Generate must reject duplicate kernel names")
	}
}

// genHarness materializes a module holding the generated package plus a
// main that evaluates every kernel against the embedded differential plane
// and prints one tab-separated line per kernel: name, OK/ERR, hex output
// or error text.  Alongside the reference Eval, every kernel re-runs
// under non-default schedules (cache tiles; sliding-window fusion for
// multi-stage kernels) and the harness itself asserts the result — values
// or error text — is identical.
func genHarness(t *testing.T, dir, kernelsSrc string, plane *image.Plane) {
	t.Helper()
	genHarnessWith(t, dir, kernelsSrc, map[string]*image.Plane{"": plane}, `
	{Stages: []lk.StageSched{{TileW: 3, TileH: 2}}},
	{Fusion: "slidingWindow", WindowRows: 2},
	{Fusion: "slidingWindow"},
`)
}

// genHarnessWith is genHarness with per-kernel input planes — planes[""]
// is the shared plane, any other key gives the kernel of that name its
// own — and scheds, the Go body of the []lk.ScheduleSpec literal every
// kernel re-runs under.  The module pairs the generated kernels with the
// checked-in liftedkernels runtime, the one the serving backend runs.
func genHarnessWith(t *testing.T, dir, kernelsSrc string, planes map[string]*image.Plane, scheds string) {
	t.Helper()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	runtimeSrc, err := os.ReadFile(filepath.Join("..", "liftedkernels", "runtime.go"))
	if err != nil {
		t.Fatal(err)
	}
	write("go.mod", "module gentest\n\ngo 1.24\n")
	write("lk/runtime.go", string(runtimeSrc))
	write("lk/kernels.go", kernelsSrc)

	var b strings.Builder
	b.WriteString("package main\n\nimport (\n\t\"bytes\"\n\t\"fmt\"\n\t\"encoding/hex\"\n\n\tlk \"gentest/lk\"\n)\n\n")
	names := make([]string, 0, len(planes))
	for name := range planes {
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("var planes = map[string]*lk.Image{\n")
	for _, name := range names {
		pix, base, stride := planes[name].Flat()
		fmt.Fprintf(&b, "\t%q: {Pix: []byte(%q), Base: %d, Stride: %d, PixStep: 1},\n", name, pix, base, stride)
	}
	b.WriteString("}\n\n")
	fmt.Fprintf(&b, "var scheds = []lk.ScheduleSpec{%s}\n", scheds)
	b.WriteString(`
func main() {
	for _, k := range lk.Kernels() {
		img, ok := planes[k.Name]
		if !ok {
			img = planes[""]
		}
		out, err := k.Eval(img, k.DefaultWidth, k.DefaultHeight)
		if err != nil {
			fmt.Printf("%s\tERR\t%s\n", k.Name, err)
		} else {
			fmt.Printf("%s\tOK\t%s\n", k.Name, hex.EncodeToString(out))
		}
		for si, spec := range scheds {
			if spec.Fusion == "slidingWindow" && len(k.Stages) < 2 {
				continue
			}
			got, gerr := k.EvalSched(img, k.DefaultWidth, k.DefaultHeight, spec)
			status, detail := "OK", ""
			switch {
			case err != nil && (gerr == nil || gerr.Error() != err.Error()):
				status, detail = "BAD", fmt.Sprintf("error %v, want %v", gerr, err)
			case err == nil && gerr != nil:
				status, detail = "BAD", fmt.Sprintf("unexpected error %v", gerr)
			case err == nil && !bytes.Equal(got, out):
				status, detail = "BAD", "output differs from Eval"
			}
			fmt.Printf("%s@sched%d\t%s\t%s\n", k.Name, si, status, detail)
		}
	}
}
`)
	write("main.go", b.String())
}

// checkSchedLines asserts every schedule re-run the harness performed
// agreed with the reference Eval.
func checkSchedLines(t *testing.T, results map[string][2]string) {
	t.Helper()
	n := 0
	for name, got := range results {
		if !strings.Contains(name, "@sched") {
			continue
		}
		n++
		if got[0] != "OK" {
			t.Errorf("%s: scheduled execution diverged: %s", name, got[1])
		}
	}
	if n == 0 {
		t.Error("harness ran no scheduled executions")
	}
}

// needToolchain skips a test that compiles generated code when the go
// toolchain is unavailable or the run is -short.
func needToolchain(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("compiles generated code with the go toolchain")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
}

// runHarness compiles and runs the generated module with the real Go
// toolchain and parses its per-kernel results.
func runHarness(t *testing.T, dir string) map[string][2]string {
	t.Helper()
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-mod=mod")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run generated harness: %v\nstderr:\n%s", err, stderr.String())
	}
	results := map[string][2]string{}
	for _, line := range strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n") {
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 {
			t.Fatalf("malformed harness line %q", line)
		}
		results[parts[0]] = [2]string{parts[1], parts[2]}
	}
	return results
}

// TestGeneratedCodeDifferential is the acceptance test of the source
// backend: it generates Go for a mixed corpus of random kernels (the broad
// generator, the narrow lane-friendly generator, and the canonical boxblur
// stencil), compiles the result with the real toolchain, runs it, and
// demands bit-exact agreement — values, error positions and error
// messages — with both the interpreter and the register executor.
func TestGeneratedCodeDifferential(t *testing.T) {
	needToolchain(t)

	const outW, outH = 6, 4
	plane := diffPlane()
	src := PlaneSource{P: plane}

	var kernels []*Kernel
	addTree := func(name string, tree *Expr) {
		kernels = append(kernels, &Kernel{Name: name, OutWidth: outW, OutHeight: outH,
			Channels: 1, OriginX: 1, OriginY: 1, Trees: []*Expr{tree}})
	}
	// The canonical boxblur stencil, the corpus shape codegen must win on.
	taps := make([]*Expr, 0, 10)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			taps = append(taps, &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(dx, dy, 0)}})
		}
	}
	taps = append(taps, Const(4))
	addTree("boxref", Bin(OpDiv, 4, &Expr{Op: OpAdd, Width: 4, Args: taps}, Const(9)))

	// Comparison and select shapes from predicated lifting: every compare
	// operator over a signed-capable difference (32-bit lanes) and over
	// raw byte taps (8-bit lanes), plus selects that stay selects.
	ld := func(dx, dy int) *Expr {
		return &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(dx, dy, 0)}}
	}
	cmpOps := []Op{OpCmpEq, OpCmpNe, OpCmpLtS, OpCmpLeS, OpCmpLtU, OpCmpLeU}
	for i, op := range cmpOps {
		diff := Bin(OpSub, 4, ld(0, 0), ld(1, 0)) // wraps negative: signed vs unsigned matters
		addTree(fmt.Sprintf("cmpw%d", i), Bin(op, 4, diff, Const(3)))
		addTree(fmt.Sprintf("cmpb%d", i), Bin(op, 1, Load(0, 0, 0), Load(0, 1, 0)))
	}
	addTree("selneg", &Expr{Op: OpSelect, Args: []*Expr{
		Bin(OpCmpLtS, 4, Bin(OpSub, 4, ld(0, 0), ld(1, 0)), Const(0)), Const(7), ld(0, 1)}})
	addTree("selparity", &Expr{Op: OpSelect, Args: []*Expr{
		Bin(OpCmpEq, 4, Bin(OpAnd, 4, ld(0, 0), Const(1)), Const(0)), ld(1, 1), ld(-1, -1)}})

	// Multi-channel kernels: chansame's three identical channel programs
	// must collapse into one shared row function; chandiff's distinct
	// programs must keep per-channel functions; chanfault exercises the
	// x-then-c error merge through the shared body.
	sameTree := Bin(OpAdd, 4, ld(0, 0), ld(1, 1))
	kernels = append(kernels, &Kernel{Name: "chansame", OutWidth: outW, OutHeight: outH,
		Channels: 3, OriginX: 1, OriginY: 1,
		Trees: []*Expr{sameTree, sameTree.Clone(), sameTree.Clone()}})
	kernels = append(kernels, &Kernel{Name: "chandiff", OutWidth: outW, OutHeight: outH,
		Channels: 3, OriginX: 1, OriginY: 1,
		Trees: []*Expr{
			Bin(OpAdd, 4, ld(0, 0), Const(1)),
			Bin(OpAdd, 4, ld(0, 0), Const(2)),
			Bin(OpAdd, 4, ld(0, 0), Const(3)),
		}})
	shortTab := make([]byte, 100)
	for i := range shortTab {
		shortTab[i] = byte(i)
	}
	faultTree := &Expr{Op: OpTable, Table: shortTab, Elem: 1, Args: []*Expr{Load(0, 0, 0)}}
	kernels = append(kernels, &Kernel{Name: "chanfault", OutWidth: outW, OutHeight: outH,
		Channels: 3, OriginX: 1, OriginY: 1,
		Trees: []*Expr{faultTree, faultTree.Clone(), faultTree.Clone()}})
	// chantabs: channel programs structurally identical except for their
	// lookup tables — these must NOT collapse into a shared body (each
	// channel applies its own LUT).
	lut := func(mul int) *Expr {
		tab := make([]byte, 256)
		for i := range tab {
			tab[i] = byte(i * mul)
		}
		return &Expr{Op: OpTable, Table: tab, Elem: 1, Args: []*Expr{Load(0, 0, 0)}}
	}
	kernels = append(kernels, &Kernel{Name: "chantabs", OutWidth: outW, OutHeight: outH,
		Channels: 3, OriginX: 1, OriginY: 1,
		Trees: []*Expr{lut(1), lut(3), lut(7)}})

	for i := 0; i < 80; i++ {
		r := testRNG(uint64(i)*131 + 7)
		g := &treeGen{r: &r}
		if i%4 == 3 {
			addTree(fmt.Sprintf("gf%03d", i), g.floatExpr(4))
		} else {
			addTree(fmt.Sprintf("gi%03d", i), g.intExpr(4))
		}
	}
	for i := 0; i < 40; i++ {
		r := testRNG(uint64(i)*977 + 5)
		g := &narrowTreeGen{r: &r}
		addTree(fmt.Sprintf("gn%03d", i), g.expr(3))
	}
	if len(kernels) < 100 {
		t.Fatalf("differential corpus has %d kernels, want >= 100", len(kernels))
	}

	srcCode, err := Generate("liftedkernels", kernels)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !strings.Contains(srcCode, "rowChansameAll") || strings.Contains(srcCode, "rowChansameC0") {
		t.Error("chansame's identical channel programs did not collapse into a shared row function")
	}
	if !strings.Contains(srcCode, "rowChandiffC2") {
		t.Error("chandiff's distinct channel programs lost their per-channel functions")
	}
	if !strings.Contains(srcCode, "rowChantabsC2") || strings.Contains(srcCode, "rowChantabsAll") {
		t.Error("chantabs' distinct per-channel tables wrongly collapsed into a shared row function")
	}
	dir := t.TempDir()
	genHarness(t, dir, srcCode, plane)
	results := runHarness(t, dir)
	checkSchedLines(t, results)

	values, faults := 0, 0
	for _, k := range kernels {
		got, ok := results[k.Name]
		if !ok {
			t.Fatalf("kernel %s missing from harness output", k.Name)
		}
		want, werr := k.Eval(src)
		ck, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: Compile: %v", k.Name, err)
		}
		cgot, cerr := ck.Eval(src)
		if werr != nil {
			faults++
			if cerr == nil || cerr.Error() != werr.Error() {
				t.Fatalf("%s: register backend error %v, interpreter %v", k.Name, cerr, werr)
			}
			if got[0] != "ERR" {
				t.Errorf("%s: generated code returned a value, interpreter errors with %v", k.Name, werr)
				continue
			}
			if got[1] != werr.Error() {
				t.Errorf("%s: generated error %q, want %q", k.Name, got[1], werr)
			}
			continue
		}
		values++
		if cerr != nil || !bytes.Equal(cgot, want) {
			t.Fatalf("%s: register backend disagrees with interpreter", k.Name)
		}
		if got[0] != "OK" {
			t.Errorf("%s: generated code errored %q, interpreter succeeds", k.Name, got[1])
			continue
		}
		if got[1] != hex.EncodeToString(want) {
			t.Errorf("%s: generated output %s, want %s\ntree: %s", k.Name, got[1], hex.EncodeToString(want), k.Trees[0])
		}
	}
	if values < 40 || faults < 5 {
		t.Fatalf("differential corpus is unbalanced: %d value kernels, %d faulting kernels", values, faults)
	}
	t.Logf("generated-code differential: %d kernels (%d values, %d faults) bit-exact", len(kernels), values, faults)
}

// evalStagedRef chains the interpreter over a stage list the way the
// generated runtime's materializing driver does: full planes between
// stages, exact extents.
func evalStagedRef(stages []*Kernel, src Source) ([]byte, error) {
	var out []byte
	var err error
	for i, k := range stages {
		out, err = k.Eval(src)
		if err != nil {
			return nil, err
		}
		if i+1 < len(stages) {
			p := image.NewPlane(k.OutWidth, k.OutHeight, 0)
			p.SetInterior(out)
			src = PlaneSource{P: p}
		}
	}
	return out, nil
}

// TestGeneratedStagedAndReduction compiles multi-stage units — including
// a pipeline that chains a reduction after a stencil stage — with the
// real toolchain and checks values against the interpreter chain, plus
// (via the harness's schedule re-runs) that cache tiles and
// sliding-window fusion reproduce Eval exactly, faults included.
func TestGeneratedStagedAndReduction(t *testing.T) {
	needToolchain(t)

	const outW, outH = 7, 6
	plane := diffPlane()
	src := PlaneSource{P: plane}
	zx := func(e *Expr) *Expr { return &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{e}} }

	// pipe2: horizontal then vertical pass (the blur2p shape).
	h0 := &Kernel{Name: "pipe2#0", OutWidth: outW, OutHeight: outH + 2, Channels: 1, OriginX: 1, OriginY: 0,
		Trees: []*Expr{Bin(OpDiv, 4, &Expr{Op: OpAdd, Width: 4,
			Args: []*Expr{zx(Load(-1, 0, 0)), zx(Load(0, 0, 0)), zx(Load(1, 0, 0))}}, Const(3))}}
	v1 := &Kernel{Name: "pipe2#1", OutWidth: outW, OutHeight: outH, Channels: 1, OriginX: 0, OriginY: 1,
		Trees: []*Expr{Bin(OpDiv, 4, &Expr{Op: OpAdd, Width: 4,
			Args: []*Expr{zx(Load(0, -1, 0)), zx(Load(0, 0, 0)), zx(Load(0, 1, 0))}}, Const(3))}}

	// pipefault: the second stage divides by the difference between an
	// intermediate sample and a value the intermediate provably takes at
	// (5, 4), so the chain faults there deterministically.
	f0 := &Kernel{Name: "pipefault#0", OutWidth: outW + 1, OutHeight: outH + 1, Channels: 1, OriginX: 0, OriginY: 0,
		Trees: []*Expr{Bin(OpShr, 4, zx(Load(0, 0, 0)), Const(3))}}
	collide := int64(plane.At(5, 4) >> 3)
	f1 := &Kernel{Name: "pipefault#1", OutWidth: outW, OutHeight: outH, Channels: 1, OriginX: 0, OriginY: 0,
		Trees: []*Expr{Bin(OpDiv, 4, Const(77),
			Bin(OpSub, 4, zx(Load(1, 1, 0)), Const(collide)))}}

	// redchain: a stencil stage feeding a histogram reduction.
	r0 := &Kernel{Name: "redchain#0", OutWidth: outW, OutHeight: outH, Channels: 1, OriginX: 1, OriginY: 1,
		Trees: []*Expr{Bin(OpAnd, 4, Bin(OpAdd, 4, zx(Load(0, 0, 0)), zx(Load(1, 1, 0))), Const(0xff))}}
	red := &Reduction{Name: "redchain", DomW: outW, DomH: outH, Bins: 256, Elem: 4,
		Init: make([]uint64, 256), Index: Load(0, 0, 0), Delta: 1}

	units := []GenKernel{
		{Name: "pipe2", Stages: []*Kernel{h0, v1}},
		{Name: "pipefault", Stages: []*Kernel{f0, f1}},
		{Name: "redchain", Stages: []*Kernel{r0}, Red: red},
	}
	srcCode, err := GenerateUnits("liftedkernels", units)
	if err != nil {
		t.Fatalf("GenerateUnits: %v", err)
	}
	dir := t.TempDir()
	genHarness(t, dir, srcCode, plane)
	results := runHarness(t, dir)
	checkSchedLines(t, results)

	// pipe2: values must match the interpreter chain.
	want, err := evalStagedRef([]*Kernel{h0, v1}, src)
	if err != nil {
		t.Fatalf("pipe2 reference: %v", err)
	}
	if got := results["pipe2"]; got[0] != "OK" || got[1] != hex.EncodeToString(want) {
		t.Errorf("pipe2: harness %v, want OK %s", got, hex.EncodeToString(want))
	}

	// pipefault: the interpreter chain faults; the harness must too (the
	// schedule re-runs above already proved fused == materialize).
	if _, err := evalStagedRef([]*Kernel{f0, f1}, src); err == nil {
		t.Fatal("pipefault reference did not fault")
	}
	if got := results["pipefault"]; got[0] != "ERR" {
		t.Errorf("pipefault: harness returned %v, want ERR", got)
	}

	// redchain: histogram of the stage output.
	stageOut, err := r0.Eval(src)
	if err != nil {
		t.Fatalf("redchain stage reference: %v", err)
	}
	bins := make([]uint32, 256)
	for _, v := range stageOut {
		bins[v]++
	}
	ref := make([]byte, 0, 1024)
	for _, v := range bins {
		ref = append(ref, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	if got := results["redchain"]; got[0] != "OK" || got[1] != hex.EncodeToString(ref) {
		t.Errorf("redchain: harness %v, want OK %s", got, hex.EncodeToString(ref))
	}
}

// TestGeneratedBatchTailWidths pins the head-cutting batch/tail split at
// its edge widths: below one batch (1, 7), exactly one batch (8), one
// batch plus a tail (9, 15), and two batches plus a tail (17).  Each
// width gets a value kernel (the boxblur shape) and two table-fault
// kernels — a dense one that faults on nearly every byte and a sparse
// one whose first out-of-range byte lands at a width-dependent scan
// position — and the generated code must agree with the interpreter
// bit-exactly: values, fault positions and fault messages.  A batch/tail
// boundary bug (a lane indexing past its block, a tail starting at the
// wrong sample, a fault reporting the lane constant instead of the
// running x) shows up here as a wrong value or a wrong reported
// coordinate.
func TestGeneratedBatchTailWidths(t *testing.T) {
	needToolchain(t)

	widths := []int{1, 7, 8, 9, 15, 17}
	const outH = 4
	// A plane wide enough for the largest width plus the stencil margin;
	// deterministic fill, margin included, like diffPlane.
	plane := image.NewPlane(20, outH+2, 2)
	r := testRNG(97)
	for y := -2; y < outH+4; y++ {
		for x := -2; x < 22; x++ {
			plane.Set(x, y, byte(r.next()))
		}
	}
	src := PlaneSource{P: plane}

	zx := func(e *Expr) *Expr { return &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{e}} }
	boxTree := func() *Expr {
		taps := make([]*Expr, 0, 10)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				taps = append(taps, zx(Load(dx, dy, 0)))
			}
		}
		taps = append(taps, Const(4))
		return Bin(OpDiv, 4, &Expr{Op: OpAdd, Width: 4, Args: taps}, Const(9))
	}
	faultTree := func(tabLen int) *Expr {
		tab := make([]byte, tabLen)
		for i := range tab {
			tab[i] = byte(i * 3)
		}
		return &Expr{Op: OpTable, Table: tab, Elem: 1, Args: []*Expr{Load(0, 0, 0)}}
	}

	var kernels []*Kernel
	for _, w := range widths {
		kernels = append(kernels,
			&Kernel{Name: fmt.Sprintf("btv%d", w), OutWidth: w, OutHeight: outH,
				Channels: 1, OriginX: 1, OriginY: 1, Trees: []*Expr{boxTree()}},
			// Dense faults (8-entry table): the very first sample of every
			// width is almost surely out of range, pinning the batch loop's
			// first lane.
			&Kernel{Name: fmt.Sprintf("btd%d", w), OutWidth: w, OutHeight: outH,
				Channels: 1, OriginX: 1, OriginY: 1, Trees: []*Expr{faultTree(8)}},
			// Sparse faults (200-entry table, ~22%% of bytes out of range):
			// the first fault lands mid-row at a width-dependent position,
			// often inside a tail or a later lane block.
			&Kernel{Name: fmt.Sprintf("bts%d", w), OutWidth: w, OutHeight: outH,
				Channels: 1, OriginX: 1, OriginY: 1, Trees: []*Expr{faultTree(200)}},
		)
	}

	srcCode, err := Generate("liftedkernels", kernels)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	genHarness(t, dir, srcCode, plane)
	results := runHarness(t, dir)
	checkSchedLines(t, results)

	faults := 0
	for _, k := range kernels {
		got, ok := results[k.Name]
		if !ok {
			t.Fatalf("kernel %s missing from harness output", k.Name)
		}
		want, werr := k.Eval(src)
		if werr != nil {
			faults++
			if got[0] != "ERR" || got[1] != werr.Error() {
				t.Errorf("%s: generated %s %q, want ERR %q", k.Name, got[0], got[1], werr)
			}
			continue
		}
		if got[0] != "OK" || got[1] != hex.EncodeToString(want) {
			t.Errorf("%s: generated %s %q, want OK %s", k.Name, got[0], got[1], hex.EncodeToString(want))
		}
	}
	// The dense-fault kernels guarantee one fault per width; losing them
	// all means the corpus stopped testing fault order at the edges.
	if faults < len(widths) {
		t.Fatalf("only %d faulting kernels across %d widths; the edge-width fault coverage collapsed", faults, len(widths))
	}
}

// indexMapEdgeKernels is the affine-map kernel table at the batch/tail
// edge geometries outW ∈ {1, 7, 8, 9, 15, 17}: resize-style kernels with
// strided index maps in(s*x+1, y) for s ∈ {2, 3}, upsample-style
// floor-divided maps in(x/2, y), the fractional maps in((2*x+1)/3, y)
// and in((x+2)/3, y), whose residue classes read at stride 2 and 1, and
// the column broadcast in(5, y), a stride-0 row.  Each map gets a value kernel (a two-tap average at the
// mapped center) and a dense-fault kernel (8-entry table: the first
// sample faults, pinning the first lane and the first residue class); the
// strided and the /3 maps also get a sparse-fault kernel (200-entry table,
// ~22% of bytes out of range), whose first fault lands at a width- and
// map-dependent scan position, often inside a tail, a later lane block or
// a later residue class.  It returns the source plane, the kernels and
// how many of them must fault (one per dense-fault kernel).
func indexMapEdgeKernels() (*image.Plane, []*Kernel, int) {
	widths := []int{1, 7, 8, 9, 15, 17}
	const outH = 4
	// Wide enough for the farthest mapped tap: 3*16+1 plus the +1 tap.
	plane := image.NewPlane(52, outH+2, 2)
	r := testRNG(211)
	for y := -2; y < outH+4; y++ {
		for x := -2; x < 54; x++ {
			plane.Set(x, y, byte(r.next()))
		}
	}

	zx := func(e *Expr) *Expr { return &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{e}} }
	avgTree := func() *Expr {
		return Bin(OpDiv, 4, &Expr{Op: OpAdd, Width: 4,
			Args: []*Expr{zx(Load(0, 0, 0)), zx(Load(1, 0, 0)), Const(1)}}, Const(2))
	}
	faultTree := func(tabLen int) *Expr {
		tab := make([]byte, tabLen)
		for i := range tab {
			tab[i] = byte(i * 3)
		}
		return &Expr{Op: OpTable, Table: tab, Elem: 1, Args: []*Expr{Load(0, 0, 0)}}
	}
	maps := []struct {
		prefix string
		m      AxisMap
		sparse bool
	}{
		{"s2", AxisMap{Num: 2, Den: 1, Off: 1}, true},
		{"s3", AxisMap{Num: 3, Den: 1, Off: 1}, true},
		{"u", AxisMap{Num: 1, Den: 2}, false},
		{"f23", AxisMap{Num: 2, Den: 3, Off: 1}, true},
		{"f13", AxisMap{Num: 1, Den: 3, Off: 2}, true},
		{"b", AxisMap{Num: 0, Den: 1, Off: 5}, false},
	}

	var kernels []*Kernel
	for _, mp := range maps {
		for _, w := range widths {
			mk := func(kind string, tree *Expr) {
				kernels = append(kernels, &Kernel{Name: fmt.Sprintf("%s%sw%d", mp.prefix, kind, w),
					OutWidth: w, OutHeight: outH, Channels: 1, MapX: mp.m, Trees: []*Expr{tree}})
			}
			mk("v", avgTree())
			mk("d", faultTree(8))
			if mp.sparse {
				mk("s", faultTree(200))
			}
		}
	}
	return plane, kernels, len(maps) * len(widths)
}

// TestGeneratedStridedEdgeWidths is the affine-map differential at the
// batch/tail edge geometries: the indexMapEdgeKernels table compiled with
// the real toolchain and held bit-exact against the interpreter: values,
// fault positions and fault messages.  A strided batch loop that steps
// its source pointer wrong, maps a tail sample through the lane constant,
// or reports a fault at the mapped input coordinate instead of the output
// x shows up here directly.
func TestGeneratedStridedEdgeWidths(t *testing.T) {
	needToolchain(t)

	plane, kernels, minFaults := indexMapEdgeKernels()
	src := PlaneSource{P: plane}

	srcCode, err := Generate("liftedkernels", kernels)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	genHarness(t, dir, srcCode, plane)
	results := runHarness(t, dir)
	checkSchedLines(t, results)

	faults := 0
	for _, k := range kernels {
		got, ok := results[k.Name]
		if !ok {
			t.Fatalf("kernel %s missing from harness output", k.Name)
		}
		want, werr := k.Eval(src)
		if werr != nil {
			faults++
			if got[0] != "ERR" || got[1] != werr.Error() {
				t.Errorf("%s: generated %s %q, want ERR %q", k.Name, got[0], got[1], werr)
			}
			continue
		}
		if got[0] != "OK" || got[1] != hex.EncodeToString(want) {
			t.Errorf("%s: generated %s %q, want OK %s", k.Name, got[0], got[1], hex.EncodeToString(want))
		}
	}
	// Every (map, width) pair contributes a dense-fault kernel.
	if faults < minFaults {
		t.Fatalf("only %d faulting kernels; the strided edge-width fault coverage collapsed", faults)
	}
}

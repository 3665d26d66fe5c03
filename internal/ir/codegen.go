// Ahead-of-time Go source generation.  This is the reproduction's
// counterpart of the paper's final step: Helium does not stop at an IR it
// can interpret — it regenerates first-class source (Halide there, Go
// here) and lets the host toolchain optimize it.  Generate lowers a lifted
// kernel's register programs to a standalone package of fully-inlined,
// width-narrowed row loops:
//
//   - each (kernel, channel) becomes one Go function whose body is the
//     register program in SSA form — no instruction dispatch, no register
//     file, just local variables the compiler allocates to machine
//     registers;
//   - arithmetic runs in the narrowest lane type the width-inference pass
//     proved (uint8/uint16/uint32), with masking elided wherever the lane
//     width already wraps identically;
//   - constants, tap offsets and magic-division multipliers fold into
//     literals; 16-bit-and-under lanes use a 32-bit magic multiply that
//     needs no 128-bit product at all;
//   - min/max/clamp emit as Go's branch-free min/max builtins, and the
//     per-row bounds check is hoisted so the hot loop carries no tap
//     bounds tests of its own.
//
// Execution semantics — values, error positions and error messages — are
// bit-identical to the interpreter and the register executor; the
// differential tests in codegen_test.go compile and run generated code
// with the real Go toolchain to prove it.
package ir

import (
	"fmt"
	"go/format"
	"math"
	"sort"
	"strings"

	"helium/internal/schedule"
)

// laneTypeName maps a lane width to the Go type generated code computes in.
func laneTypeName(bits int) string {
	switch bits {
	case 8:
		return "uint8"
	case 16:
		return "uint16"
	case 32:
		return "uint32"
	}
	return "uint64"
}

// signedTypeName is the same-width signed type used for sign-extension and
// signed comparison in generated code.
func signedTypeName(bits int) string {
	switch bits {
	case 8:
		return "int8"
	case 16:
		return "int16"
	case 32:
		return "int32"
	}
	return "int64"
}

// callSyms maps the known library calls to their Go spellings.
var callSyms = map[string]string{
	"sqrt":  "math.Sqrt",
	"floor": "math.Floor",
	"ceil":  "math.Ceil",
	"exp":   "math.Exp",
	"log":   "math.Log",
}

// goIdent turns a kernel name into an exported-safe Go identifier chunk.
func goIdent(name string) string {
	var b strings.Builder
	up := true
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z':
			if up {
				r = r - 'a' + 'A'
			}
			b.WriteRune(r)
			up = false
		case r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' && b.Len() > 0:
			b.WriteRune(r)
			up = false
		default:
			up = true
		}
	}
	if b.Len() == 0 {
		return "K"
	}
	return b.String()
}

// progGen emits one channel program as a row function.
type progGen struct {
	p  *Program
	b  *strings.Builder
	fg *fileGen

	bits int    // lane width
	T    string // lane type
	S    string // signed lane type

	c      int // channel this function renders
	kernel string
	// cvar spells the channel as a function parameter `c` instead of the
	// literal g.c, so structurally identical channel programs render to
	// identical bodies and collapse into one shared row function.
	cvar bool

	// isFloat[i] marks instructions computing in the float domain.
	isFloat []bool
	// used[i] marks instructions whose VALUE is consumed.  Dead pure
	// instructions (domain-coercion leftovers) are not emitted at all;
	// dead fault-capable instructions emit only their runtime checks, in
	// program order, so generated code faults exactly where the register
	// executor does.
	used []bool
	// alias[i] >= 0 redirects instruction i to the register whose value
	// it provably equals (no-op extensions the width pass discharges);
	// aliased instructions are not emitted.
	alias []int32
	// tabVars[i] names the package-level table literal of instruction i.
	tabVars map[int]string
	// offVars[i] / tapOffVars[i] name the per-call tap offset locals.
	offVars    map[int]string
	tapOffVars map[int][]string
	// storeFn overrides the per-sample store the loop ends with (the
	// reduction emitter accumulates into bins instead of storing a byte).
	storeFn func(w func(string, ...any))

	// xTerm spells the current sample index in emitted statements: "x" in
	// the rolled loops, "x+3" inside a batch-unrolled lane block.
	xTerm string
	// bceSlice maps a tap offset local ("o2") to the row slice hoisted
	// over it ("s2") in the bounds-check-free fast path; nil elsewhere.
	bceSlice map[string]string
	// bceDst names the re-sliced output row in the bounds-check-free fast
	// path; empty elsewhere (the store then spells dst[x*step]).
	bceDst string
	// bceIdx spells the ELEMENT index inside the head-cutting loops: a
	// lane constant ("0".."7" in the batch block, "0" in the tail) while
	// xTerm keeps the running sample coordinate for fault reporting.
	// Constant element indexes against slices whose heads advance in
	// lockstep are the one chunked idiom the prove pass discharges fully;
	// counted `s[x+k]` forms all keep at least the +k lanes checked.
	bceIdx string
	// bceTapIdx spells the ELEMENT index of the advancing TAP slices when
	// it differs from bceIdx — the strided batch loop of an index-mapped
	// kernel cuts tap slices by lanes*stride but the output by lanes, so
	// lane k reads s[k*stride] while writing d[k].  Empty when taps and
	// output advance in lockstep.
	bceTapIdx string
	// flatCh > 0 marks the flat-interleaved variant: the loop scans
	// n*flatCh contiguous samples and a fault splits the flat index back
	// into (x, c) through the variant's ok-return shape.
	flatCh int
	// noBCE suppresses the bounds-check-free fast path (reductions whose
	// bin store the compiler could not prove in-bounds).
	noBCE bool
	// mapped marks an affine index-mapped kernel (a resize): mx and my
	// are the normalized per-axis maps and orgX/orgY the kernel origins,
	// all baked into the emitted row bodies — the registration's origins
	// are zeroed so the drivers pass raw output coordinates through.
	mapped     bool
	mx, my     AxisMap
	orgX, orgY int
}

// setMap copies a compiled kernel's affine index-map state into the
// generator; identity maps leave the emitter in the classic
// translation-only mode, whose output is byte-identical to before maps
// existed.
func (g *progGen) setMap(ck *CompiledKernel) {
	if !ck.Mapped() {
		return
	}
	g.mapped = true
	nx, dx, ox := ck.MapX.Norm()
	ny, dy, oy := ck.MapY.Norm()
	g.mx = AxisMap{Num: nx, Den: dx, Off: ox}
	g.my = AxisMap{Num: ny, Den: dy, Off: oy}
	g.orgX, g.orgY = ck.OriginX, ck.OriginY
}

// xStep is the per-sample input column advance: the x map's numerator
// for a den-1 mapped kernel, 1 for classic stencils.
func (g *progGen) xStep() int {
	if g.mapped && g.mx.Den == 1 {
		return g.mx.Num
	}
	return 1
}

// fracX reports a fractional x map — the per-sample input column is a
// floor division of the output coordinate (an upsample), so rows walk
// sample by sample instead of by a constant stride.
func (g *progGen) fracX() bool { return g.mapped && g.mx.Den != 1 }

// hasTableIn reports whether the program performs stage-input table
// lookups, which need the `tbl := img.Tbl` hoist in the preamble.
func (g *progGen) hasTableIn() bool {
	for i := range g.p.insts {
		if g.p.insts[i].op == OpTableIn {
			return true
		}
	}
	return false
}

// mapExpr spells m.Apply(v)+org as Go source: num*v+off for den 1,
// floorDiv(num*v+off, den)+org otherwise.
func mapExpr(m AxisMap, v string, org int) string {
	var s string
	if m.Den == 1 {
		switch {
		case m.Num == 0:
			s = "0"
		case m.Num == 1:
			s = v
		default:
			s = fmt.Sprintf("%d*%s", m.Num, v)
		}
		return addConst(s, m.Off+org)
	}
	in := v
	switch {
	case m.Num == 0:
		in = "0"
	case m.Num != 1:
		in = fmt.Sprintf("%d*%s", m.Num, v)
	}
	if m.Off != 0 {
		in = fmt.Sprintf("%s%+d", in, m.Off)
	}
	s = fmt.Sprintf("floorDiv(%s, %d)", in, m.Den)
	return addConst(s, org)
}

// addConst appends a signed constant term to an expression.
func addConst(s string, d int) string {
	switch {
	case d > 0:
		return fmt.Sprintf("%s + %d", s, d)
	case d < 0:
		return fmt.Sprintf("%s - %d", s, -d)
	}
	return s
}

// errX spells the input x coordinate of a checked-load fault for the tap
// delta dx, matching the register executors' mapped-coordinate reports.
func (g *progGen) errX(dx int32) string {
	switch {
	case g.fracX():
		return fmt.Sprintf("xi+(%d)", dx)
	case g.xStep() != 1:
		return fmt.Sprintf("xbase+x*%d+(%d)", g.xStep(), dx)
	}
	return fmt.Sprintf("xbase+x+(%d)", dx)
}

// errXBase spells the input x coordinate of a checked opSumTaps fault
// (the executors report the sample's base coordinate, not the tap's).
func (g *progGen) errXBase() string {
	switch {
	case g.fracX():
		return "xi"
	case g.xStep() != 1:
		return fmt.Sprintf("xbase+x*%d", g.xStep())
	}
	return "xbase+x"
}

// bceLanes is the unroll factor of the bounds-check-free batch loop: 8
// samples per iteration amortizes the loop control and gives the
// compiler straight-line blocks to schedule, while the scalar tail keeps
// any n exact.
const bceLanes = 8

// fileGen tracks file-wide state: emitted tables (deduplicated by
// content) and required imports.
type fileGen struct {
	tables    map[string]string // fingerprint key -> var name
	tableDefs *strings.Builder
	needMath  bool
	needBits  bool
	needFmt   bool
}

// GenKernel is one unit of ahead-of-time generation: a stencil pipeline
// of one or more stages (multi-stage kernels chain through intermediate
// buffers), a reduction, or stencil stages chained into a final
// reduction.
type GenKernel struct {
	Name string
	// Stages holds the stencil stages in execution order.  At least one of
	// Stages and Red must be set; when both are, the last stage's output
	// becomes the reduction's input image.
	Stages []*Kernel
	// Red is the reduction (for example a histogram).
	Red *Reduction
	// RedFirst, with both Red and Stages set, reverses the chaining: the
	// reduction runs FIRST, over the input image, and its serialized
	// table binds as the stages' table input (the stage-input lookups a
	// histogram-equalization LUT performs); the last stage's output is
	// the kernel result.
	RedFirst bool
	// Sched, when non-nil, is the tuned default schedule embedded in the
	// registration (EvalTuned runs it; Eval stays the serial reference).
	Sched *schedule.Schedule
}

// Generate emits the Go source of a package holding ahead-of-time
// compiled forms of the given single-stage kernels (which must have
// distinct names).  Multi-stage pipelines and reductions go through
// GenerateUnits.
func Generate(pkg string, kernels []*Kernel) (string, error) {
	units := make([]GenKernel, len(kernels))
	for i, k := range kernels {
		units[i] = GenKernel{Name: k.Name, Stages: []*Kernel{k}}
	}
	return GenerateUnits(pkg, units)
}

// GenerateUnits emits the Go source of a package holding ahead-of-time
// compiled forms of the given generation units.  The output is
// deterministic: units are ordered by name, and all numbering is
// structural.
func GenerateUnits(pkg string, units []GenKernel) (string, error) {
	ks := append([]GenKernel(nil), units...)
	sort.Slice(ks, func(i, j int) bool { return ks[i].Name < ks[j].Name })
	for i := range ks {
		if i > 0 && ks[i].Name == ks[i-1].Name {
			return "", fmt.Errorf("ir: generate: duplicate kernel name %q", ks[i].Name)
		}
		if len(ks[i].Stages) == 0 && ks[i].Red == nil {
			return "", fmt.Errorf("ir: generate: kernel %q must have stages, a reduction, or both", ks[i].Name)
		}
	}

	fg := &fileGen{tables: map[string]string{}, tableDefs: &strings.Builder{}}
	var body strings.Builder
	for _, u := range ks {
		switch {
		case u.Red != nil && len(u.Stages) == 0:
			if err := genReduction(&body, fg, u.Name, u.Red, u.Sched); err != nil {
				return "", err
			}
		case u.Red == nil && len(u.Stages) == 1:
			k := u.Stages[0]
			if k.Name != u.Name {
				kc := *k
				kc.Name = u.Name
				k = &kc
			}
			ck, err := k.Compile()
			if err != nil {
				return "", fmt.Errorf("ir: generate %s: %w", u.Name, err)
			}
			if err := genKernel(&body, fg, k, ck, u.Sched); err != nil {
				return "", err
			}
		default:
			if err := genStaged(&body, fg, u); err != nil {
				return "", err
			}
		}
	}

	var out strings.Builder
	out.WriteString("// Code generated by \"helium gen\"; DO NOT EDIT.\n\n")
	fmt.Fprintf(&out, "package %s\n\n", pkg)
	var imports []string
	if fg.needFmt {
		imports = append(imports, `"fmt"`)
	}
	if fg.needMath {
		imports = append(imports, `"math"`)
	}
	if fg.needBits {
		imports = append(imports, `"math/bits"`)
	}
	if len(imports) > 0 {
		fmt.Fprintf(&out, "import (\n")
		for _, im := range imports {
			fmt.Fprintf(&out, "\t%s\n", im)
		}
		fmt.Fprintf(&out, ")\n\n")
	}
	out.WriteString(fg.tableDefs.String())
	out.WriteString(body.String())
	formatted, err := format.Source([]byte(out.String()))
	if err != nil {
		return "", fmt.Errorf("ir: generate: emitted source does not parse: %w\n%s", err, out.String())
	}
	return string(formatted), nil
}

// rowSet records how one compiled kernel's row functions were emitted:
// one function per channel, or — when every channel program renders to an
// identical body — one shared channel-parameterized function plus a thin
// whole-kernel wrapper that loops the channels.
type rowSet struct {
	lanes  []string
	rows   []string // per-channel function names; nil when shared
	rowAll string   // wrapper name when the channels collapsed
}

// regLines writes the registration fields of the row set at the given
// indent.
func (rs *rowSet) regLines(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%sLaneBits: []int{%s},\n", indent, strings.Join(rs.lanes, ", "))
	if rs.rowAll != "" {
		fmt.Fprintf(b, "%sRowAll:   %s,\n", indent, rs.rowAll)
		return
	}
	fmt.Fprintf(b, "%sRows:     []RowFunc{%s},\n", indent, strings.Join(rs.rows, ", "))
}

// channelBodies renders every channel program with the channel spelled as
// a parameter, against scratch file state, so structural equality of the
// channel programs reduces to string equality of the bodies.  One scratch
// fileGen is shared across the channels: table names intern by content
// there, so channels applying the same table render the same token while
// channels applying different tables render different ones — distinct
// LUTs must never collapse into one shared body.
func channelBodies(ck *CompiledKernel) ([]string, error) {
	out := make([]string, len(ck.Progs))
	scratch := &fileGen{tables: map[string]string{}, tableDefs: &strings.Builder{}}
	for c, p := range ck.Progs {
		var b strings.Builder
		g := &progGen{
			p: p, fg: scratch, b: &b,
			bits: p.width.laneBits,
			c:    c, cvar: true, kernel: "X",
		}
		g.T = laneTypeName(g.bits)
		g.S = signedTypeName(g.bits)
		g.setMap(ck)
		if err := g.emitRowFunc("shared"); err != nil {
			return nil, err
		}
		out[c] = b.String()
	}
	return out, nil
}

// emitRowSet emits one compiled kernel's row functions.  prefix names the
// function family (for example "rowSharpen" or "rowBlur2pS0").
func emitRowSet(b *strings.Builder, fg *fileGen, what string, ck *CompiledKernel, prefix string) (rowSet, error) {
	rs := rowSet{lanes: make([]string, len(ck.Progs))}
	for c, p := range ck.Progs {
		rs.lanes[c] = fmt.Sprint(p.LaneBits())
	}

	if len(ck.Progs) > 1 {
		bodies, err := channelBodies(ck)
		if err != nil {
			return rs, fmt.Errorf("%s: %w", what, err)
		}
		same := true
		for _, body := range bodies[1:] {
			if body != bodies[0] {
				same = false
				break
			}
		}
		if same {
			shared := prefix
			rs.rowAll = prefix + "All"
			g := &progGen{
				p: ck.Progs[0], fg: fg, b: b,
				bits: ck.Progs[0].width.laneBits,
				c:    0, cvar: true, kernel: prefix,
			}
			g.T = laneTypeName(g.bits)
			g.S = signedTypeName(g.bits)
			g.setMap(ck)
			if err := g.emitRowFunc(shared); err != nil {
				return rs, fmt.Errorf("%s: %w", what, err)
			}
			// On the flat-interleaved layout the whole row is one
			// contiguous run of n*channels samples, so a second variant
			// scans it as a single flat loop — the only shape on which a
			// multi-channel kernel reaches the bounds-check-free batch
			// path (the per-channel calls below run at step == channels).
			flat := ""
			gf := &progGen{
				p: ck.Progs[0], fg: fg, b: b,
				bits: ck.Progs[0].width.laneBits,
				c:    0, cvar: true, kernel: prefix,
				flatCh: len(ck.Progs),
			}
			gf.T = laneTypeName(gf.bits)
			gf.S = signedTypeName(gf.bits)
			gf.setMap(ck)
			// The flat scan folds x and c into one index, which an index
			// map would have to divide back apart — mapped kernels keep
			// the per-channel path.
			if gf.hasLoads() && !ck.Mapped() {
				flat = prefix + "Flat"
				if err := gf.emitFlatRowFunc(flat); err != nil {
					return rs, fmt.Errorf("%s: %w", what, err)
				}
			}
			fmt.Fprintf(b, "// %s renders all %d channels of one output row through the shared\n", rs.rowAll, len(ck.Progs))
			fmt.Fprintf(b, "// channel body, with the reference x-then-c error selection.\n")
			fmt.Fprintf(b, "func %s(dst []byte, img *Image, y, xbase, n int) (int, int, error) {\n", rs.rowAll)
			if flat != "" {
				fmt.Fprintf(b, "\tif img.PixStep == %d && img.ChanStep == 1 {\n", len(ck.Progs))
				fmt.Fprintf(b, "\t\tif x, c, err, ok := %s(dst, img, y, xbase, n); ok {\n", flat)
				fmt.Fprintf(b, "\t\t\treturn x, c, err\n\t\t}\n\t}\n")
			}
			fmt.Fprintf(b, "\terrX, errC := -1, -1\n")
			fmt.Fprintf(b, "\tvar firstErr error\n")
			fmt.Fprintf(b, "\tfor c := 0; c < %d; c++ {\n", len(ck.Progs))
			fmt.Fprintf(b, "\t\tx, err := %s(dst[c:], %d, img, y, xbase, n, c)\n", shared, len(ck.Progs))
			fmt.Fprintf(b, "\t\tif err != nil && (errX < 0 || x < errX) {\n")
			fmt.Fprintf(b, "\t\t\terrX, errC, firstErr = x, c, err\n")
			fmt.Fprintf(b, "\t\t}\n\t}\n")
			fmt.Fprintf(b, "\treturn errX, errC, firstErr\n}\n\n")
			return rs, nil
		}
	}

	rs.rows = make([]string, len(ck.Progs))
	for c, p := range ck.Progs {
		rs.rows[c] = fmt.Sprintf("%sC%d", prefix, c)
		g := &progGen{
			p: p, fg: fg, b: b,
			bits: p.width.laneBits,
			c:    c, kernel: prefix,
		}
		g.T = laneTypeName(g.bits)
		g.S = signedTypeName(g.bits)
		g.setMap(ck)
		if err := g.emitRowFunc(rs.rows[c]); err != nil {
			return rs, fmt.Errorf("%s channel %d: %w", what, c, err)
		}
	}
	return rs, nil
}

// emitSched writes the kernel's tuned default schedule when it differs
// from the reference serial-materialize strategy.  Workers, fusion,
// window and per-stage tile extents embed (tiles drive the generated
// runtime's cache-blocked driver and, at one worker, the baked serial
// tile nest).
func emitSched(b *strings.Builder, sc *schedule.Schedule) {
	if sc == nil {
		return
	}
	hasTiles := false
	for _, st := range sc.Stages {
		if st.TileW > 0 || st.TileH > 0 {
			hasTiles = true
		}
	}
	if sc.Workers == 0 && sc.FusionKind() == schedule.Materialize && sc.WindowRows == 0 && !hasTiles {
		return
	}
	fmt.Fprintf(b, "\t\tSched: ScheduleSpec{Workers: %d, Fusion: %q, WindowRows: %d",
		sc.Workers, string(sc.FusionKind()), sc.WindowRows)
	if hasTiles {
		fmt.Fprintf(b, ", Stages: []StageSched{")
		for i, st := range sc.Stages {
			if i > 0 {
				fmt.Fprintf(b, ", ")
			}
			fmt.Fprintf(b, "{TileW: %d, TileH: %d}", st.TileW, st.TileH)
		}
		fmt.Fprintf(b, "}")
	}
	fmt.Fprintf(b, "},\n")
}

// emitTunedDriver writes a serial driver whose loop nest carries the
// tuned tile extents as literal bounds — the schedule baked into the
// code itself.  EvalTuned dispatches to it when the embedded schedule
// resolves to one worker; the parallel path keeps the generic tiled
// driver, which reads the same tiles from the embedded ScheduleSpec.
func emitTunedDriver(b *strings.Builder, fg *fileGen, k *Kernel, rs *rowSet, name string, tileW, tileH int) {
	fg.needFmt = true
	ch := k.Channels
	fmt.Fprintf(b, "// %s renders through the tuned %dx%d tile blocking baked in as\n", name, tileW, tileH)
	fmt.Fprintf(b, "// literal loop bounds (the embedded schedule's serial fast path).\n")
	fmt.Fprintf(b, "func %s(sc *Scratch, img *Image, outW, outH int) ([]byte, error) {\n", name)
	fmt.Fprintf(b, "\tconst tileW, tileH = %d, %d\n", tileW, tileH)
	fmt.Fprintf(b, "\tout := sc.outBuf(outW * outH * %d)\n", ch)
	fmt.Fprintf(b, "\tvar first *rowErr\n")
	fmt.Fprintf(b, "\tfor ty := 0; ty < outH; ty += tileH {\n")
	fmt.Fprintf(b, "\t\tth := outH - ty\n\t\tif th > tileH {\n\t\t\tth = tileH\n\t\t}\n")
	fmt.Fprintf(b, "\t\tfor tx := 0; tx < outW; tx += tileW {\n")
	fmt.Fprintf(b, "\t\t\ttw := outW - tx\n\t\t\tif tw > tileW {\n\t\t\t\ttw = tileW\n\t\t\t}\n")
	fmt.Fprintf(b, "\t\t\tfor y := ty; y < ty+th; y++ {\n")
	switch {
	case rs.rowAll != "":
		fmt.Fprintf(b, "\t\t\t\tx, c, err := %s(out[(y*outW+tx)*%d:], img, y+%d, %d+tx, tw)\n", rs.rowAll, ch, k.OriginY, k.OriginX)
		fmt.Fprintf(b, "\t\t\t\tif err != nil {\n")
		fmt.Fprintf(b, "\t\t\t\t\te := &rowErr{y: y, x: x + tx, c: c, err: err}\n")
	case len(rs.rows) == 1:
		fmt.Fprintf(b, "\t\t\t\tx, err := %s(out[(y*outW+tx)*%d:], %d, img, y+%d, %d+tx, tw)\n", rs.rows[0], ch, ch, k.OriginY, k.OriginX)
		fmt.Fprintf(b, "\t\t\t\tif err != nil {\n")
		fmt.Fprintf(b, "\t\t\t\t\te := &rowErr{y: y, x: x + tx, c: 0, err: err}\n")
	default:
		// Distinct per-channel bodies: replicate the reference x-then-c
		// selection (the first channel keeps ties).
		fmt.Fprintf(b, "\t\t\t\terrX, errC := -1, -1\n")
		fmt.Fprintf(b, "\t\t\t\tvar ferr error\n")
		for c, row := range rs.rows {
			fmt.Fprintf(b, "\t\t\t\tif x, err := %s(out[(y*outW+tx)*%d+%d:], %d, img, y+%d, %d+tx, tw); err != nil && (errX < 0 || x < errX) {\n",
				row, ch, c, ch, k.OriginY, k.OriginX)
			fmt.Fprintf(b, "\t\t\t\t\terrX, errC, ferr = x, %d, err\n\t\t\t\t}\n", c)
		}
		fmt.Fprintf(b, "\t\t\t\tif ferr != nil {\n")
		fmt.Fprintf(b, "\t\t\t\t\te := &rowErr{y: y, x: errX + tx, c: errC, err: ferr}\n")
	}
	fmt.Fprintf(b, "\t\t\t\t\tif first == nil || e.before(first) {\n\t\t\t\t\t\tfirst = e\n\t\t\t\t\t}\n")
	fmt.Fprintf(b, "\t\t\t\t\tbreak\n\t\t\t\t}\n")
	fmt.Fprintf(b, "\t\t\t}\n\t\t}\n\t}\n")
	fmt.Fprintf(b, "\tif first != nil {\n")
	fmt.Fprintf(b, "\t\treturn nil, fmt.Errorf(\"ir: kernel %s at (%%d,%%d,%%d): %%w\", first.x, first.y, first.c, first.err)\n", k.Name)
	fmt.Fprintf(b, "\t}\n\treturn out, nil\n}\n\n")
}

// genKernel emits the registration literal and the row functions of one
// single-stage kernel.
func genKernel(b *strings.Builder, fg *fileGen, k *Kernel, ck *CompiledKernel, sc *schedule.Schedule) error {
	ident := goIdent(k.Name)
	fmt.Fprintf(b, "// %s is the lifted stencil\n", k.Name)
	for _, line := range strings.Split(strings.TrimRight(k.String(), "\n"), "\n") {
		fmt.Fprintf(b, "//\n//\t%s\n", line)
	}
	var fns strings.Builder
	rs, err := emitRowSet(&fns, fg, fmt.Sprintf("ir: generate %s", k.Name), ck, "row"+ident)
	if err != nil {
		return err
	}
	kreg := k
	if ck.Mapped() {
		// The affine index maps and the origins are baked into the row
		// bodies, so the registration's origins stay zero and the
		// drivers pass raw output coordinates through.
		kc := *k
		kc.OriginX, kc.OriginY = 0, 0
		kreg = &kc
	}
	tuned := ""
	if sc != nil {
		if st := sc.StageAt(0); st.TileW > 0 && st.TileH > 0 {
			tuned = "tuned" + ident
			emitTunedDriver(&fns, fg, kreg, &rs, tuned, st.TileW, st.TileH)
		}
	}
	fmt.Fprintf(b, "func init() {\n")
	fmt.Fprintf(b, "\tregister(&Kernel{\n")
	fmt.Fprintf(b, "\t\tName:          %q,\n", k.Name)
	fmt.Fprintf(b, "\t\tChannels:      %d,\n", k.Channels)
	fmt.Fprintf(b, "\t\tOriginX:       %d,\n", kreg.OriginX)
	fmt.Fprintf(b, "\t\tOriginY:       %d,\n", kreg.OriginY)
	fmt.Fprintf(b, "\t\tDefaultWidth:  %d,\n", k.OutWidth)
	fmt.Fprintf(b, "\t\tDefaultHeight: %d,\n", k.OutHeight)
	rs.regLines(b, "\t\t")
	if tuned != "" {
		fmt.Fprintf(b, "\t\tTuned:    %s,\n", tuned)
	}
	emitSched(b, sc)
	fmt.Fprintf(b, "\t})\n}\n\n")
	b.WriteString(fns.String())
	return nil
}

// fuseGeom is a stage's read footprint, the geometry the generated
// runtime's sliding-window driver sizes its rings by: the rows and
// columns of the stage's input that its whole output row y (respectively
// column x) depends on, origins applied.
type fuseGeom struct {
	loY, hiY int // input rows read for output row y: [y+loY, y+hiY]
	loX, hiX int // input columns read for output column x: [x+loX, x+hiX]
}

// readFootprint collects the kernel's tap bounds across every channel
// program, including taps fused into sums.  Dead instructions are skipped
// exactly as the executors skip them (fault-capable loads are never
// marked dead, so no observable tap is missed).
func (ck *CompiledKernel) readFootprint() fuseGeom {
	minDX, maxDX, minDY, maxDY := 0, 0, 0, 0
	first := true
	see := func(dx, dy int32) {
		if first {
			minDX, maxDX, minDY, maxDY = int(dx), int(dx), int(dy), int(dy)
			first = false
			return
		}
		minDX, maxDX = min(minDX, int(dx)), max(maxDX, int(dx))
		minDY, maxDY = min(minDY, int(dy)), max(maxDY, int(dy))
	}
	for _, p := range ck.Progs {
		for i := range p.insts {
			in := &p.insts[i]
			if in.dead {
				continue
			}
			switch in.op {
			case OpLoad:
				see(in.dx, in.dy)
			case opSumTaps:
				for _, t := range in.taps {
					see(t.dx, t.dy)
				}
			}
		}
	}
	return fuseGeom{
		loY: ck.OriginY + minDY, hiY: ck.OriginY + maxDY,
		loX: ck.OriginX + minDX, hiX: ck.OriginX + maxDX,
	}
}

// emitFusedDriver writes the footprint-specialized sliding-window strip
// body for a two-stage planar pipeline: the consumer's recorded row
// footprint becomes literal ring geometry (ring height, slide amount,
// pull horizon), replacing the generic fusedProduce dispatch.  The
// runtime calls it only at the minimal window — an explicit WindowRows
// falls back to the generic ring — and only after evalStagesFused has
// validated the footprint, so the body may assume in-range reads.
// Returns the emitted function's name, or "" when the pipeline shape
// does not specialize (more than two stages, interleaved intermediates,
// or collapsed channel bodies).
func emitFusedDriver(b *strings.Builder, u GenKernel, cks []*CompiledKernel, sets []rowSet, ident string) string {
	if len(u.Stages) != 2 {
		return ""
	}
	for si, k := range u.Stages {
		if k.Channels != 1 || sets[si].rowAll != "" || len(sets[si].rows) != 1 {
			return ""
		}
	}
	g := cks[1].readFootprint()
	minDY, maxDY := g.loY, g.hiY
	ringRows := maxDY - minDY + 1
	name := "fused" + ident
	fmt.Fprintf(b, "// %s streams stage 0 through a %d-row ring sized by stage 1's\n", name, ringRows)
	fmt.Fprintf(b, "// literal row footprint [%d,%d] — the baked sliding-window strip body.\n", minDY, maxDY)
	fmt.Fprintf(b, "func %s(sc *Scratch, img *Image, out []byte, ws, hs []int, s0, s1 int, first, drain bool, errs []*rowErr) {\n", name)
	fmt.Fprintf(b, "\tconst maxDY = %d\n", maxDY)
	fmt.Fprintf(b, "\tconst ringRows = %d\n", ringRows)
	fmt.Fprintf(b, "\tw0, w1 := ws[0], ws[1]\n")
	fmt.Fprintf(b, "\tlo0 := s0 + %d\n", minDY)
	fmt.Fprintf(b, "\tif lo0 < 0 || first {\n\t\tlo0 = 0\n\t}\n")
	fmt.Fprintf(b, "\thi0 := s1 + maxDY\n")
	fmt.Fprintf(b, "\tif hi0 > hs[0] || drain {\n\t\thi0 = hs[0]\n\t}\n")
	fmt.Fprintf(b, "\tring := sc.buf(0, ringRows*w0)\n")
	fmt.Fprintf(b, "\trim := sc.img(0)\n")
	fmt.Fprintf(b, "\t*rim = Image{Pix: ring, Base: -lo0 * w0, Stride: w0, PixStep: 1, Tbl: img.Tbl}\n")
	fmt.Fprintf(b, "\tyBase, cur := lo0, lo0\n")
	fmt.Fprintf(b, "\tproduce := func(y int) bool {\n")
	fmt.Fprintf(b, "\t\tph := y - yBase\n")
	fmt.Fprintf(b, "\t\tif ph >= ringRows {\n")
	fmt.Fprintf(b, "\t\t\tcopy(ring, ring[w0:ringRows*w0])\n")
	fmt.Fprintf(b, "\t\t\tyBase++\n")
	fmt.Fprintf(b, "\t\t\trim.Base = -yBase * w0\n")
	fmt.Fprintf(b, "\t\t\tph = y - yBase\n")
	fmt.Fprintf(b, "\t\t}\n")
	fmt.Fprintf(b, "\t\tx, err := %s(ring[ph*w0:], 1, img, y+%d, %d, w0)\n", sets[0].rows[0], u.Stages[0].OriginY, u.Stages[0].OriginX)
	fmt.Fprintf(b, "\t\tif err != nil {\n")
	fmt.Fprintf(b, "\t\t\terrs[0] = &rowErr{y: y, x: x, c: 0, err: err}\n")
	fmt.Fprintf(b, "\t\t\treturn false\n\t\t}\n\t\treturn true\n\t}\n")
	fmt.Fprintf(b, "\tfor y := s0; y < s1; y++ {\n")
	fmt.Fprintf(b, "\t\tfor top := y + maxDY; cur <= top && cur < hi0; cur++ {\n")
	fmt.Fprintf(b, "\t\t\tif !produce(cur) {\n\t\t\t\treturn\n\t\t\t}\n\t\t}\n")
	fmt.Fprintf(b, "\t\tx, err := %s(out[y*w1:], 1, rim, y+%d, %d, w1)\n", sets[1].rows[0], u.Stages[1].OriginY, u.Stages[1].OriginX)
	fmt.Fprintf(b, "\t\tif err != nil {\n")
	fmt.Fprintf(b, "\t\t\terrs[1] = &rowErr{y: y, x: x, c: 0, err: err}\n")
	fmt.Fprintf(b, "\t\t\tbreak\n\t\t}\n\t}\n")
	fmt.Fprintf(b, "\t// Drain: the materializing chain computes every producer row, so a\n")
	fmt.Fprintf(b, "\t// fault above the consumed range must still surface.\n")
	fmt.Fprintf(b, "\tfor ; cur < hi0; cur++ {\n")
	fmt.Fprintf(b, "\t\tif !produce(cur) {\n\t\t\treturn\n\t\t}\n\t}\n")
	fmt.Fprintf(b, "}\n\n")
	return name
}

// genStaged emits a multi-stage pipeline, optionally chained into a final
// reduction: one set of row functions per stage, chained by the runtime
// through intermediate buffers whose extents track the requested output
// size by the constant per-stage deltas recorded at lift time.  With a
// reduction the deltas are relative to the reduction's input domain and
// the last stage's output becomes the reduction's input image.
func genStaged(b *strings.Builder, fg *fileGen, u GenKernel) error {
	ident := goIdent(u.Name)
	finalW := u.Stages[len(u.Stages)-1].OutWidth
	finalH := u.Stages[len(u.Stages)-1].OutHeight
	channels := u.Stages[len(u.Stages)-1].Channels
	switch {
	case u.Red != nil && u.RedFirst:
		fmt.Fprintf(b, "// %s is the lifted reduction-fed pipeline: the table computes over\n// the input, then %d stencil stage(s) consume it\n", u.Name, len(u.Stages))
	case u.Red != nil:
		finalW, finalH = u.Red.DomW, u.Red.DomH
		channels = 1
		fmt.Fprintf(b, "// %s is the lifted %d-stage pipeline ending in a reduction\n", u.Name, len(u.Stages))
	default:
		fmt.Fprintf(b, "// %s is the lifted %d-stage stencil pipeline\n", u.Name, len(u.Stages))
	}
	redComment := func() {
		for _, line := range strings.Split(strings.TrimRight(u.Red.String(), "\n"), "\n") {
			fmt.Fprintf(b, "//\n//\t%s\n", line)
		}
	}
	if u.Red != nil && u.RedFirst {
		redComment()
	}
	for _, k := range u.Stages {
		for _, line := range strings.Split(strings.TrimRight(k.String(), "\n"), "\n") {
			fmt.Fprintf(b, "//\n//\t%s\n", line)
		}
	}
	if u.Red != nil && !u.RedFirst {
		redComment()
	}
	cks := make([]*CompiledKernel, len(u.Stages))
	for si, k := range u.Stages {
		ck, err := k.Compile()
		if err != nil {
			return fmt.Errorf("ir: generate %s stage %d: %w", u.Name, si, err)
		}
		if ck.Mapped() {
			// The staged drivers share extents and footprints across
			// stages in output coordinates; an index-mapped stage breaks
			// that accounting, so maps only generate as single-stage
			// kernels (the corpus shape).
			return fmt.Errorf("ir: generate %s stage %d: affine index-mapped stages only generate single-stage", u.Name, si)
		}
		cks[si] = ck
	}

	var fns strings.Builder
	sets := make([]rowSet, len(cks))
	for si, ck := range cks {
		rs, err := emitRowSet(&fns, fg, fmt.Sprintf("ir: generate %s stage %d", u.Name, si), ck, fmt.Sprintf("row%sS%d", ident, si))
		if err != nil {
			return err
		}
		sets[si] = rs
	}
	fused := emitFusedDriver(&fns, u, cks, sets, ident)

	fmt.Fprintf(b, "func init() {\n")
	fmt.Fprintf(b, "\tregister(&Kernel{\n")
	fmt.Fprintf(b, "\t\tName:          %q,\n", u.Name)
	fmt.Fprintf(b, "\t\tChannels:      %d,\n", channels)
	fmt.Fprintf(b, "\t\tDefaultWidth:  %d,\n", finalW)
	fmt.Fprintf(b, "\t\tDefaultHeight: %d,\n", finalH)
	fmt.Fprintf(b, "\t\tStages: []StageSpec{\n")
	for si, k := range u.Stages {
		g := cks[si].readFootprint()
		fmt.Fprintf(b, "\t\t\t{Channels: %d, OriginX: %d, OriginY: %d, DW: %d, DH: %d, MinDY: %d, MaxDY: %d, MinDX: %d, MaxDX: %d,\n",
			k.Channels, k.OriginX, k.OriginY, k.OutWidth-finalW, k.OutHeight-finalH, g.loY, g.hiY, g.loX, g.hiX)
		sets[si].regLines(b, "\t\t\t\t")
		fmt.Fprintf(b, "\t\t\t},\n")
	}
	fmt.Fprintf(b, "\t\t},\n")
	if fused != "" {
		fmt.Fprintf(b, "\t\tFusedStrip: %s,\n", fused)
	}
	if u.Red != nil {
		rp, err := compileReduction(u.Name, u.Red)
		if err != nil {
			return err
		}
		if err := emitReductionSpec(b, &fns, fg, u.Name, ident, u.Red, rp); err != nil {
			return err
		}
		if u.RedFirst {
			fmt.Fprintf(b, "\t\tRedFirst: true,\n")
			if dw := u.Red.DomW - finalW; dw != 0 {
				fmt.Fprintf(b, "\t\tRedDW: %d,\n", dw)
			}
			if dh := u.Red.DomH - finalH; dh != 0 {
				fmt.Fprintf(b, "\t\tRedDH: %d,\n", dh)
			}
		}
	}
	emitSched(b, u.Sched)
	fmt.Fprintf(b, "\t})\n}\n\n")
	b.WriteString(fns.String())
	return nil
}

// compileReduction validates a reduction's generatable shape and lowers
// its index expression — the one compile both reduction emitters share.
func compileReduction(name string, r *Reduction) (*Program, error) {
	if r.Elem != 4 {
		return nil, fmt.Errorf("ir: generate %s: reduction bins are %d bytes; only 4-byte bins are generatable", name, r.Elem)
	}
	p, err := CompileExpr(r.Index)
	if err != nil {
		return nil, fmt.Errorf("ir: generate %s: index: %w", name, err)
	}
	if p.rootFloat {
		return nil, fmt.Errorf("ir: generate %s: float-valued reduction index is not generatable", name)
	}
	for i := range p.insts {
		if p.insts[i].op == OpTableIn {
			return nil, fmt.Errorf("ir: generate %s: reduction index with stage-input lookups is not generatable", name)
		}
	}
	return p, nil
}

// emitReductionSpec writes the Red registration field and the reduction
// row function (into fns) for a pre-compiled index program.
func emitReductionSpec(b, fns *strings.Builder, fg *fileGen, name, ident string, r *Reduction, p *Program) error {
	fmt.Fprintf(b, "\t\tRed: &ReductionSpec{\n")
	fmt.Fprintf(b, "\t\t\tBins: %d,\n", r.Bins)
	allZero := true
	for _, v := range r.Init {
		if v != 0 {
			allZero = false
		}
	}
	if !allZero {
		inits := make([]string, len(r.Init))
		for i, v := range r.Init {
			inits[i] = fmt.Sprint(uint32(v))
		}
		fmt.Fprintf(b, "\t\t\tInit: []uint32{%s},\n", strings.Join(inits, ", "))
	}
	if r.Suffix {
		fmt.Fprintf(b, "\t\t\tSuffix: true,\n")
	}
	fmt.Fprintf(b, "\t\t\tRow:  red%s,\n", ident)
	fmt.Fprintf(b, "\t\t},\n")

	g := &progGen{
		p: p, fg: fg, b: fns,
		bits:   p.width.laneBits,
		c:      0,
		kernel: ident,
	}
	g.T = laneTypeName(g.bits)
	g.S = signedTypeName(g.bits)
	if err := g.emitReductionFunc(fmt.Sprintf("red%s", ident), r); err != nil {
		return fmt.Errorf("ir: generate %s: %w", name, err)
	}
	return nil
}

// genReduction emits an accumulate-into-table kernel: a per-row
// accumulation function driven by the runtime's reduction driver.  Only
// 4-byte bins are generated (the corpus shape); wider tables would need a
// second bin type in the runtime.
func genReduction(b *strings.Builder, fg *fileGen, name string, r *Reduction, sc *schedule.Schedule) error {
	p, err := compileReduction(name, r)
	if err != nil {
		return err
	}
	ident := goIdent(name)
	fmt.Fprintf(b, "// %s is the lifted reduction\n", name)
	for _, line := range strings.Split(strings.TrimRight(r.String(), "\n"), "\n") {
		fmt.Fprintf(b, "//\n//\t%s\n", line)
	}
	var fns strings.Builder
	fmt.Fprintf(b, "func init() {\n")
	fmt.Fprintf(b, "\tregister(&Kernel{\n")
	fmt.Fprintf(b, "\t\tName:          %q,\n", name)
	fmt.Fprintf(b, "\t\tChannels:      1,\n")
	fmt.Fprintf(b, "\t\tDefaultWidth:  %d,\n", r.DomW)
	fmt.Fprintf(b, "\t\tDefaultHeight: %d,\n", r.DomH)
	fmt.Fprintf(b, "\t\tLaneBits:      []int{%d},\n", p.LaneBits())
	if err := emitReductionSpec(b, &fns, fg, name, ident, r, p); err != nil {
		return err
	}
	emitSched(b, sc)
	fmt.Fprintf(b, "\t})\n}\n\n")
	b.WriteString(fns.String())
	return nil
}

// floatness computes per-instruction float-domain flags.
func (g *progGen) floatness() {
	g.isFloat = make([]bool, len(g.p.insts))
	for i := range g.p.insts {
		in := &g.p.insts[i]
		if in.op.IsFloat() || (in.op == OpSelect && in.fl) {
			g.isFloat[i] = true
		}
	}
}

// operands lists the register operands an instruction's emitted value form
// reads.
func operands(in *pinst) []int32 {
	switch in.op {
	case OpLoad:
		return nil
	case opSumTaps, opMulN, opAndN, opOrN, opXorN, opMinN, opMaxN:
		return in.args
	case OpSub, OpMulHi, OpShl, OpShr, OpSar, OpDiv, OpMod, OpFAdd, OpFSub, OpFMul, OpFDiv,
		OpCmpEq, OpCmpNe, OpCmpLtS, OpCmpLeS, OpCmpLtU, OpCmpLeU:
		return []int32{in.a, in.b}
	case OpSelect:
		return []int32{in.a, in.b, in.c}
	}
	return []int32{in.a}
}

// liveness computes the value-used set backwards from the root, keeping
// the operand chains that dead fault-capable instructions still need for
// their runtime checks.
func (g *progGen) liveness() {
	p := g.p
	g.used = make([]bool, len(p.insts))
	mark := func(id int32) {
		if i := g.instIdx(id); i >= 0 {
			g.used[i] = true
		}
	}
	mark(p.root)
	for i := len(p.insts) - 1; i >= 0; i-- {
		in := &p.insts[i]
		if g.used[i] {
			for _, r := range operands(in) {
				mark(r)
			}
			continue
		}
		// Dead but fault-capable: the check still runs and still needs
		// its inputs.
		switch in.op {
		case OpDiv, OpMod:
			mark(in.b)
		case OpTable:
			if !g.tableSafe(in) {
				mark(in.a)
			}
		case OpTableIn:
			// The table is bound at run time, so the range check can
			// never be discharged at generation time.
			mark(in.a)
		}
	}
}

// instIdx maps a register id to its defining instruction index, or -1 for
// pool constants.
func (g *progGen) instIdx(id int32) int {
	n := int32(len(g.p.consts))
	if id < n {
		return -1
	}
	return int(id - n)
}

// computeAliases finds the width-change instructions whose result provably
// equals their operand (the register bound proves the extension or
// truncation cannot change the value), so references skip straight to the
// producer.
func (g *progGen) computeAliases() {
	p := g.p
	g.alias = make([]int32, len(p.insts))
	for i := range p.insts {
		g.alias[i] = -1
		in := &p.insts[i]
		hiA := p.width.hi[in.a]
		switch in.op {
		case OpZExt:
			if hiA <= in.mask {
				g.alias[i] = in.a
			}
		case OpSExt:
			if signedWidthOK(hiA, in.sh) && hiA <= in.mask {
				g.alias[i] = in.a
			}
		case OpExtract:
			if in.val == 0 && hiA <= in.mask {
				g.alias[i] = in.a
			}
		}
	}
}

// resolve chases alias chains to the register whose value is actually
// materialized.
func (g *progGen) resolve(id int32) int32 {
	for {
		i := g.instIdx(id)
		if i < 0 || g.alias[i] < 0 {
			return id
		}
		id = g.alias[i]
	}
}

// tableSafe reports whether a table lookup's index is provably in range —
// the index register's bound covers the whole table — so the generated
// code needs no per-sample check.  Only narrow lanes qualify: a 64-bit
// index can reinterpret as negative.
func (g *progGen) tableSafe(in *pinst) bool {
	if g.bits > 32 {
		return false
	}
	hi := g.p.width.hi[g.resolve(in.a)]
	return (hi+1)*uint64(in.elem) <= uint64(len(in.table))
}

// ref renders an integer-domain operand: a literal for pool constants, the
// SSA variable otherwise.  Constants are truncated to the lane width —
// sound because either they fit (width pass) or the consumer's masking
// wraps identically.
func (g *progGen) ref(id int32) string {
	id = g.resolve(id)
	if i := g.instIdx(id); i >= 0 {
		return fmt.Sprintf("v%d", i)
	}
	return g.intLit(g.p.consts[id])
}

// refT renders an integer operand with an explicit lane type: needed where
// an untyped constant literal would otherwise pick up Go's default int
// type (shift left operands, := initializers, divisor temporaries).
func (g *progGen) refT(id int32) string {
	id = g.resolve(id)
	if i := g.instIdx(id); i >= 0 {
		return fmt.Sprintf("v%d", i)
	}
	return fmt.Sprintf("%s(%s)", g.T, g.intLit(g.p.consts[id]))
}

// refInt64 renders an operand as an int64 value, matching the reference
// executor's reinterpretation of the raw register bits.
func (g *progGen) refInt64(id int32) string {
	id = g.resolve(id)
	if i := g.instIdx(id); i >= 0 {
		return fmt.Sprintf("int64(v%d)", i)
	}
	return fmt.Sprintf("int64(%d)", int64(g.p.consts[id]))
}

// refF renders a float-domain operand.
func (g *progGen) refF(id int32) string {
	id = g.resolve(id)
	if i := g.instIdx(id); i >= 0 {
		return fmt.Sprintf("f%d", i)
	}
	g.fg.needMath = true
	return fmt.Sprintf("math.Float64frombits(%#x)", g.p.consts[id])
}

// intLit renders an integer constant truncated to the lane width.
func (g *progGen) intLit(v uint64) string {
	switch g.bits {
	case 8:
		v &= 0xff
	case 16:
		v &= 0xffff
	case 32:
		v &= 0xffffffff
	}
	if v < 1024 {
		return fmt.Sprint(v)
	}
	return fmt.Sprintf("%#x", v)
}

// laneMax is the all-ones value of the lane type.
func (g *progGen) laneMax() uint64 {
	if g.bits == 64 {
		return math.MaxUint64
	}
	return 1<<uint(g.bits) - 1
}

// maskSuffix renders " & mask" when masking at the instruction's width is
// not already implied by lane wraparound, and "" when it is.
func (g *progGen) maskSuffix(mask uint64) string {
	if mask >= g.laneMax() {
		return ""
	}
	return " & " + g.intLit(mask)
}

// sxExpr renders the sign extension of an integer operand at the signed
// width encoded by sh, as a signed lane value.  For sign widths wider than
// the lane every value is provably nonnegative, so the plain unsigned
// operand is returned with signed=false.  Constant operands sign-extend at
// generation time.
func (g *progGen) sxExpr(id int32, sh uint8) (expr string, signed bool) {
	id = g.resolve(id)
	sw := 64 - int(sh)
	if sw > g.bits {
		return g.refT(id), false
	}
	if i := g.instIdx(id); i < 0 {
		return fmt.Sprintf("%s(%d)", g.S, sx(g.p.consts[id], sh)), true
	}
	shl := g.bits - sw
	if shl == 0 {
		return fmt.Sprintf("%s(%s)", g.S, g.ref(id)), true
	}
	return fmt.Sprintf("%s(%s<<%d)>>%d", g.S, g.ref(id), shl, shl), true
}

// chanExpr renders the channel coordinate of an error report: a literal
// when the function is channel-specialized, `c` (plus the tap's channel
// delta) when the channel is a parameter.
func (g *progGen) chanExpr(dc int32) string {
	if !g.cvar {
		return fmt.Sprint(g.c + int(dc))
	}
	switch {
	case dc > 0:
		return fmt.Sprintf("c+%d", dc)
	case dc < 0:
		return fmt.Sprintf("c-%d", -dc)
	}
	return "c"
}

// chanTerm renders the channel term of pos0.
func (g *progGen) chanTerm() string {
	if g.cvar {
		return "c"
	}
	return fmt.Sprint(g.c)
}

// faultRet renders the return statement reporting a fault at the current
// sample (g.xTerm).  The flat-interleaved variant scans all channels in
// one flat index, so it splits the index back into (x, c) and returns
// through its four-value ok shape.
func (g *progGen) faultRet(errExpr string) string {
	if g.flatCh > 0 {
		return fmt.Sprintf("return (%s) / %d, (%s) %% %d, %s, true", g.xTerm, g.flatCh, g.xTerm, g.flatCh, errExpr)
	}
	return fmt.Sprintf("return %s, %s", g.xTerm, errExpr)
}

// writerAt returns a statement writer at the given tab depth.  Emitted
// source is gofmt-normalized at the end, so depth only needs to keep the
// output parseable.
func (g *progGen) writerAt(indent int) func(string, ...any) {
	tabs := strings.Repeat("\t", indent)
	return func(format string, args ...any) {
		g.b.WriteString(tabs)
		fmt.Fprintf(g.b, format, args...)
		g.b.WriteString("\n")
	}
}

// offExpr renders a tap's flat offset in terms of the image geometry.
func offExpr(dx, dy, dc int32) string {
	var terms []string
	if dy != 0 {
		terms = append(terms, fmt.Sprintf("%d*img.Stride", dy))
	}
	if dx != 0 {
		terms = append(terms, fmt.Sprintf("%d*ps", dx))
	}
	if dc != 0 {
		terms = append(terms, fmt.Sprintf("%d*img.ChanStep", dc))
	}
	if len(terms) == 0 {
		return "0"
	}
	return strings.Join(terms, " + ")
}

// tableVar interns a lookup table as a deduplicated package-level literal.
// Tables are sized arrays, not slices: an array's length is a compile-time
// constant, which is what lets the Go prove pass discharge the lookup's
// bounds check inside the batch loops (a package-level slice's length is
// mutable as far as the compiler knows).
func (g *progGen) tableVar(table []byte, elem int) string {
	key := fmt.Sprintf("%x/%d/%d", tableFingerprint(table), len(table), elem)
	if name, ok := g.fg.tables[key]; ok {
		return name
	}
	name := fmt.Sprintf("tab%d", len(g.fg.tables))
	g.fg.tables[key] = name
	d := g.fg.tableDefs
	fmt.Fprintf(d, "var %s = [%d]byte{", name, len(table))
	for i, v := range table {
		if i%16 == 0 {
			d.WriteString("\n\t")
		} else {
			d.WriteString(" ")
		}
		fmt.Fprintf(d, "0x%02x,", v)
	}
	d.WriteString("\n}\n\n")
	return name
}

// collectOffsets names the per-call tap offset locals hoisted out of the
// loop, returning their definitions.
func (g *progGen) collectOffsets() (offDefs []string) {
	p := g.p
	g.offVars = map[int]string{}
	g.tapOffVars = map[int][]string{}
	nOffs := 0
	addOff := func(dx, dy, dc int32) string {
		v := fmt.Sprintf("o%d", nOffs)
		nOffs++
		offDefs = append(offDefs, fmt.Sprintf("%s := %s", v, offExpr(dx, dy, dc)))
		return v
	}
	for i := range p.insts {
		in := &p.insts[i]
		switch in.op {
		case OpLoad:
			g.offVars[i] = addOff(in.dx, in.dy, in.dc)
		case opSumTaps:
			for _, t := range in.taps {
				g.tapOffVars[i] = append(g.tapOffVars[i], addOff(t.dx, t.dy, t.dc))
			}
		}
	}
	return offDefs
}

// emitBody writes the loop halves shared by the row and reduction
// emitters: under a hoisted whole-span bounds check, first the
// bounds-check-free batch+tail path (contiguous geometry only), then the
// strided fast loop; plus the checked edge path.
func (g *progGen) emitBody(offDefs []string) error {
	b := g.b
	if len(offDefs) > 0 {
		for _, d := range offDefs {
			fmt.Fprintf(b, "\t%s\n", d)
		}
		// Hoisted bounds check: when every tap's whole x-span lies inside
		// the backing, the row loop runs with unchecked loads.  Index
		// maps widen the span by their stride; fractional maps hoist the
		// first and last mapped columns (the maps are nondecreasing, so
		// those bound every sample).
		var conds []string
		switch {
		case g.fracX():
			fmt.Fprintf(b, "\txlo := %s\n", mapExpr(g.mx, "xbase", g.orgX))
			fmt.Fprintf(b, "\txhi := %s\n", mapExpr(g.mx, "(xbase+n-1)", g.orgX))
			for i := range offDefs {
				conds = append(conds, fmt.Sprintf("spanIn(pos0+xlo*ps+o%d, pos0+xhi*ps+o%d, len(pix))", i, i))
			}
		case g.xStep() != 1:
			for i := range offDefs {
				conds = append(conds, fmt.Sprintf("spanIn(pos0+o%d, pos0+o%d+(n-1)*%d*ps, len(pix))", i, i, g.xStep()))
			}
		default:
			for i := range offDefs {
				conds = append(conds, fmt.Sprintf("spanIn(pos0+o%d, pos0+o%d+(n-1)*ps, len(pix))", i, i))
			}
		}
		fmt.Fprintf(b, "\tif n > 0 && %s {\n", strings.Join(conds, " &&\n\t\t"))
		if err := g.emitFastPath(len(offDefs)); err != nil {
			return err
		}
		if err := g.emitLoop(2, false); err != nil {
			return err
		}
		fmt.Fprintf(b, "\t\treturn -1, nil\n\t}\n")
		// Edge path: identical arithmetic with per-tap bounds checks, so
		// faults report the exact coordinate the reference executors do.
		if err := g.emitLoop(1, true); err != nil {
			return err
		}
		fmt.Fprintf(b, "\treturn -1, nil\n}\n\n")
		return nil
	}
	if err := g.emitLoop(1, false); err != nil {
		return err
	}
	fmt.Fprintf(b, "\treturn -1, nil\n}\n\n")
	return nil
}

// emitFastPath writes the bounds-check-free half of the fast path: on
// contiguous geometry (unit pixel stride, and for row functions a unit
// output step) every tap's row re-slices to exactly the loop extent, so
// the compiler's prove pass discharges each load and store in the batch
// and tail loops.  It runs inside the whole-span guard and returns on
// completion; non-contiguous geometry falls through to the strided loop.
func (g *progGen) emitFastPath(nOffs int) error {
	if g.noBCE || g.fracX() || g.xStep() < 1 {
		// Fractional index maps re-divide per sample and constant-column
		// maps never advance — neither shape head-cuts, so both keep the
		// strided rolled loop (still unchecked under the span guard).
		return nil
	}
	b := g.b
	gate := "ps == 1 && step == 1"
	if g.storeFn != nil {
		gate = "ps == 1"
	}
	fmt.Fprintf(b, "\t\tif %s {\n", gate)
	if err := g.emitBCELoops(nOffs, "n", 3); err != nil {
		return err
	}
	fmt.Fprintf(b, "\t\t\treturn -1, nil\n")
	fmt.Fprintf(b, "\t\t}\n")
	return nil
}

// emitBCELoops writes the hoisted tap re-slices, the bceLanes-wide
// unrolled batch loop and the scalar tail over lenVar samples at tab
// depth d.  Everything between the bce:begin/bce:end markers must compile
// with zero bounds checks — the repository's check_bce gate greps the
// compiler's diagnostics against these markers.
//
// The loops are head-cutting, not counted: every live row slice (and the
// output row) advances in lockstep — s = s[8:] per batch block, s = s[1:]
// per tail sample — and elements are addressed by lane CONSTANTS (s[0]
// .. s[7]).  The loop condition is a conjunction of len(s) >= lanes over
// the advancing slices, which the prove pass discharges exactly; counted
// forms (`for x+8 <= n { s[x+k] }` in any spelling) leave the +k lanes
// checked.  The sample counter x still runs alongside purely so faults
// report the true coordinate.
func (g *progGen) emitBCELoops(nOffs int, lenVar string, d int) error {
	b := g.b
	t := strings.Repeat("\t", d)
	live := map[string]bool{}
	for i := range g.p.insts {
		if !g.used[i] {
			continue
		}
		switch g.p.insts[i].op {
		case OpLoad:
			live[g.offVars[i]] = true
		case opSumTaps:
			for _, ov := range g.tapOffVars[i] {
				live[ov] = true
			}
		}
	}
	xs := g.xStep()
	g.bceSlice = map[string]string{}
	var adv []string  // slices advanced in lockstep, in emission order
	var advStep []int // per-slice head-cut per sample (stride for taps)
	span := lenVar
	if xs != 1 {
		// A strided index map reads (n-1)*stride+1 input columns per
		// tap; the tap re-slices below span exactly that, so the length
		// conjunctions stay exact.
		span = "sp"
		fmt.Fprintf(b, "%ssp := (%s-1)*%d + 1\n", t, lenVar, xs)
	}
	for i := 0; i < nOffs; i++ {
		ov := fmt.Sprintf("o%d", i)
		if !live[ov] {
			continue
		}
		sv := fmt.Sprintf("s%d", i)
		g.bceSlice[ov] = sv
		adv = append(adv, sv)
		advStep = append(advStep, xs)
		// Full-slice re-slice: every advancing slice starts at exactly
		// the span it indexes, so the lockstep head-cuts keep their
		// lengths in step and the len() conjunctions below cover every
		// access.
		fmt.Fprintf(b, "%s%s := pix[pos0+%s : pos0+%s+%s : pos0+%s+%s]\n", t, sv, ov, ov, span, ov, span)
	}
	if g.storeFn == nil {
		g.bceDst = "d"
		adv = append(adv, "d")
		advStep = append(advStep, 1)
		fmt.Fprintf(b, "%sd := dst[:%s:%s]\n", t, lenVar, lenVar)
	}
	defer func() {
		g.bceSlice = nil
		g.bceDst = ""
		g.bceIdx = ""
		g.bceTapIdx = ""
		g.xTerm = ""
	}()
	if len(adv) == 0 {
		// No slice is indexed per sample (a reduction whose index program
		// reads no taps): a plain counted loop is already check-free — the
		// bin store is proved by the index's value range, not the loop.
		g.xTerm, g.bceIdx = "x", ""
		fmt.Fprintf(b, "%s// bce:begin\n", t)
		fmt.Fprintf(b, "%sfor x := 0; x < %s; x++ {\n", t, lenVar)
		if err := g.emitSampleBody(g.writerAt(d+1), false); err != nil {
			return err
		}
		fmt.Fprintf(b, "%s}\n", t)
		fmt.Fprintf(b, "%s// bce:end\n", t)
		return nil
	}
	lhs := strings.Join(adv, ", ")
	cut := func(k int) string {
		parts := make([]string, len(adv))
		for i, sv := range adv {
			parts[i] = fmt.Sprintf("%s[%d:]", sv, k*advStep[i])
		}
		return strings.Join(parts, ", ")
	}
	conds := func(lanes int, cmp string) string {
		parts := make([]string, len(adv))
		for i, sv := range adv {
			if lanes > 0 {
				parts[i] = fmt.Sprintf("len(%s) >= %d", sv, lanes*advStep[i])
			} else {
				parts[i] = fmt.Sprintf("len(%s) %s", sv, cmp)
			}
		}
		return strings.Join(parts, " && ")
	}
	fmt.Fprintf(b, "%sx := 0\n", t)
	fmt.Fprintf(b, "%s// bce:begin\n", t)
	fmt.Fprintf(b, "%sfor %s {\n", t, conds(bceLanes, ""))
	for k := 0; k < bceLanes; k++ {
		g.xTerm = "x"
		if k > 0 {
			g.xTerm = fmt.Sprintf("x+%d", k)
		}
		g.bceIdx = fmt.Sprintf("%d", k)
		if xs != 1 {
			g.bceTapIdx = fmt.Sprintf("%d", k*xs)
		}
		fmt.Fprintf(b, "%s\t{\n", t)
		if err := g.emitSampleBody(g.writerAt(d+2), false); err != nil {
			return err
		}
		fmt.Fprintf(b, "%s\t}\n", t)
	}
	fmt.Fprintf(b, "%s\t%s = %s\n", t, lhs, cut(bceLanes))
	fmt.Fprintf(b, "%s\tx += %d\n", t, bceLanes)
	fmt.Fprintf(b, "%s}\n", t)
	if xs != 1 {
		fmt.Fprintf(b, "%s// bce:end\n", t)
		// Strided tail: the last tap slice ends mid-stride, so head-
		// cutting it by the stride would overrun — the final < bceLanes
		// samples run the plain strided body instead, outside the
		// markers, where its residual checks are off the hot path.
		g.bceSlice, g.bceDst, g.bceIdx, g.bceTapIdx, g.xTerm = nil, "", "", "", "x"
		fmt.Fprintf(b, "%sfor ; x < %s; x++ {\n", t, lenVar)
		if err := g.emitSampleBody(g.writerAt(d+1), false); err != nil {
			return err
		}
		fmt.Fprintf(b, "%s}\n", t)
		return nil
	}
	g.xTerm, g.bceIdx = "x", "0"
	fmt.Fprintf(b, "%sfor %s {\n", t, conds(0, "> 0"))
	if err := g.emitSampleBody(g.writerAt(d+1), false); err != nil {
		return err
	}
	fmt.Fprintf(b, "%s\t%s = %s\n", t, lhs, cut(1))
	fmt.Fprintf(b, "%s\tx++\n", t)
	fmt.Fprintf(b, "%s}\n", t)
	fmt.Fprintf(b, "%s// bce:end\n", t)
	return nil
}

// elemIdx spells the element index for slice accesses in the emitted
// sample body: the lane constant inside the head-cutting loops, the
// running counter everywhere else.
func (g *progGen) elemIdx() string {
	if g.bceIdx != "" {
		return g.bceIdx
	}
	return g.xTerm
}

// tapIdx spells the element index for TAP slice accesses, which differs
// from elemIdx inside a strided batch block: lane k reads s[k*stride]
// while writing d[k].
func (g *progGen) tapIdx() string {
	if g.bceTapIdx != "" {
		return g.bceTapIdx
	}
	return g.elemIdx()
}

// emitRowFunc writes the complete row function for one channel program.
// With cvar set the channel is a trailing parameter instead of a baked-in
// literal, so one function can serve every channel of a kernel whose
// channel programs are structurally identical.
func (g *progGen) emitRowFunc(name string) error {
	g.floatness()
	g.computeAliases()
	g.liveness()
	b := g.b

	offDefs := g.collectOffsets()
	if g.cvar {
		fmt.Fprintf(b, "// %s renders any channel's rows in %d-bit lanes (%d instructions, %d taps);\n// the kernel's channel programs are identical, so one body serves them all.\n",
			name, g.bits, len(g.p.insts), len(offDefs))
		fmt.Fprintf(b, "func %s(dst []byte, step int, img *Image, y, xbase, n, c int) (int, error) {\n", name)
	} else {
		fmt.Fprintf(b, "// %s renders channel %d rows in %d-bit lanes (%d instructions, %d taps).\n",
			name, g.c, g.bits, len(g.p.insts), len(offDefs))
		fmt.Fprintf(b, "func %s(dst []byte, step int, img *Image, y, xbase, n int) (int, error) {\n", name)
	}
	if len(offDefs) > 0 {
		if g.mapped {
			// Bake the affine index maps: y (and, for whole-stride maps,
			// xbase) remap to INPUT coordinates on entry; fractional x
			// maps keep xbase raw and floor-divide per sample.
			if !g.my.Identity() || g.orgY != 0 {
				fmt.Fprintf(b, "\ty = %s\n", mapExpr(g.my, "y", g.orgY))
			}
			if g.mx.Den == 1 && (!g.mx.Identity() || g.orgX != 0) {
				fmt.Fprintf(b, "\txbase = %s\n", mapExpr(g.mx, "xbase", g.orgX))
			}
		}
		fmt.Fprintf(b, "\tpix := img.Pix\n")
		fmt.Fprintf(b, "\tps := img.PixStep\n")
		if g.fracX() {
			fmt.Fprintf(b, "\tpos0 := img.Base + y*img.Stride + %s*img.ChanStep\n", g.chanTerm())
		} else {
			fmt.Fprintf(b, "\tpos0 := img.Base + y*img.Stride + xbase*ps + %s*img.ChanStep\n", g.chanTerm())
		}
	} else if g.cvar {
		fmt.Fprintf(b, "\t_ = c\n")
	}
	if g.hasTableIn() {
		fmt.Fprintf(b, "\ttbl := img.Tbl\n")
	}
	return g.emitBody(offDefs)
}

// emitReductionFunc writes the per-row accumulation function of a
// reduction: the index program runs per pixel and bins[index] takes the
// constant delta.  When the width pass proves the index always lands
// inside the table the per-sample range check is discharged, exactly like
// safe table lookups.
func (g *progGen) emitReductionFunc(name string, r *Reduction) error {
	g.floatness()
	g.computeAliases()
	g.liveness()
	p := g.p
	b := g.b

	root := g.resolve(p.root)
	safe := g.bits <= 32 && p.width.hi[root] < uint64(r.Bins)
	// The batch path is only worth emitting when the compiler itself can
	// prove the bin store: the bins re-slice below makes len(bins) the
	// constant Bins, so an index whose TYPE ranges below Bins is free.
	g.noBCE = !safe || g.laneMax() >= uint64(r.Bins)
	defer func() { g.noBCE = false }()
	g.storeFn = func(w func(string, ...any)) {
		if safe {
			w("bins[%s] += %d", g.ref(p.root), uint32(r.Delta))
			return
		}
		w("bi := %s", g.refInt64(p.root))
		w("if bi < 0 || bi >= %d {", r.Bins)
		w("\t%s", g.faultRet(fmt.Sprintf("errRedIndex(bi, %d)", r.Bins)))
		w("}")
		w("bins[bi] += %d", uint32(r.Delta))
	}
	defer func() { g.storeFn = nil }()

	offDefs := g.collectOffsets()
	fmt.Fprintf(b, "// %s accumulates one input row into the bin table in %d-bit lanes (%d instructions).\n",
		name, g.bits, len(p.insts))
	fmt.Fprintf(b, "func %s(bins []uint32, img *Image, y, n int) (int, error) {\n", name)
	if !g.noBCE {
		fmt.Fprintf(b, "\tbins = bins[:%d:%d]\n", r.Bins, r.Bins)
	}
	if len(offDefs) > 0 {
		fmt.Fprintf(b, "\tpix := img.Pix\n")
		fmt.Fprintf(b, "\tps := img.PixStep\n")
		fmt.Fprintf(b, "\tpos0 := img.Base + y*img.Stride\n")
		// The checked-load error paths spell coordinates via xbase, which
		// for a reduction domain is always zero.
		fmt.Fprintf(b, "\tconst xbase = 0\n")
	}
	return g.emitBody(offDefs)
}

// hasLoads reports whether the program reads the pixel backing at all
// (the flat-interleaved variant is pointless — and unemittable — without
// tap offsets).
func (g *progGen) hasLoads() bool {
	for i := range g.p.insts {
		switch g.p.insts[i].op {
		case OpLoad:
			return true
		case opSumTaps:
			if len(g.p.insts[i].taps) > 0 {
				return true
			}
		}
	}
	return false
}

// emitFlatRowFunc writes the flat-interleaved variant of a collapsed
// multi-channel kernel: on PixStep == channels, ChanStep == 1 layouts one
// output row is n*channels contiguous samples whose tap offsets are
// channel-independent, so the whole row runs as a single unit-stride scan
// — the shape the bounds-check-free batch loops need.  The scan order
// (x-major, channel-minor) is exactly the reference x-then-c error order,
// and a fault's flat index splits back into (x, c).  ok reports whether
// the variant applied; on false the caller falls back to the per-channel
// path, whose checked loops report edge faults exactly.
func (g *progGen) emitFlatRowFunc(name string) error {
	g.floatness()
	g.computeAliases()
	g.liveness()
	b := g.b
	ch := g.flatCh

	offDefs := g.collectOffsets()
	fmt.Fprintf(b, "// %s renders all %d interleaved channels of one output row as one flat\n", name, ch)
	fmt.Fprintf(b, "// unit-stride scan of n*%d samples (bounds-check-free batch loops); ok is\n", ch)
	fmt.Fprintf(b, "// false when a tap leaves the backing and the caller must fall back.\n")
	fmt.Fprintf(b, "func %s(dst []byte, img *Image, y, xbase, n int) (int, int, error, bool) {\n", name)
	fmt.Fprintf(b, "\tpix := img.Pix\n")
	fmt.Fprintf(b, "\tps := img.PixStep\n")
	fmt.Fprintf(b, "\tpos0 := img.Base + y*img.Stride + xbase*ps\n")
	fmt.Fprintf(b, "\tm := n * %d\n", ch)
	fmt.Fprintf(b, "\tif m == 0 {\n\t\treturn -1, -1, nil, true\n\t}\n")
	for _, d := range offDefs {
		fmt.Fprintf(b, "\t%s\n", d)
	}
	var conds []string
	for i := range offDefs {
		conds = append(conds, fmt.Sprintf("spanIn(pos0+o%d, pos0+o%d+m-1, len(pix))", i, i))
	}
	fmt.Fprintf(b, "\tif %s {\n", strings.Join(conds, " &&\n\t\t"))
	if err := g.emitBCELoops(len(offDefs), "m", 2); err != nil {
		return err
	}
	fmt.Fprintf(b, "\t\treturn -1, -1, nil, true\n\t}\n")
	fmt.Fprintf(b, "\treturn 0, 0, nil, false\n}\n\n")
	return nil
}

// emitLoop writes the rolled per-sample loop at the given indent; checked
// selects bounds-checked loads.
func (g *progGen) emitLoop(indent int, checked bool) error {
	g.xTerm = "x"
	tabs := strings.Repeat("\t", indent)
	g.b.WriteString(tabs + "for x := 0; x < n; x++ {\n")
	if err := g.emitSampleBody(g.writerAt(indent+1), checked); err != nil {
		return err
	}
	g.b.WriteString(tabs + "}\n")
	return nil
}

// emitSampleBody writes one sample's instruction sequence and final store.
// The sample index is g.xTerm, so the batch-unrolled lane blocks of the
// bounds-check-free path reuse this body verbatim at shifted indices.
func (g *progGen) emitSampleBody(w func(string, ...any), checked bool) error {
	p := g.p
	if g.bceSlice == nil {
		pixUsed := false
		for i := range p.insts {
			in := &p.insts[i]
			switch in.op {
			case OpLoad:
				pixUsed = pixUsed || g.used[i] || checked
			case opSumTaps:
				pixUsed = pixUsed || len(in.taps) > 0 && (g.used[i] || checked)
			}
		}
		if pixUsed {
			switch {
			case g.fracX():
				w("xi := %s", mapExpr(g.mx, "(xbase+x)", g.orgX))
				w("p := pos0 + xi*ps")
			case g.xStep() != 1:
				w("p := pos0 + x*%d*ps", g.xStep())
			default:
				w("p := pos0 + x*ps")
			}
		}
	}
	for i := range p.insts {
		if err := g.emitInst(i, w, checked); err != nil {
			return err
		}
	}
	if g.storeFn != nil {
		g.storeFn(w)
		return nil
	}
	target := "dst[x*step]"
	if g.bceDst != "" {
		target = fmt.Sprintf("%s[%s]", g.bceDst, g.elemIdx())
	}
	// Final store: narrow the root to one sample byte exactly like the
	// reference executors (float roots store the low byte of their IEEE
	// bit pattern).
	switch ri := g.instIdx(g.resolve(p.root)); {
	case ri >= 0 && g.isFloat[ri]:
		g.fg.needMath = true
		w("%s = uint8(math.Float64bits(%s))", target, g.refF(p.root))
	case ri >= 0:
		w("%s = uint8(%s)", target, g.ref(p.root))
	default:
		// Constant root (the whole tree folded): the byte is a literal.
		w("%s = %d", target, uint8(p.consts[p.root]))
	}
	return nil
}

// emitInst writes one SSA statement (or statement group) for instruction i.
func (g *progGen) emitInst(i int, w func(string, ...any), checked bool) error {
	p := g.p
	in := &p.insts[i]
	v := fmt.Sprintf("v%d", i)
	f := fmt.Sprintf("f%d", i)
	T := g.T

	if g.alias[i] >= 0 {
		return nil
	}
	if !g.used[i] {
		// Dead value: emit only the runtime checks the reference
		// executors would still perform, at this program position.
		switch in.op {
		case OpDiv, OpMod:
			errFn := "errDivZero"
			if in.op == OpMod {
				errFn = "errModZero"
			}
			w("if %s%s == 0 {", g.refT(in.b), g.maskSuffix(in.mask))
			w("\t%s", g.faultRet(errFn+"()"))
			w("}")
		case OpTable:
			if g.tableSafe(in) {
				break
			}
			w("i%d := %s", i, g.refInt64(in.a))
			w("if j%d := i%d * %d; j%d < 0 || j%d+%d > %d {", i, i, in.elem, i, i, in.elem, len(in.table))
			w("\t%s", g.faultRet(fmt.Sprintf("errTable(i%d, %d)", i, len(in.table)/in.elem)))
			w("}")
		case OpLoad:
			if checked {
				w("if uint(p+%s) >= uint(len(pix)) {", g.offVars[i])
				w("\treturn x, errLoad(%s, y+(%d), %s)", g.errX(in.dx), in.dy, g.chanExpr(in.dc))
				w("}")
			}
		case opSumTaps:
			if checked {
				for _, ov := range g.tapOffVars[i] {
					w("if uint(p+%s) >= uint(len(pix)) {", ov)
					w("\treturn x, errLoad(%s, y, %s)", g.errXBase(), g.chanExpr(0))
					w("}")
				}
			}
		case OpTableIn:
			// Dead stage-input lookup: the range check against the bound
			// table still runs at this program position.
			w("i%d := %s", i, g.refInt64(in.a))
			w("if j%d := i%d * %d; j%d < 0 || j%d+%d > int64(len(tbl)) {", i, i, in.elem, i, i, in.elem)
			w("\t%s", g.faultRet(fmt.Sprintf("errTable(i%d, len(tbl)/%d)", i, in.elem)))
			w("}")
		}
		return nil
	}

	// nary joins operand references with an operator.
	nary := func(op string) string {
		parts := make([]string, len(in.args))
		for j, r := range in.args {
			parts[j] = g.ref(r)
		}
		return strings.Join(parts, " "+op+" ")
	}

	switch in.op {
	case OpLoad:
		switch {
		case checked:
			w("i%d := p + %s", i, g.offVars[i])
			w("if uint(i%d) >= uint(len(pix)) {", i)
			w("\treturn x, errLoad(%s, y+(%d), %s)", g.errX(in.dx), in.dy, g.chanExpr(in.dc))
			w("}")
			w("%s := %s(pix[i%d])", v, T, i)
		case g.bceSlice != nil:
			w("%s := %s(%s[%s])", v, T, g.bceSlice[g.offVars[i]], g.tapIdx())
		default:
			w("%s := %s(pix[p+%s])", v, T, g.offVars[i])
		}

	case opSumTaps:
		terms := []string{}
		if in.val != 0 {
			terms = append(terms, g.intLit(uint64(in.val)))
		}
		switch {
		case checked:
			for j, ov := range g.tapOffVars[i] {
				w("i%d_%d := p + %s", i, j, ov)
				w("if uint(i%d_%d) >= uint(len(pix)) {", i, j)
				w("\treturn x, errLoad(%s, y, %s)", g.errXBase(), g.chanExpr(0))
				w("}")
				terms = append(terms, fmt.Sprintf("%s(pix[i%d_%d])", T, i, j))
			}
		case g.bceSlice != nil:
			for _, ov := range g.tapOffVars[i] {
				terms = append(terms, fmt.Sprintf("%s(%s[%s])", T, g.bceSlice[ov], g.tapIdx()))
			}
		default:
			for _, ov := range g.tapOffVars[i] {
				terms = append(terms, fmt.Sprintf("%s(pix[p+%s])", T, ov))
			}
		}
		for _, r := range in.args {
			terms = append(terms, g.ref(r))
		}
		if len(terms) == 0 {
			terms = append(terms, "0")
		}
		w("%s := (%s)%s", v, strings.Join(terms, " + "), g.maskSuffix(in.mask))

	case opMulN:
		w("%s := (%s)%s", v, nary("*"), g.maskSuffix(in.mask))
	case opAndN:
		w("%s := (%s)%s", v, nary("&"), g.maskSuffix(in.mask))
	case opOrN:
		w("%s := (%s)%s", v, nary("|"), g.maskSuffix(in.mask))
	case opXorN:
		w("%s := (%s)%s", v, nary("^"), g.maskSuffix(in.mask))

	case opMinN, opMaxN:
		fn := "min"
		if in.op == opMaxN {
			fn = "max"
		}
		parts := make([]string, len(in.args))
		signed := false
		for j, r := range in.args {
			var s bool
			parts[j], s = g.sxExpr(r, in.sh)
			signed = signed || s
		}
		expr := fmt.Sprintf("%s(%s)", fn, strings.Join(parts, ", "))
		if signed {
			expr = fmt.Sprintf("%s(%s)", T, expr)
		}
		w("%s := %s%s", v, expr, g.maskSuffix(in.mask))

	case OpSub:
		w("%s := (%s - %s)%s", v, g.ref(in.a), g.ref(in.b), g.maskSuffix(in.mask))

	case OpMulHi:
		if g.bits <= 32 {
			// Operands provably fit 32 bits, so the widening product fits
			// uint64 exactly.
			w("%s := %s(uint64(%s) * uint64(%s) >> 32%s)", v, T, g.ref(in.a), g.ref(in.b), mask64Suffix(in.mask))
		} else {
			w("%s := (%s & 0xffffffff) * (%s & 0xffffffff) >> 32%s", v, g.ref(in.a), g.ref(in.b), g.maskSuffix(in.mask))
		}

	case OpDiv, OpMod:
		op := "/"
		errFn := "errDivZero"
		if in.op == OpMod {
			op = "%%"
			errFn = "errModZero"
		}
		w("d%d := %s%s", i, g.refT(in.b), g.maskSuffix(in.mask))
		w("if d%d == 0 {", i)
		w("\t%s", g.faultRet(errFn+"()"))
		w("}")
		w("%s := (%s%s) "+op+" d%d", v, g.refT(in.a), g.maskSuffix(in.mask), i)

	case opDivShift:
		w("%s := (%s%s) >> %d", v, g.refT(in.a), g.maskSuffix(in.mask), in.val)
	case opDivMagic:
		if g.bits <= 16 {
			// 32-bit magic: exact for numerators below 2^16 (see
			// divByConst for the error-term argument at 2^64; the same
			// bound holds one power-of-two scale down).
			magic32 := uint64(math.MaxUint32)/in.dcon + 1
			w("%s := %s(uint64(%s%s) * %#x >> 32)", v, T, g.ref(in.a), g.maskSuffix(in.mask), magic32)
		} else {
			g.fg.needBits = true
			w("h%d, _ := bits.Mul64(uint64(%s%s), %#x)", i, g.ref(in.a), g.maskSuffix(in.mask), in.magic)
			w("%s := %s(h%d)", v, T, i)
		}
	case opModShift:
		w("%s := %s%s & %s", v, g.refT(in.a), g.maskSuffix(in.mask), g.intLit(in.dcon-1))
	case opModMagic:
		if g.bits <= 16 {
			magic32 := uint64(math.MaxUint32)/in.dcon + 1
			w("m%d := uint64(%s%s)", i, g.ref(in.a), g.maskSuffix(in.mask))
			w("%s := %s(m%d - m%d*%#x>>32*%d)", v, T, i, i, magic32, in.dcon)
		} else {
			g.fg.needBits = true
			w("m%d := uint64(%s%s)", i, g.ref(in.a), g.maskSuffix(in.mask))
			w("h%d, _ := bits.Mul64(m%d, %#x)", i, i, in.magic)
			w("%s := %s(m%d - h%d*%d)", v, T, i, i, in.dcon)
		}

	case OpNot:
		w("%s := ^%s%s", v, g.refT(in.a), g.maskSuffix(in.mask))
	case OpNeg:
		w("%s := -%s%s", v, g.refT(in.a), g.maskSuffix(in.mask))
	case OpShl:
		w("%s := %s << (%s & 31)%s", v, g.refT(in.a), g.ref(in.b), g.maskSuffix(in.mask))
	case OpShr:
		w("%s := (%s%s) >> (%s & 31)", v, g.refT(in.a), g.maskSuffix(in.mask), g.ref(in.b))
	case OpSar:
		sx, signed := g.sxExpr(in.a, in.sh)
		if signed {
			w("%s := %s((%s) >> (%s & 31))%s", v, T, sx, g.ref(in.b), g.maskSuffix(in.mask))
		} else {
			w("%s := (%s) >> (%s & 31)%s", v, sx, g.ref(in.b), g.maskSuffix(in.mask))
		}

	case OpZExt:
		// mask is the source-width mask here.
		w("%s := %s%s", v, g.refT(in.a), g.maskSuffix(in.mask))
	case OpSExt:
		sx, signed := g.sxExpr(in.a, in.sh)
		if signed {
			w("%s := %s(%s)%s", v, T, sx, g.maskSuffix(in.mask))
		} else {
			w("%s := %s%s", v, sx, g.maskSuffix(in.mask))
		}
	case OpExtract:
		w("%s := %s >> %d%s", v, g.refT(in.a), 8*in.val, g.maskSuffix(in.mask))

	case OpSelect:
		if in.fl {
			w("%s := %s", f, g.refF(in.c))
			w("if %s != 0 {", g.refT(in.a))
			w("\t%s = %s", f, g.refF(in.b))
			w("}")
		} else {
			w("%s := %s", v, g.refT(in.c))
			w("if %s != 0 {", g.refT(in.a))
			w("\t%s = %s", v, g.refT(in.b))
			w("}")
		}

	case OpCmpEq, OpCmpNe, OpCmpLtU, OpCmpLeU:
		op := map[Op]string{OpCmpEq: "==", OpCmpNe: "!=", OpCmpLtU: "<", OpCmpLeU: "<="}[in.op]
		w("%s := %s(0)", v, T)
		w("if %s%s %s %s%s {", g.refT(in.a), g.maskSuffix(in.mask), op, g.refT(in.b), g.maskSuffix(in.mask))
		w("\t%s = 1", v)
		w("}")

	case OpCmpLtS, OpCmpLeS:
		op := "<"
		if in.op == OpCmpLeS {
			op = "<="
		}
		// Both operands share in.sh, so sxExpr picks the same form for
		// both: either the plain unsigned lane (sign width wider than the
		// lane, everything provably nonnegative) or the signed lane type.
		sa, _ := g.sxExpr(in.a, in.sh)
		sb, _ := g.sxExpr(in.b, in.sh)
		w("%s := %s(0)", v, T)
		w("if %s %s %s {", sa, op, sb)
		w("\t%s = 1", v)
		w("}")

	case OpTable:
		if g.tableSafe(in) && in.elem == 1 {
			// The width pass proved the index covers at most the table: no
			// per-sample range check.  The Go compiler cannot see that
			// proof, so the table is shaped for its prove pass instead:
			// when the index TYPE ranges past the table, the table pads to
			// a power of two and the index masks down — a no-op on every
			// proven-legal index, but now len-bounded by construction.
			idx := g.refT(in.a)
			table := in.table
			if g.laneMax() >= uint64(len(table)) {
				p2 := 1
				for p2 < len(table) {
					p2 <<= 1
				}
				if p2 > len(table) {
					table = append(append([]byte(nil), table...), make([]byte, p2-len(table))...)
				}
				idx = fmt.Sprintf("%s&%d", idx, p2-1)
			}
			w("%s := %s(%s[%s])", v, T, g.tableVar(table, in.elem), idx)
			break
		}
		tab := g.tableVar(in.table, in.elem)
		if g.tableSafe(in) {
			w("j%d := int(%s) * %d", i, g.refT(in.a), in.elem)
		} else {
			w("i%d := %s", i, g.refInt64(in.a))
			w("j%d := i%d * %d", i, i, in.elem)
			w("if j%d < 0 || j%d+%d > %d {", i, i, in.elem, len(in.table))
			w("\t%s", g.faultRet(fmt.Sprintf("errTable(i%d, %d)", i, len(in.table)/in.elem)))
			w("}")
		}
		parts := make([]string, in.elem)
		for e := 0; e < in.elem; e++ {
			term := fmt.Sprintf("%s(%s[j%d+%d])", T, tab, i, e)
			if e > 0 {
				term += fmt.Sprintf("<<%d", 8*e)
			}
			parts[e] = term
		}
		w("%s := %s", v, strings.Join(parts, " | "))

	case OpTableIn:
		// Stage-input lookup: the table binds at run time (Image.Tbl — a
		// reduction-first pipeline's serialized bins), so the fault guard
		// can never be discharged at generation time.  Splitting the
		// reference tableAt condition (j<0 || j+elem>len) into a reslice
		// at j plus a length branch keeps the semantics — same fault on
		// the same indices, message included — while leaving facts the
		// prove pass actually uses: every t[e] access below is
		// bounds-check free.
		w("i%d := %s", i, g.refInt64(in.a))
		w("j%d := i%d * %d", i, i, in.elem)
		w("if j%d < 0 || j%d > int64(len(tbl)) {", i, i)
		w("\t%s", g.faultRet(fmt.Sprintf("errTable(i%d, len(tbl)/%d)", i, in.elem)))
		w("}")
		w("t%d := tbl[j%d:]", i, i)
		w("if len(t%d) < %d {", i, in.elem)
		w("\t%s", g.faultRet(fmt.Sprintf("errTable(i%d, len(tbl)/%d)", i, in.elem)))
		w("}")
		parts := make([]string, in.elem)
		for e := 0; e < in.elem; e++ {
			term := fmt.Sprintf("%s(t%d[%d])", T, i, e)
			if e > 0 {
				term += fmt.Sprintf("<<%d", 8*e)
			}
			parts[e] = term
		}
		w("%s := %s", v, strings.Join(parts, " | "))

	case OpIntToFP:
		sx, _ := g.sxExpr(in.a, in.sh)
		w("%s := float64(%s)", f, sx)
	case OpFPToInt:
		g.fg.needMath = true
		w("%s := uint64(int64(math.RoundToEven(%s)))%s", v, g.refF(in.a), g.maskSuffix(in.mask))
	case OpFAdd:
		w("%s := %s + %s", f, g.refF(in.a), g.refF(in.b))
	case OpFSub:
		w("%s := %s - %s", f, g.refF(in.a), g.refF(in.b))
	case OpFMul:
		w("%s := %s * %s", f, g.refF(in.a), g.refF(in.b))
	case OpFDiv:
		w("%s := %s / %s", f, g.refF(in.a), g.refF(in.b))
	case OpCall:
		sym, ok := callSyms[in.sym]
		if !ok {
			return fmt.Errorf("op call %q has no Go spelling", in.sym)
		}
		g.fg.needMath = true
		w("%s := %s(%s)", f, sym, g.refF(in.a))

	default:
		return fmt.Errorf("op %v is not generatable", in.op)
	}
	return nil
}

// mask64Suffix renders masking of a uint64 intermediate (used where the
// generated code computes a widening product before narrowing back).
func mask64Suffix(mask uint64) string {
	if mask == ^uint64(0) || mask >= 0xffffffff {
		// The >>32 result fits 32 bits; a 32-bit-or-wider mask is a no-op.
		return ""
	}
	return fmt.Sprintf(" & %#x", mask)
}

// GenerateRuntime emits the fixed runtime half of the generated package:
// the Image geometry, the Kernel driver with reference-exact error
// selection, the ScheduleSpec execution layer (worker row strips and
// sliding-window stage fusion), and the shared error constructors.
func GenerateRuntime(pkg string) string {
	var b strings.Builder
	b.WriteString("// Code generated by \"helium gen\"; DO NOT EDIT.\n\n")
	fmt.Fprintf(&b, `// Package %s holds ahead-of-time Go source regenerated from the
// lifted stencil corpus — the reproduction's analogue of the Halide code
// Helium emits.  It is standalone: nothing here imports the lifting
// pipeline, so the package can be vendored into a host application as the
// drop-in replacement for the legacy filter.
//
// Values, error positions and error messages are bit-identical to the
// helium/internal/ir interpreter and register executors — under every
// ScheduleSpec: a schedule changes only the execution strategy (worker
// count, stage fusion), never the result.  The generator's differential
// tests enforce this with the real toolchain.
package %s

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Image is a flat 8-bit pixel backing: channel c of pixel (x, y) lives at
// Pix[Base + y*Stride + x*PixStep + c*ChanStep].  Planar layouts use
// PixStep 1 and ChanStep 0; interleaved layouts use PixStep = channels
// and ChanStep 1.
type Image struct {
	Pix                             []byte
	Base, Stride, PixStep, ChanStep int
	// Tbl is the bound stage-input table: the serialized bin table of a
	// reduction-first pipeline, which the consuming stages' lookup
	// instructions index at run time.  Nil for every other kernel shape.
	Tbl []byte
}

// RowFunc renders output samples x in [0, n) of one input row y into
// dst[x*step], xbase being the input-x of output sample 0.  It returns
// the first faulting x and its error, or (-1, nil).
type RowFunc func(dst []byte, step int, img *Image, y, xbase, n int) (int, error)

// RowAllFunc renders ALL channels of one output row into the row-major
// row slice dst, returning the first fault in x-then-c order as
// (x, c, err), or (-1, -1, nil).  The generator emits one when a kernel's
// channel programs are structurally identical, so one body serves every
// channel.
type RowAllFunc func(dst []byte, img *Image, y, xbase, n int) (int, int, error)

// ScheduleSpec selects an execution strategy.  The zero value is the
// production default: GOMAXPROCS workers, materializing stage chaining.
type ScheduleSpec struct {
	// Workers is the row-strip worker count; <= 0 means GOMAXPROCS, 1 is
	// the serial reference.
	Workers int
	// Fusion is the inter-stage strategy of multi-stage pipelines:
	// "" or "materialize" computes every stage fully into a fresh
	// intermediate buffer; "slidingWindow" streams the stages through
	// ring buffers sized to the consumer's row footprint.
	Fusion string
	// WindowRows is the ring height under slidingWindow; 0 picks the
	// minimal window, values clamp to [footprint, stage height].
	WindowRows int
	// Stages holds per-stage tile overrides; missing entries mean plain
	// row strips.
	Stages []StageSched
}

// StageSched is one stage's tile override within a ScheduleSpec: the
// stage's output blocks into TileW x TileH cache tiles (0 keeps straight
// row strips).
type StageSched struct {
	TileW, TileH int
}

// stageTile resolves stage i's tile override (0, 0 when unset).
func (s ScheduleSpec) stageTile(i int) (int, int) {
	if i < 0 || i >= len(s.Stages) {
		return 0, 0
	}
	return s.Stages[i].TileW, s.Stages[i].TileH
}

// effWorkers resolves the worker count (<= 0 means GOMAXPROCS).
func (s ScheduleSpec) effWorkers() int {
	if s.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Workers
}

// Serial is the reference schedule: one worker, materializing chaining.
func Serial() ScheduleSpec { return ScheduleSpec{Workers: 1} }

// Kernel is one regenerated stencil kernel.
type Kernel struct {
	Name             string
	Channels         int
	OriginX, OriginY int
	// DefaultWidth and DefaultHeight record the output geometry the
	// kernel was lifted at (the input domain for reductions); Eval
	// accepts any size.
	DefaultWidth, DefaultHeight int
	// LaneBits records the integer width each channel's row loop
	// computes in (8, 16, 32 or 64).
	LaneBits []int
	// Rows holds one row function per channel; RowAll replaces it when
	// the channel programs collapsed into one shared body.
	Rows   []RowFunc
	RowAll RowAllFunc
	// Stages, when non-empty, makes the kernel a multi-stage pipeline:
	// Eval chains the stages and the flat Rows/RowAll fields above are
	// unused.
	Stages []StageSpec
	// Red, when non-nil, makes the kernel a reduction: Eval accumulates
	// over the outW x outH domain (the last stage's output when Stages
	// is non-empty, the input image otherwise) and returns the
	// serialized little-endian bin table.
	Red *ReductionSpec
	// RedFirst reorders a Red+Stages pipeline: the reduction runs FIRST
	// over the input image, its serialized table binds as the stages'
	// table input, and the last stage's pixels are the result.  RedDW and
	// RedDH are the reduction domain extents minus the final output
	// extents.
	RedFirst     bool
	RedDW, RedDH int
	// Sched is the autotuned default schedule (zero when the kernel was
	// generated without one); EvalTuned runs it.
	Sched ScheduleSpec
	// Tuned, when non-nil, is the generated schedule-baked serial driver:
	// the autotuned tile extents are literal constants in its loop nest.
	// EvalTuned dispatches to it when Sched resolves to one worker.
	Tuned func(sc *Scratch, img *Image, outW, outH int) ([]byte, error)
	// FusedStrip, when non-nil, is the generated footprint-specialized
	// sliding-window strip driver; the fused executor dispatches to it at
	// the minimal window instead of the generic ring interpreter.
	FusedStrip FusedStripFunc
}

// FusedStripFunc streams one worker strip of final-stage rows [s0, s1)
// through a fused pipeline, writing each stage's first error (nil for
// clean stages) into errs.
type FusedStripFunc func(sc *Scratch, img *Image, out []byte, ws, hs []int, s0, s1 int, first, drain bool, errs []*rowErr)

// StageSpec is one stage of a multi-stage pipeline.  DW and DH are the
// stage's output extents minus the final extents (the last stage's for
// stencil pipelines, the reduction domain for pipelines ending in a
// reduction), so intermediate buffer sizes track any requested output
// size.  MinDY and MaxDY bound the input rows the stage reads for output
// row y — [y+MinDY, y+MaxDY], origin included — the footprint the
// sliding-window executor sizes its rings with; MinDX and MaxDX are the
// column counterpart, which fusion validates against the producer width.
type StageSpec struct {
	Channels         int
	OriginX, OriginY int
	DW, DH           int
	MinDY, MaxDY     int
	MinDX, MaxDX     int
	LaneBits         []int
	Rows             []RowFunc
	RowAll           RowAllFunc
}

// ReductionSpec is the accumulate-into-table form: Row accumulates one
// input row into the 4-byte bins, which start from Init (nil = all zero).
// Suffix runs a wraparound prefix sum over the bins after accumulation
// (a cumulative histogram) before serialization.
type ReductionSpec struct {
	Bins   int
	Init   []uint32
	Suffix bool
	Row    func(bins []uint32, img *Image, y, n int) (int, error)
}

// Scratch holds the reusable buffers of EvalInto: the output, stage
// intermediates and fused ring planes, the reduction bins, and per-worker
// sub-scratches for the parallel fused path.  A zero Scratch is ready to
// use; buffers grow on demand and persist, so a caller rendering frames
// in a loop reaches a zero-allocation steady state.  Results returned
// through a Scratch alias its buffers and are only valid until its next
// use.
type Scratch struct {
	out   []byte
	bufs  [][]byte
	imgs  []Image
	errs  []*rowErr
	fs    []fusedStage
	dims  []int
	bins  []uint32
	procs []*Scratch
}

// outBuf returns the reusable result buffer at length n.
func (sc *Scratch) outBuf(n int) []byte {
	if cap(sc.out) < n {
		sc.out = make([]byte, n)
	}
	return sc.out[:n:n]
}

// buf returns the i'th reusable plane buffer at length n (stage
// intermediates, fused ring planes).
func (sc *Scratch) buf(i, n int) []byte {
	for len(sc.bufs) <= i {
		sc.bufs = append(sc.bufs, nil)
	}
	if cap(sc.bufs[i]) < n {
		sc.bufs[i] = make([]byte, n)
	}
	return sc.bufs[i][:n:n]
}

// img returns the i'th reusable Image header; headers live inside the
// scratch so handing out their address does not allocate per eval.
func (sc *Scratch) img(i int) *Image {
	for len(sc.imgs) <= i {
		sc.imgs = append(sc.imgs, Image{})
	}
	return &sc.imgs[i]
}

// errSlots returns n cleared per-stage error slots.
func (sc *Scratch) errSlots(n int) []*rowErr {
	if cap(sc.errs) < n {
		sc.errs = make([]*rowErr, n)
	}
	sc.errs = sc.errs[:n]
	for i := range sc.errs {
		sc.errs[i] = nil
	}
	return sc.errs
}

// stages returns n zeroed fusedStage slots.
func (sc *Scratch) stages(n int) []fusedStage {
	if cap(sc.fs) < n {
		sc.fs = make([]fusedStage, n)
	}
	sc.fs = sc.fs[:n]
	for i := range sc.fs {
		sc.fs[i] = fusedStage{}
	}
	return sc.fs
}

// ints returns n reusable ints (the per-stage extent arrays).
func (sc *Scratch) ints(n int) []int {
	if cap(sc.dims) < n {
		sc.dims = make([]int, n)
	}
	return sc.dims[:n]
}

// binsBuf returns the reusable reduction bin table at length n.
func (sc *Scratch) binsBuf(n int) []uint32 {
	if cap(sc.bins) < n {
		sc.bins = make([]uint32, n)
	}
	return sc.bins[:n]
}

/// worker returns worker t's own scratch: the parallel fused path gives
// every strip private ring planes that persist across evals.
func (sc *Scratch) worker(t int) *Scratch {
	for len(sc.procs) <= t {
		sc.procs = append(sc.procs, &Scratch{})
	}
	return sc.procs[t]
}

var registry = map[string]*Kernel{}

func register(k *Kernel) { registry[k.Name] = k }

// Lookup returns the kernel with the given name.
func Lookup(name string) (*Kernel, bool) {
	k, ok := registry[name]
	return k, ok
}

// Kernels lists every registered kernel, ordered by name.
func Kernels() []*Kernel {
	out := make([]*Kernel, 0, len(registry))
	for _, k := range registry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Eval renders an outW x outH output region against img in row-major
// sample order with the serial reference schedule, exactly like the
// lifting pipeline's evaluators: when several channels fault on one row,
// the reported error is the one an x-then-c per-sample scan hits first.
// Multi-stage kernels chain their stages through intermediate buffers;
// reductions treat outW x outH as the domain and return the serialized
// bin table.
func (k *Kernel) Eval(img *Image, outW, outH int) ([]byte, error) {
	return k.EvalSched(img, outW, outH, Serial())
}

// EvalTuned is Eval under the kernel's autotuned default schedule.  When
// the schedule resolves to one worker and the generator baked a serial
// tuned driver, that driver runs instead of the generic dispatch.
func (k *Kernel) EvalTuned(img *Image, outW, outH int) ([]byte, error) {
	return k.EvalTunedInto(new(Scratch), img, outW, outH)
}

// EvalTunedInto is EvalTuned against caller-owned scratch.
func (k *Kernel) EvalTunedInto(sc *Scratch, img *Image, outW, outH int) ([]byte, error) {
	if k.Tuned != nil && k.Sched.effWorkers() == 1 {
		return k.Tuned(sc, img, outW, outH)
	}
	return k.EvalInto(sc, img, outW, outH, k.Sched)
}

// EvalSched is Eval under an explicit schedule.  The output — and any
// reported error, position and message included — is identical to Eval's
// for every valid spec.
func (k *Kernel) EvalSched(img *Image, outW, outH int, spec ScheduleSpec) ([]byte, error) {
	return k.EvalInto(new(Scratch), img, outW, outH, spec)
}

// EvalInto is EvalSched against caller-owned scratch: all working memory
// — including the returned buffer — comes from sc, so repeated calls with
// one scratch allocate nothing in the steady state.  The result aliases
// sc and is only valid until its next use.
func (k *Kernel) EvalInto(sc *Scratch, img *Image, outW, outH int, spec ScheduleSpec) ([]byte, error) {
	switch spec.Fusion {
	case "", "materialize":
	case "slidingWindow":
		if len(k.Stages) < 2 {
			return nil, fmt.Errorf("ir: kernel %%s: slidingWindow fusion needs at least 2 stages, kernel has %%d", k.Name, len(k.Stages))
		}
	default:
		return nil, fmt.Errorf("ir: kernel %%s: unknown fusion strategy %%q", k.Name, spec.Fusion)
	}
	if len(k.Stages) > 0 {
		src := img
		if k.Red != nil && k.RedFirst {
			tbl, err := k.evalReductionInto(sc.buf(len(k.Stages), k.Red.Bins*4), sc, img, outW+k.RedDW, outH+k.RedDH)
			if err != nil {
				return nil, err
			}
			ti := sc.img(len(k.Stages))
			*ti = *img
			ti.Tbl = tbl
			src = ti
		}
		fimg, err := k.evalStages(sc, src, outW, outH, spec)
		if err != nil {
			return nil, err
		}
		if k.Red != nil && !k.RedFirst {
			return k.evalReduction(sc, fimg, outW, outH)
		}
		return fimg.Pix, nil
	}
	if k.Red != nil {
		return k.evalReduction(sc, img, outW, outH)
	}
	out := sc.outBuf(outW * outH * k.Channels)
	var e *rowErr
	if tw, th := spec.stageTile(0); tw > 0 || th > 0 {
		e = evalTiled(out, img, k.Channels, k.OriginX, k.OriginY, outW, outH, tw, th, spec.Workers, k.Rows, k.RowAll)
	} else {
		e = evalStrips(out, img, k.Channels, k.OriginX, k.OriginY, outW, 0, outH, spec.Workers, k.Rows, k.RowAll)
	}
	if e != nil {
		return nil, fmt.Errorf("ir: kernel %%s at (%%d,%%d,%%d): %%w", k.Name, e.x, e.y, e.c, e.err)
	}
	return out, nil
}

// rowErr is one row range's first failure in scan order.
type rowErr struct {
	y, x, c int
	err     error
}

// before orders failures by the serial per-sample scan: row-major, then
// x, then channel.
func (e *rowErr) before(o *rowErr) bool {
	if e.y != o.y {
		return e.y < o.y
	}
	if e.x != o.x {
		return e.x < o.x
	}
	return e.c < o.c
}

// runRow renders one output row with the reference x-then-c error
// selection; dst is the row-major row slice.
func runRow(dst []byte, img *Image, channels, originX, originY, y, outW int, rows []RowFunc, rowAll RowAllFunc) *rowErr {
	if rowAll != nil {
		x, c, err := rowAll(dst, img, y+originY, originX, outW)
		if err != nil {
			return &rowErr{y: y, x: x, c: c, err: err}
		}
		return nil
	}
	errX, errC := -1, -1
	var firstErr error
	for c, row := range rows {
		x, err := row(dst[c:], channels, img, y+originY, originX, outW)
		if err != nil && (errX < 0 || x < errX) {
			errX, errC, firstErr = x, c, err
		}
	}
	if firstErr != nil {
		return &rowErr{y: y, x: errX, c: errC, err: firstErr}
	}
	return nil
}

// evalRowsRange renders output rows [y0, y1) into out (the full
// row-major buffer), returning the range's scan-order-first failure.
func evalRowsRange(out []byte, img *Image, channels, originX, originY, outW, y0, y1 int, rows []RowFunc, rowAll RowAllFunc) *rowErr {
	for y := y0; y < y1; y++ {
		if e := runRow(out[y*outW*channels:], img, channels, originX, originY, y, outW, rows, rowAll); e != nil {
			return e
		}
	}
	return nil
}

// evalStrips renders output rows [y0, y1) split across workers.  Every
// strip renders (no early abort) and the scan-order-minimum failure is
// reported, so the result — values and error — matches the serial scan
// for every worker count.
func evalStrips(out []byte, img *Image, channels, originX, originY, outW, y0, y1, workers int, rows []RowFunc, rowAll RowAllFunc) *rowErr {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > y1-y0 {
		workers = y1 - y0
	}
	if workers <= 1 {
		return evalRowsRange(out, img, channels, originX, originY, outW, y0, y1, rows, rowAll)
	}
	errs := make([]*rowErr, workers)
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		// Strip bounds are computed here and passed by value: a goroutine
		// capturing a reassigned variable (workers is clamped above) moves
		// it to the heap at FUNCTION entry, charging the serial path an
		// allocation per call it never uses.
		s0 := y0 + t*(y1-y0)/workers
		s1 := y0 + (t+1)*(y1-y0)/workers
		wg.Add(1)
		go func(t, s0, s1 int) {
			defer wg.Done()
			errs[t] = evalRowsRange(out, img, channels, originX, originY, outW, s0, s1, rows, rowAll)
		}(t, s0, s1)
	}
	wg.Wait()
	var best *rowErr
	for _, e := range errs {
		if e != nil && (best == nil || e.before(best)) {
			best = e
		}
	}
	return best
}

// runTile renders one output tile (tx, ty, tw, th) row by row, returning
// the tile's scan-order-first failure with coordinates rebased to the
// full output.
func runTile(out []byte, img *Image, channels, originX, originY, outW, tx, ty, tw, th int, rows []RowFunc, rowAll RowAllFunc) *rowErr {
	for y := ty; y < ty+th; y++ {
		if e := runRow(out[(y*outW+tx)*channels:], img, channels, originX+tx, originY, y, tw, rows, rowAll); e != nil {
			e.x += tx
			return e
		}
	}
	return nil
}

// renderTileBands renders tile bands [b0, b1) of a tileW x tileH blocking
// and returns the scan-order-first failure.  Tiles within a band share the
// row range, so a band's first erroring tile in tx order is NOT
// necessarily scan-first — every tile's error is min-merged.
func renderTileBands(out []byte, img *Image, channels, originX, originY, outW, outH, tileW, tileH, b0, b1 int, rows []RowFunc, rowAll RowAllFunc) *rowErr {
	var best *rowErr
	for b := b0; b < b1; b++ {
		ty := b * tileH
		th := outH - ty
		if th > tileH {
			th = tileH
		}
		for tx := 0; tx < outW; tx += tileW {
			tw := outW - tx
			if tw > tileW {
				tw = tileW
			}
			if e := runTile(out, img, channels, originX, originY, outW, tx, ty, tw, th, rows, rowAll); e != nil && (best == nil || e.before(best)) {
				best = e
			}
		}
	}
	return best
}

// evalTiled renders the output through a cache-blocked tileW x tileH loop
// nest — the schedule's literal tile extents — splitting tile bands over
// workers.  Values and the reported error match evalStrips exactly.
func evalTiled(out []byte, img *Image, channels, originX, originY, outW, outH, tileW, tileH, workers int, rows []RowFunc, rowAll RowAllFunc) *rowErr {
	if tileW <= 0 || tileW > outW {
		tileW = outW
	}
	if tileH <= 0 || tileH > outH {
		tileH = outH
	}
	if outW <= 0 || outH <= 0 {
		return nil
	}
	bands := (outH + tileH - 1) / tileH
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > bands {
		workers = bands
	}
	if workers <= 1 {
		return renderTileBands(out, img, channels, originX, originY, outW, outH, tileW, tileH, 0, bands, rows, rowAll)
	}
	errs := make([]*rowErr, workers)
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		// Band bounds and the clamped tile extents travel as arguments:
		// capturing reassigned variables (workers, tileW, tileH above)
		// would heap-allocate them at function entry, on the serial path
		// too.
		b0 := t * bands / workers
		b1 := (t + 1) * bands / workers
		wg.Add(1)
		go func(t, tw, th, b0, b1 int) {
			defer wg.Done()
			errs[t] = renderTileBands(out, img, channels, originX, originY, outW, outH, tw, th, b0, b1, rows, rowAll)
		}(t, tileW, tileH, b0, b1)
	}
	wg.Wait()
	var best *rowErr
	for _, e := range errs {
		if e != nil && (best == nil || e.before(best)) {
			best = e
		}
	}
	return best
}

// evalStages chains the pipeline under the schedule and returns the last
// stage's output as an image (the reduction driver's input when the
// kernel ends in one).  Every stage renders at the requested output size
// shifted by its recorded extent deltas.
func (k *Kernel) evalStages(sc *Scratch, img *Image, outW, outH int, spec ScheduleSpec) (*Image, error) {
	n := len(k.Stages)
	dims := sc.ints(2 * n)
	ws, hs := dims[:n:n], dims[n:]
	for si := range k.Stages {
		st := &k.Stages[si]
		ws[si], hs[si] = outW+st.DW, outH+st.DH
		if ws[si] <= 0 || hs[si] <= 0 {
			return nil, fmt.Errorf("ir: kernel %%s stage %%d extent %%dx%%d is empty", k.Name, si, ws[si], hs[si])
		}
	}
	if spec.Fusion == "slidingWindow" {
		return k.evalStagesFused(sc, img, ws, hs, spec)
	}
	cur := img
	for si := range k.Stages {
		st := &k.Stages[si]
		w, h := ws[si], hs[si]
		out := sc.buf(si, w*h*st.Channels)
		var e *rowErr
		if tw, th := spec.stageTile(si); tw > 0 || th > 0 {
			e = evalTiled(out, cur, st.Channels, st.OriginX, st.OriginY, w, h, tw, th, spec.Workers, st.Rows, st.RowAll)
		} else {
			e = evalStrips(out, cur, st.Channels, st.OriginX, st.OriginY, w, 0, h, spec.Workers, st.Rows, st.RowAll)
		}
		if e != nil {
			return nil, fmt.Errorf("ir: kernel %%s stage %%d at (%%d,%%d,%%d): %%w", k.Name, si, e.x, e.y, e.c, e.err)
		}
		ni := sc.img(si)
		*ni = Image{Pix: out, Stride: w * st.Channels, PixStep: st.Channels, ChanStep: 1, Tbl: cur.Tbl}
		cur = ni
	}
	return cur, nil
}

// fusedStage is one stage's streaming state within one worker strip of
// the sliding-window executor.
type fusedStage struct {
	st   *StageSpec
	w, h int
	in   *Image // the image this stage reads
	// Ring buffer of this stage's output (nil for the final stage).
	ring             []byte
	stride           int
	ringRows, winOut int
	yBase            int
	ringImg          Image // what the consumer reads; Base tracks yBase
	cursor, hi       int
	alive            bool
	fe               *rowErr
}

// evalStagesFused streams the pipeline: a producer stage computes only
// the rows its consumer still needs, ring-buffered, so no full-size
// intermediate plane is ever allocated.  Worker strips split the final
// rows and recompute their halo rows independently; per-stage errors
// merge to the scan-order first, and the earliest erroring stage wins —
// exactly the materializing executor's reporting.
func (k *Kernel) evalStagesFused(sc *Scratch, img *Image, ws, hs []int, spec ScheduleSpec) (*Image, error) {
	n := len(k.Stages)
	for si := 1; si < n; si++ {
		st := &k.Stages[si]
		if k.Stages[si-1].Channels != 1 {
			return nil, fmt.Errorf("ir: kernel %%s: only planar single-channel intermediates stream (stage %%d has %%d channels)", k.Name, si-1, k.Stages[si-1].Channels)
		}
		if st.MinDY < 0 || hs[si]-1+st.MaxDY >= hs[si-1] {
			return nil, fmt.Errorf("ir: kernel %%s stage %%d reads rows [%%d,%%d], outside its %%d-row producer", k.Name, si, st.MinDY, hs[si]-1+st.MaxDY, hs[si-1])
		}
		if st.MinDX < 0 || ws[si]-1+st.MaxDX >= ws[si-1] {
			// A horizontal overread wraps differently in a ring than in a
			// full plane; erroring keeps fusion result-identical or loud.
			return nil, fmt.Errorf("ir: kernel %%s stage %%d reads columns [%%d,%%d], outside its %%d-column producer", k.Name, si, st.MinDX, ws[si]-1+st.MaxDX, ws[si-1])
		}
	}
	last := n - 1
	out := sc.outBuf(ws[last] * hs[last] * k.Stages[last].Channels)
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	strips := workers
	if strips > hs[last] {
		strips = hs[last]
	}
	if strips < 1 {
		strips = 1
	}
	// The generated footprint-specialized strip driver replaces the
	// generic ring dispatch only at the minimal window (an explicit
	// WindowRows widens the ring, which the baked body does not model).
	gen := k.FusedStrip != nil && spec.WindowRows == 0
	if strips == 1 {
		errs := sc.errSlots(n)
		if gen {
			k.FusedStrip(sc, img, out, ws, hs, 0, hs[last], true, true, errs)
		} else {
			k.fusedStrip(sc, img, out, ws, hs, spec.WindowRows, 0, hs[last], true, true, errs)
		}
		for si := 0; si < n; si++ {
			if e := errs[si]; e != nil {
				return nil, fmt.Errorf("ir: kernel %%s stage %%d at (%%d,%%d,%%d): %%w", k.Name, si, e.x, e.y, e.c, e.err)
			}
		}
		ri := sc.img(n - 1)
		*ri = Image{Pix: out, Stride: ws[last] * k.Stages[last].Channels, PixStep: k.Stages[last].Channels, ChanStep: 1}
		return ri, nil
	}
	stripErrs := make([][]*rowErr, strips)
	var wg sync.WaitGroup
	for t := 0; t < strips; t++ {
		wsc := sc.worker(t)
		se := wsc.errSlots(n)
		stripErrs[t] = se
		// Strip bounds and the first/drain roles travel as arguments so
		// the goroutine never captures strips (reassigned above) — a
		// reassigned capture is heap-moved at function entry, charging the
		// single-strip path an allocation per call.
		s0 := t * hs[last] / strips
		s1 := (t + 1) * hs[last] / strips
		first, drain := t == 0, t == strips-1
		wg.Add(1)
		go func(wsc *Scratch, se []*rowErr, s0, s1 int, first, drain bool) {
			defer wg.Done()
			if gen {
				k.FusedStrip(wsc, img, out, ws, hs, s0, s1, first, drain, se)
			} else {
				k.fusedStrip(wsc, img, out, ws, hs, spec.WindowRows, s0, s1, first, drain, se)
			}
		}(wsc, se, s0, s1, first, drain)
	}
	wg.Wait()
	for si := 0; si < n; si++ {
		var best *rowErr
		for _, se := range stripErrs {
			if se[si] != nil && (best == nil || se[si].before(best)) {
				best = se[si]
			}
		}
		if best != nil {
			return nil, fmt.Errorf("ir: kernel %%s stage %%d at (%%d,%%d,%%d): %%w", k.Name, si, best.x, best.y, best.c, best.err)
		}
	}
	ri := sc.img(n - 1)
	*ri = Image{Pix: out, Stride: ws[last] * k.Stages[last].Channels, PixStep: k.Stages[last].Channels, ChanStep: 1}
	return ri, nil
}

// fusedStrip streams final-stage rows [s0, s1) through the chain and
// returns each stage's first error (nil entries for clean stages).  The
// first and drain strips also produce the producer rows no consumer row
// pulls — below and above the consumers' summed footprint — because the
// materializing chain computes every producer row and an error in one of
// them must not be lost.
func (k *Kernel) fusedStrip(sc *Scratch, img *Image, out []byte, ws, hs []int, windowRows, s0, s1 int, first, drain bool, errs []*rowErr) {
	n := len(k.Stages)
	fs := sc.stages(n)
	fs[n-1].cursor, fs[n-1].hi = s0, s1
	for i := n - 2; i >= 0; i-- {
		st := &k.Stages[i+1]
		lo := fs[i+1].cursor + st.MinDY
		if lo < 0 || first {
			lo = 0
		}
		hi := fs[i+1].hi + st.MaxDY
		if hi > hs[i] || drain {
			hi = hs[i]
		}
		fs[i].cursor, fs[i].hi = lo, hi
	}
	for i := range fs {
		s := &fs[i]
		s.st = &k.Stages[i]
		s.w, s.h = ws[i], hs[i]
		s.alive = true
		if i < n-1 {
			win := k.Stages[i+1].MaxDY - k.Stages[i+1].MinDY + 1
			rows := windowRows
			if rows < win {
				rows = win
			}
			if rows > hs[i] {
				rows = hs[i]
			}
			s.winOut, s.ringRows = win, rows
			s.stride = ws[i] // intermediates are planar single-channel
			s.ring = sc.buf(i, rows*s.stride)
			s.yBase = s.cursor
			s.ringImg = Image{Pix: s.ring, Base: -s.yBase * s.stride, Stride: s.stride, PixStep: 1, Tbl: img.Tbl}
		}
	}
	fs[0].in = img
	for i := 1; i < n; i++ {
		fs[i].in = &fs[i-1].ringImg
	}
	for fs[n-1].alive && fs[n-1].cursor < fs[n-1].hi {
		fusedProduce(fs, out, n-1)
	}
	for i := n - 2; i >= 0; i-- {
		for fs[i].alive && fs[i].cursor < fs[i].hi {
			fusedProduce(fs, out, i)
		}
	}
	for i := range fs {
		errs[i] = fs[i].fe
	}
}

// fusedProduce computes the current row of stage i, pulling the producer
// rows it needs first.  Stages stop at their first error; a stage whose
// producer died stops without an error of its own (the producer's
// dominates).
func fusedProduce(fs []fusedStage, out []byte, i int) {
	s := &fs[i]
	y := s.cursor
	if i > 0 {
		p := &fs[i-1]
		top := y + s.st.MaxDY
		for p.alive && p.cursor <= top && p.cursor < p.hi {
			fusedProduce(fs, out, i-1)
		}
		if !p.alive {
			s.alive = false
			return
		}
	}
	var dst []byte
	if i == len(fs)-1 {
		dst = out[y*s.w*s.st.Channels:]
	} else {
		ph := y - s.yBase
		if ph >= s.ringRows {
			// Recycle: slide the last winOut-1 rows (still needed by the
			// consumer) to the top and move the consumer's view so logical
			// row numbers stay put.
			shift := s.ringRows - (s.winOut - 1)
			copy(s.ring, s.ring[shift*s.stride:s.ringRows*s.stride])
			s.yBase += shift
			s.ringImg.Base = -s.yBase * s.stride
			ph = y - s.yBase
		}
		dst = s.ring[ph*s.stride:]
	}
	if e := runRow(dst, s.in, s.st.Channels, s.st.OriginX, s.st.OriginY, y, s.w, s.st.Rows, s.st.RowAll); e != nil {
		s.alive = false
		s.fe = e
		return
	}
	s.cursor++
}

// evalReduction accumulates over the domW x domH input domain and
// serializes the 4-byte bins little-endian.  The bin updates commute but
// error detection is a scan, so reduction rows always run serially.
func (k *Kernel) evalReduction(sc *Scratch, img *Image, domW, domH int) ([]byte, error) {
	// Accumulation over img completes inside evalReductionInto before the
	// serialization writes, so the shared output buffer is a safe target
	// even when a fused pipeline made img alias it.
	return k.evalReductionInto(sc.outBuf(k.Red.Bins*4), sc, img, domW, domH)
}

// evalReductionInto is evalReduction serializing into a caller-chosen
// buffer — the reduction-first path banks the table in a stage slot so
// the output buffer stays free for the consuming stages' pixels.
func (k *Kernel) evalReductionInto(out []byte, sc *Scratch, img *Image, domW, domH int) ([]byte, error) {
	r := k.Red
	bins := sc.binsBuf(r.Bins)
	clear(bins)
	copy(bins, r.Init)
	for y := 0; y < domH; y++ {
		if x, err := r.Row(bins, img, y, domW); err != nil {
			return nil, fmt.Errorf("ir: kernel %%s at (%%d,%%d): %%w", k.Name, x, y, err)
		}
	}
	if r.Suffix {
		var run uint32
		for i := range bins {
			run += bins[i]
			bins[i] = run
		}
	}
	for i, v := range bins {
		out[i*4] = byte(v)
		out[i*4+1] = byte(v >> 8)
		out[i*4+2] = byte(v >> 16)
		out[i*4+3] = byte(v >> 24)
	}
	return out, nil
}

// spanIn reports whether the whole index span [lo, hi] lies inside a
// backing of the given length — the hoisted bounds check of the row loops.
func spanIn(lo, hi, length int) bool {
	return lo >= 0 && hi < length
}

// floorDiv divides rounding toward negative infinity — the division the
// fractional affine index maps are defined with.
func floorDiv(a, b int) int {
	q := a / b
	if a%%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func errDivZero() error { return fmt.Errorf("ir: division by zero") }
func errModZero() error { return fmt.Errorf("ir: modulo by zero") }
func errTable(idx int64, n int) error {
	return fmt.Errorf("ir: table index %%d out of range (%%d elements)", idx, n)
}
func errLoad(x, y, c int) error {
	return fmt.Errorf("ir: compiled load at (%%d,%%d,%%d) outside the pixel backing", x, y, c)
}
func errRedIndex(idx int64, bins int) error {
	return fmt.Errorf("ir: reduction index %%d out of range (%%d bins)", idx, bins)
}
`, pkg, pkg)
	formatted, err := format.Source([]byte(b.String()))
	if err != nil {
		panic(fmt.Sprintf("ir: runtime template does not parse: %v", err))
	}
	return string(formatted)
}

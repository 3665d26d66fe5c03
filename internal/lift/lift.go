package lift

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"helium/internal/faultpoint"
	"helium/internal/image"
	"helium/internal/ir"
	"helium/internal/liftedkernels"
	"helium/internal/trace"
	"helium/internal/vm"
)

// fpCorruptInput corrupts the reconstructed input stride, modeling a
// buffer-reconstruction bug; downstream extraction or verification must
// turn it into a typed rejection, never a wrong answer.  (The stride, not
// the base: the base is only the geometry's frame of reference, and a
// pure shift stays self-consistent end to end.)
var fpCorruptInput = faultpoint.Register("lift.corrupt-input",
	"corrupt the reconstructed input stride to break buffer geometry")

// Result is the outcome of the full lifting pipeline.
type Result struct {
	// Loc is the code localization outcome.
	Loc *Localization
	// Bufs holds the first-stage input and final-stage output geometries.
	Bufs *Buffers
	// Stages is the lifted filter pipeline in execution order; single-pass
	// filters have exactly one stage.
	Stages []Stage
	// Kernel is the final stage's stencil kernel (nil when the filter ends
	// in a reduction).
	Kernel *ir.Kernel
	// Reduction is the final stage's reduction (nil for stencil filters).
	Reduction *ir.Reduction
	// Dump is the memory dump captured alongside the instruction trace; it
	// holds both the pristine input pages and the final output pages, so
	// verification needs no further VM runs.
	Dump *trace.MemDump
	// TraceInsts and TraceSteps count the captured dynamic instructions
	// and total executed instructions of the trace run.
	TraceInsts int
	TraceSteps uint64
	// Samples is the number of output samples whose trees were extracted
	// (domain pixels for reductions), summed over stages.
	Samples int
	// PhaseTimes holds the accumulated wall time per pipeline phase, in
	// execution order of first occurrence.  Lift fills the analysis
	// phases; Verify, Compile and VerifyCompiled accumulate onto it as
	// they run.  Not safe for concurrent mutation — callers drive the
	// pipeline sequentially.
	PhaseTimes []PhaseTime
}

// PhaseTime is one pipeline phase's measured wall-clock span.
type PhaseTime struct {
	Phase Phase
	Dur   time.Duration
}

// addSpan accumulates d into the phase's span in a span list.
func addSpan(spans []PhaseTime, p Phase, d time.Duration) []PhaseTime {
	for i := range spans {
		if spans[i].Phase == p {
			spans[i].Dur += d
			return spans
		}
	}
	return append(spans, PhaseTime{Phase: p, Dur: d})
}

// addPhase accumulates d into the result's span for phase p.
func (r *Result) addPhase(p Phase, d time.Duration) {
	r.PhaseTimes = addSpan(r.PhaseTimes, p, d)
}

// PhaseDur returns the accumulated wall time of one phase (zero when the
// phase never ran).
func (r *Result) PhaseDur(p Phase) time.Duration {
	for _, pt := range r.PhaseTimes {
		if pt.Phase == p {
			return pt.Dur
		}
	}
	return 0
}

// Lift runs the whole pipeline against a target: localize the filter by
// coverage diffing, capture a detailed instruction trace of it (during
// the localization on-run, or in a run of its own when the on-run
// captured another candidate), discover the stage structure from the
// written regions, rebuild each stage's buffer geometry, extract one
// expression tree per output sample, and canonicalize the trees.  Lifting
// succeeds only if, per channel and stage, every output sample
// canonicalized to one tree — or to a family of predicated trees whose
// branch guards merge into a single select tree (the paper's test that
// unrolled, peeled, tiled and branch-diverged copies really collapsed to
// one stencil).
func Lift(name string, t Target) (*Result, error) {
	var spans []PhaseTime
	t0 := time.Now()
	loc, capt, onDur, err := localize(t)
	spans = addSpan(spans, PhaseLocalize, time.Since(t0)-onDur)
	spans = addSpan(spans, PhaseTrace, onDur)
	if err != nil {
		return nil, err
	}

	// The on-run captured the first candidate it called.  When that is the
	// localized filter, its capture is the trace run; otherwise trace the
	// filter in a run of its own.
	var tres *vm.TraceResult
	if capt != nil && capt.Entry == loc.FilterEntry {
		tres, err = capt.Trace, capt.Err
	} else {
		m := vm.NewMachine(t.Prog)
		t.Setup(m, true)
		t0 = time.Now()
		tres, err = m.RunTrace(vm.TraceOptions{
			FilterEntry:   loc.FilterEntry,
			MaxSteps:      t.MaxSteps,
			MaxTraceInsts: t.MaxTraceInsts,
		})
		spans = addSpan(spans, PhaseTrace, time.Since(t0))
	}
	if err != nil {
		return nil, reject(PhaseTrace, fmt.Errorf("lift: trace run: %w", err))
	}
	if tres.FilterCalls == 0 {
		return nil, reject(PhaseTrace, fmt.Errorf("lift: localized filter %#x was never entered during tracing", loc.FilterEntry))
	}

	t0 = time.Now()
	in0, err := locateInput(t.Known, tres.Dump)
	spans = addSpan(spans, PhaseBuffers, time.Since(t0))
	if err != nil {
		return nil, reject(PhaseBuffers, err)
	}
	if faultpoint.Enabled(fpCorruptInput) {
		in0.Stride++
	}
	t0 = time.Now()
	regions, err := stageRegions(loc.MemTrace)
	spans = addSpan(spans, PhaseStages, time.Since(t0))
	if err != nil {
		return nil, reject(PhaseStages, err)
	}
	if len(regions) > 1 && t.Known.Interleaved {
		return nil, reject(PhaseStages, fmt.Errorf("lift: filter writes %d regions; multi-stage lifting supports planar layouts only", len(regions)))
	}

	stages := make([]Stage, 0, len(regions))
	curIn := *in0
	samples := 0
	var tbl *TableDesc
	for i, reg := range regions {
		stageName := name
		if len(regions) > 1 {
			stageName = fmt.Sprintf("%s#%d", name, i)
		}
		if reg.maxWrites >= 2 {
			// Bytes rewritten during the filter are accumulator slots, not
			// image samples (stencil outputs are stored exactly once).
			if tbl != nil {
				return nil, reject(PhaseStages, fmt.Errorf("lift: filter builds two accumulator tables (at %#x and %#x); only one reduction stage is liftable", tbl.Base, reg.addrs[0]))
			}
			t0 = time.Now()
			red, out, lastW, err := recognizeReduction(stageName, tres.Trace, t.Prog, curIn, reg, t.Known)
			spans = addSpan(spans, PhaseReduction, time.Since(t0))
			if err != nil {
				return nil, reject(PhaseReduction, err)
			}
			stages = append(stages, Stage{Red: red, In: curIn, Out: *out})
			samples += red.DomW * red.DomH
			if i != len(regions)-1 {
				// A non-final reduction's finished table feeds the later
				// stages as a stage input; the image input stays as-is.
				tbl = &TableDesc{Base: out.Base, Size: out.RowBytes, Elem: red.Elem, LastWrite: lastW}
			}
			continue
		}

		t0 = time.Now()
		out, err := regionGeometry(reg.addrs, t.Known)
		spans = addSpan(spans, PhaseBuffers, time.Since(t0))
		if err != nil {
			return nil, reject(PhaseBuffers, err)
		}
		bufs := &Buffers{In: curIn, Out: *out, Tbl: tbl}
		t0 = time.Now()
		trees, err := Extract(tres.Trace, t.Prog, bufs)
		spans = addSpan(spans, PhaseExtract, time.Since(t0))
		if err != nil {
			return nil, reject(PhaseExtract, err)
		}
		var canonDur time.Duration
		t0 = time.Now()
		kernel, err := unify(stageName, bufs, trees, &canonDur)
		if err != nil {
			// The per-output trees differing by a translation is the
			// signature of a resize loop: retry the stage as an affine-map
			// stencil before giving up.
			ak, aerr := liftAffine(stageName, tres.Trace, t.Prog, bufs)
			if aerr != nil {
				return nil, reject(PhaseUnify, fmt.Errorf("%w (affine retry: %v)", err, aerr))
			}
			kernel = ak
		}
		spans = addSpan(spans, PhaseUnify, time.Since(t0)-canonDur)
		spans = addSpan(spans, PhaseCanon, canonDur)
		if i > 0 && stages[i-1].Red == nil {
			if err := checkStageFootprint(kernel, stages[i-1].Out); err != nil {
				return nil, reject(PhaseUnify, err)
			}
		}
		stages = append(stages, Stage{Kernel: kernel, In: curIn, Out: *out})
		samples += len(trees)
		tbl = nil
		curIn = stageInput(*out, t.Known.Interleaved)
	}

	last := &stages[len(stages)-1]
	return &Result{
		Loc:        loc,
		Bufs:       &Buffers{In: *in0, Out: last.Out},
		Stages:     stages,
		Kernel:     last.Kernel,
		Reduction:  last.Red,
		Dump:       tres.Dump,
		TraceInsts: tres.Trace.Len(),
		TraceSteps: tres.Steps,
		Samples:    samples,
		PhaseTimes: spans,
	}, nil
}

// guardVal is one condition's observed outcome within a tree group.
type guardVal struct {
	cond  *ir.Expr
	taken bool
}

// gtree is one group of samples that canonicalized to the same expression
// under the same branch-guard assignment.
type gtree struct {
	expr   *ir.Expr
	guards map[string]guardVal
	count  int
}

// groupKey renders a group's identity: the canonical expression key plus
// the sorted guard assignment.
func groupKey(exprKey string, guards map[string]guardVal) string {
	keys := make([]string, 0, len(guards))
	for k := range guards {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(exprKey)
	for _, k := range keys {
		b.WriteString("|")
		b.WriteString(k)
		if guards[k].taken {
			b.WriteString("=T")
		} else {
			b.WriteString("=F")
		}
	}
	return b.String()
}

// groupSig identifies a sample's tree group without rendering strings:
// the key class of its canonical root plus its guard assignment, each
// guard as its condition's key class with the outcome in the low bit,
// sorted so the order branches executed in does not matter.
type groupSig struct {
	root   int32
	n      int32
	guards [maxGuards]int32
}

// unify canonicalizes all sample trees, merges predicated families into
// select trees, demands a single tree per channel, and assembles the
// lifted kernel with stencil offsets centered on the input pixel
// corresponding to each output pixel.  The stage's trees are interned in
// one table, so canonicalization runs once per distinct node and samples
// group by the interned identity of their canonical root and guards.
func unify(name string, bufs *Buffers, trees []SampleTree, canonDur *time.Duration) (*ir.Kernel, error) {
	t := newExprTable()
	if testHookTable != nil {
		defer testHookTable("unify", t)
	}
	tc := time.Now()
	roots := make([]*ir.Expr, len(trees))
	for i := range trees {
		roots[i] = t.canon(t.adopt(trees[i].Expr))
	}
	*canonDur += time.Since(tc)

	channels := bufs.Out.Channels
	groups := make([]map[groupSig]*gtree, channels)
	for c := range groups {
		groups[c] = make(map[groupSig]*gtree)
	}
	for i := range trees {
		st := &trees[i]
		sig := groupSig{root: t.class(roots[i]), n: int32(len(st.Guards))}
		for j, g := range st.Guards {
			sig.guards[j] = t.class(t.adopt(g.Cond)) << 1
			if g.Taken {
				sig.guards[j] |= 1
			}
		}
		slices.Sort(sig.guards[:sig.n])
		g := groups[st.C][sig]
		if g == nil {
			guards := make(map[string]guardVal, len(st.Guards))
			for _, gd := range st.Guards {
				guards[gd.Key] = guardVal{cond: t.adopt(gd.Cond), taken: gd.Taken}
			}
			g = &gtree{expr: roots[i], guards: guards}
			groups[st.C][sig] = g
		}
		g.count++
	}

	reps := make([]*ir.Expr, channels)
	for c, gm := range groups {
		byKey := make(map[string]*gtree, len(gm))
		keys := make([]string, 0, len(gm))
		for _, g := range gm {
			k := groupKey(t.key(g.expr), g.guards)
			byKey[k] = g
			keys = append(keys, k)
		}
		sort.Strings(keys)
		gs := make([]*gtree, len(keys))
		for i, k := range keys {
			gs[i] = byKey[k]
		}
		merged, err := mergeGroups(t, gs)
		if err != nil {
			return nil, fmt.Errorf("lift: channel %d: %w", c, err)
		}
		tc := time.Now()
		reps[c] = t.canon(merged)
		*canonDur += time.Since(tc)
	}

	// Center the stencil: shift all load offsets so the output pixel sits
	// at the middle of the taps' bounding box, and record the shift as the
	// kernel's input origin.  The shifted trees are detached copies, one
	// per channel: interned nodes are shared and never mutated.
	minX, maxX, minY, maxY := 0, 0, 0, 0
	first := true
	for _, r := range reps {
		visitLoads(r, func(l *ir.Expr) {
			if first {
				minX, maxX, minY, maxY = l.DX, l.DX, l.DY, l.DY
				first = false
				return
			}
			minX, maxX = min(minX, l.DX), max(maxX, l.DX)
			minY, maxY = min(minY, l.DY), max(maxY, l.DY)
		})
	}
	ox := (minX + maxX) / 2
	oy := (minY + maxY) / 2
	for c, r := range reps {
		reps[c] = t.shift(r, ox, oy).Clone()
	}

	return &ir.Kernel{
		Name:      name,
		OutWidth:  bufs.Out.Width(),
		OutHeight: bufs.Out.Rows,
		Channels:  channels,
		OriginX:   ox,
		OriginY:   oy,
		Trees:     reps,
	}, nil
}

// mergeGroups collapses a family of guarded tree groups into one
// expression, built through the stage's table.  A single unguarded group
// is the classic fully-collapsed case.  Otherwise the most widely
// observed condition splits the family: groups that took the branch go to
// the select's true arm, groups that fell through go to the false arm,
// and groups that never consulted the condition (their path decided it
// away, for example by clamping to a constant first) are valid under
// either outcome and join both sides.  When every deciding group agrees on
// one outcome the condition never diverged on this input; it is dropped,
// and the bit-exact differential verification downstream gates the
// elision.
func mergeGroups(t *exprTable, groups []*gtree) (*ir.Expr, error) {
	groups = dedupeGroups(t, groups)
	bare := true
	for _, g := range groups {
		if len(g.guards) > 0 {
			bare = false
			break
		}
	}
	if bare {
		if len(groups) == 1 {
			return groups[0].expr, nil
		}
		counts := make([]int, 0, len(groups))
		for _, g := range groups {
			counts = append(counts, g.count)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		return nil, fmt.Errorf("trees did not collapse: %d distinct canonical trees (counts %v)", len(groups), counts)
	}

	// Split on the condition observed by the most groups (ties break to
	// the smallest key, keeping the merge deterministic).
	seen := map[string]int{}
	for _, g := range groups {
		for k := range g.guards {
			seen[k]++
		}
	}
	best := ""
	for k, n := range seen {
		if best == "" || n > seen[best] || (n == seen[best] && k < best) {
			best = k
		}
	}
	var cond *ir.Expr
	var tg, fg []*gtree
	ambiguous := 0
	for _, g := range groups {
		gv, ok := g.guards[best]
		if !ok {
			tg = append(tg, stripGuard(g, best))
			fg = append(fg, stripGuard(g, best))
			ambiguous++
			continue
		}
		cond = gv.cond
		if gv.taken {
			tg = append(tg, stripGuard(g, best))
		} else {
			fg = append(fg, stripGuard(g, best))
		}
	}
	if len(tg) == ambiguous || len(fg) == ambiguous {
		// The branch went the same way for every sample that reached it:
		// the unobserved side cannot be reconstructed, so the condition is
		// elided (it holds on every observed sample).
		all := make([]*gtree, 0, len(groups))
		for _, g := range groups {
			all = append(all, stripGuard(g, best))
		}
		return mergeGroups(t, all)
	}
	tv, err := mergeGroups(t, tg)
	if err != nil {
		return nil, err
	}
	fv, err := mergeGroups(t, fg)
	if err != nil {
		return nil, err
	}
	return t.node(ir.Expr{Op: ir.OpSelect}, cond, tv, fv), nil
}

// stripGuard copies a group without the given condition key.
func stripGuard(g *gtree, key string) *gtree {
	out := &gtree{expr: g.expr, count: g.count, guards: make(map[string]guardVal, len(g.guards))}
	for k, v := range g.guards {
		if k != key {
			out.guards[k] = v
		}
	}
	return out
}

// dedupeGroups merges groups that became identical after guard stripping
// (duplicated ambiguous groups meeting again on one side of a split).
func dedupeGroups(t *exprTable, groups []*gtree) []*gtree {
	byKey := make(map[string]*gtree)
	var keys []string
	for _, g := range groups {
		k := groupKey(t.key(g.expr), g.guards)
		if prev, ok := byKey[k]; ok {
			prev.count += g.count
			continue
		}
		byKey[k] = g
		keys = append(keys, k)
	}
	out := make([]*gtree, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// visitLoads calls fn once per distinct load node.  The visited-set makes
// shared-subexpression DAGs (which the extractor's memo and the
// expression tables produce) linear to walk.
func visitLoads(e *ir.Expr, fn func(*ir.Expr)) {
	seen := make(map[*ir.Expr]bool)
	var walk func(*ir.Expr)
	walk = func(e *ir.Expr) {
		if seen[e] {
			return
		}
		seen[e] = true
		if e.Op == ir.OpLoad {
			fn(e)
			return
		}
		for _, a := range e.Args {
			walk(a)
		}
	}
	walk(e)
}

// dumpSource feeds the evaluator input samples straight from the captured
// memory dump through the reconstructed input geometry, padding included.
type dumpSource struct {
	dump *trace.MemDump
	in   InputDesc
}

// Sample reads the input sample at (x, y, c); like the emulated machine,
// unmapped memory reads as zero.
func (s dumpSource) Sample(x, y, c int) uint8 {
	off := int64(y) * s.in.Stride
	if s.in.Interleaved {
		off += int64(x*s.in.Channels + c)
	} else {
		off += int64(x)
	}
	b, _ := s.dump.Byte(uint64(int64(s.in.Base) + off))
	return b
}

// InputSource returns an evaluator source backed by the trace memory dump.
func (r *Result) InputSource() ir.Source {
	return dumpSource{dump: r.Dump, in: r.Bufs.In}
}

// footprint returns the bounding box of input coordinates the kernel's
// trees touch over its whole output grid (origin applied), including the
// channel delta range of its taps.
func footprint(k *ir.Kernel) (xlo, xhi, ylo, yhi, dclo, dchi int) {
	minDX, maxDX, minDY, maxDY := 0, 0, 0, 0
	first := true
	for _, t := range k.Trees {
		visitLoads(t, func(l *ir.Expr) {
			if first {
				minDX, maxDX, minDY, maxDY = l.DX, l.DX, l.DY, l.DY
				dclo, dchi = l.DC, l.DC
				first = false
				return
			}
			minDX, maxDX = min(minDX, l.DX), max(maxDX, l.DX)
			minDY, maxDY = min(minDY, l.DY), max(maxDY, l.DY)
			dclo, dchi = min(dclo, l.DC), max(dchi, l.DC)
		})
	}
	// The axis maps are monotonically nondecreasing in the output
	// coordinate, so the extreme input columns/rows come from the extreme
	// output ones (identity maps reduce to the familiar slope-1 box).
	xlo = k.MapX.Apply(0) + k.OriginX + minDX
	xhi = k.MapX.Apply(k.OutWidth-1) + k.OriginX + maxDX
	ylo = k.MapY.Apply(0) + k.OriginY + minDY
	yhi = k.MapY.Apply(k.OutHeight-1) + k.OriginY + maxDY
	return xlo, xhi, ylo, yhi, dclo, dchi
}

// InputFootprint returns the bounding box of first-stage input
// coordinates a final render of (outW, outH) samples can touch: the
// stage's stencil taps (origin applied) swept over its output grid,
// which tracks the requested final extent by the lifted stage deltas.
// Serving layers use it to size the clamp padding of a caller-supplied
// input plane so every tap of every request geometry reads initialized
// bytes.
func (r *Result) InputFootprint(outW, outH int) (xlo, xhi, ylo, yhi int) {
	st0 := &r.Stages[0]
	w, h := stageDims(st0, r.finalStage(), outW, outH)
	k := st0.Kernel
	if st0.Red != nil {
		k = &ir.Kernel{Channels: 1, Trees: []*ir.Expr{st0.Red.Index}}
	}
	kc := *k
	kc.OutWidth, kc.OutHeight = w, h
	xlo, xhi, ylo, yhi, _, _ = footprint(&kc)
	return xlo, xhi, ylo, yhi
}

// MaterializeInput copies the dumped input into a concrete pixel backing
// (a padded image.Plane for planar kernels, an image.Interleaved for
// interleaved ones) covering the first stage's whole stencil footprint.
// The compiled backend recognizes these backings and fuses every tap into
// a flat indexed load.  Every coordinate the kernel can touch reads the
// same byte the dump-backed source yields, so evaluation results are
// unchanged.  When the footprint cannot be represented (an interleaved
// kernel tapping outside the image), the dump-backed source is returned
// instead.
func (r *Result) MaterializeInput() ir.Source {
	dsrc := dumpSource{dump: r.Dump, in: r.Bufs.In}
	st0 := &r.Stages[0]
	k := st0.Kernel
	if st0.Red != nil {
		// A reduction's input footprint is its index expression's taps
		// swept over the whole domain.
		k = &ir.Kernel{
			OutWidth: st0.Red.DomW, OutHeight: st0.Red.DomH, Channels: 1,
			Trees: []*ir.Expr{st0.Red.Index},
		}
	}
	xlo, xhi, ylo, yhi, dclo, dchi := footprint(k)
	if xhi < 0 || yhi < 0 || xhi < xlo || yhi < ylo {
		return dsrc
	}
	if r.Bufs.In.Interleaved {
		// The interleaved layout has no padding concept; taps left or
		// above the image — or cross-channel taps that step outside a
		// pixel's own samples — cannot be represented.
		if xlo < 0 || ylo < 0 || dclo < 0 || k.Channels-1+dchi >= r.Bufs.In.Channels {
			return dsrc
		}
		im := image.NewInterleaved(xhi+1, yhi+1, r.Bufs.In.Channels)
		for y := 0; y <= yhi; y++ {
			for x := 0; x <= xhi; x++ {
				for c := 0; c < im.Channels; c++ {
					im.Set(x, y, c, dsrc.Sample(x, y, c))
				}
			}
		}
		return ir.InterleavedSource{Im: im}
	}
	pad := max(0, -xlo, -ylo)
	p := image.NewPlane(max(xhi+1, 1), max(yhi+1, 1), pad)
	for y := -pad; y <= yhi; y++ {
		for x := -pad; x <= xhi; x++ {
			p.Set(x, y, dsrc.Sample(x, y, 0))
		}
	}
	return ir.PlaneSource{P: p}
}

// GenImage maps a concrete evaluator source, as MaterializeInput returns
// it, onto the generated package's flat Image geometry.  It reports false
// for sources with no flat backing, such as the dump-backed fallback.
func GenImage(src ir.Source) (liftedkernels.Image, bool) {
	switch s := src.(type) {
	case ir.PlaneSource:
		pix, base, stride := s.P.Flat()
		return liftedkernels.Image{Pix: pix, Base: base, Stride: stride, PixStep: 1}, true
	case ir.InterleavedSource:
		pix, base, stride, pixStep := s.Im.Flat()
		return liftedkernels.Image{Pix: pix, Base: base, Stride: stride, PixStep: pixStep, ChanStep: 1}, true
	}
	return liftedkernels.Image{}, false
}

// vmRegion reads the bytes the legacy binary left in a written region out
// of the memory dump, row-major.
func (r *Result) vmRegion(out OutputDesc) ([]byte, error) {
	buf := make([]byte, 0, out.Rows*out.RowBytes)
	for y := 0; y < out.Rows; y++ {
		row, ok := r.Dump.Bytes(out.Base+uint64(y)*uint64(out.Stride), out.RowBytes)
		if !ok {
			return nil, fmt.Errorf("lift: output row %d missing from memory dump", y)
		}
		buf = append(buf, row...)
	}
	return buf, nil
}

// VMOutput reads the bytes the legacy binary wrote to the final output
// region out of the memory dump, row-major.
func (r *Result) VMOutput() ([]byte, error) {
	return r.vmRegion(r.Bufs.Out)
}

// finalStage returns the pipeline's last stage.
func (r *Result) finalStage() *Stage { return &r.Stages[len(r.Stages)-1] }

// EvalDims returns the extents size-generic backends evaluate the lifted
// result at: the final output image for stencils, the input domain for
// reductions.
func (r *Result) EvalDims() (int, int) { return finalDims(r.finalStage()) }

// chain evaluates the stage pipeline: stage 0 reads src, every later
// stage reads its predecessor's computed output, and the final stage's
// bytes are returned.  Stage extents track the requested final extent by
// their lifted deltas.  run evaluates one stencil stage (reductions always
// use their own evaluator); each, when non-nil, observes every stage's
// output.
func (r *Result) chain(src ir.Source, outW, outH int,
	run func(i int, k *ir.Kernel, src ir.Source) ([]byte, error),
	each func(i int, out []byte) error) ([]byte, error) {
	final := r.finalStage()
	var out []byte
	var err error
	for i := range r.Stages {
		st := &r.Stages[i]
		w, h := stageDims(st, final, outW, outH)
		if st.Red != nil {
			red := *st.Red
			red.DomW, red.DomH = w, h
			out, err = red.Eval(src)
		} else {
			k := *st.Kernel
			k.OutWidth, k.OutHeight = w, h
			out, err = run(i, &k, src)
		}
		if err != nil {
			return nil, err
		}
		if each != nil {
			if err := each(i, out); err != nil {
				return nil, err
			}
		}
		if i+1 < len(r.Stages) {
			if st.Red != nil {
				// A reduction's bytes are the finished table, not an image:
				// later stages keep reading the same pixel source and bind
				// the table for their OpTableIn lookups.
				src = ir.TableSource{Src: src, Tbl: out}
			} else {
				src = stagePlaneSource(out, w, h)
			}
		}
	}
	return out, nil
}

// EvalIR evaluates the lifted pipeline with the tree-walking interpreter
// against the dumped input at the lifted geometry.
func (r *Result) EvalIR() ([]byte, error) {
	w, h := r.EvalDims()
	return r.EvalIRAt(r.InputSource(), w, h)
}

// EvalIRAt evaluates the lifted pipeline with the interpreter against an
// arbitrary first-stage source, rendering the final stage at (outW, outH).
func (r *Result) EvalIRAt(src ir.Source, outW, outH int) ([]byte, error) {
	return r.chain(src, outW, outH, func(_ int, k *ir.Kernel, s ir.Source) ([]byte, error) {
		return k.Eval(s)
	}, nil)
}

// Verify evaluates the lifted pipeline against the dumped input and
// compares every stage's output — intermediates included — with the bytes
// the legacy binary actually left in that stage's region.  A nil error
// means the lifted IR is pixel-exact.
func (r *Result) Verify() error {
	start := time.Now()
	defer func() { r.addPhase(PhaseVerify, time.Since(start)) }()
	w, h := r.EvalDims()
	_, err := r.chain(r.InputSource(), w, h,
		func(_ int, k *ir.Kernel, s ir.Source) ([]byte, error) { return k.Eval(s) },
		func(i int, out []byte) error {
			want, err := r.vmRegion(r.Stages[i].Out)
			if err != nil {
				return err
			}
			return compareToVM(fmt.Sprintf("IR evaluation (stage %d)", i), out, want)
		})
	return reject(PhaseVerify, err)
}

// CompiledResult is a lifted result with every stencil stage lowered to
// register programs.  Reduction stages have no register form (their
// scatter update is not row-vectorizable) and keep nil entries; the chain
// evaluators run them through the reduction evaluator.
type CompiledResult struct {
	res    *Result
	Stages []*ir.CompiledKernel
}

// Compile lowers every stencil stage of the result.
func (r *Result) Compile() (*CompiledResult, error) {
	start := time.Now()
	defer func() { r.addPhase(PhaseCompile, time.Since(start)) }()
	c := &CompiledResult{res: r, Stages: make([]*ir.CompiledKernel, len(r.Stages))}
	for i := range r.Stages {
		if r.Stages[i].Kernel == nil {
			continue
		}
		ck, err := r.Stages[i].Kernel.Compile()
		if err != nil {
			return nil, reject(PhaseCompile, err)
		}
		c.Stages[i] = ck
	}
	return c, nil
}

// Progs returns every stage's channel programs, for reporting.
func (c *CompiledResult) Progs() []*ir.Program {
	var out []*ir.Program
	for _, ck := range c.Stages {
		if ck != nil {
			out = append(out, ck.Progs...)
		}
	}
	return out
}

// Workers reports the effective parallel worker count of the widest
// stencil stage for a requested value (1 for reduction-only results).
func (c *CompiledResult) Workers(requested int) int {
	workers := 1
	for _, ck := range c.Stages {
		if ck != nil {
			workers = max(workers, ck.Workers(requested))
		}
	}
	return workers
}

// evalAt runs the compiled chain against src at (outW, outH); parallel
// selects the cache-blocked tiled driver for the stencil stages.
func (c *CompiledResult) evalAt(src ir.Source, outW, outH int, parallel bool, workers int) ([]byte, error) {
	return c.res.chain(src, outW, outH, func(i int, k *ir.Kernel, s ir.Source) ([]byte, error) {
		ck := *c.Stages[i]
		ck.OutWidth, ck.OutHeight = k.OutWidth, k.OutHeight
		if parallel {
			return ck.EvalParallel(s, workers)
		}
		return ck.Eval(s)
	}, nil)
}

// Eval runs the compiled chain serially at the lifted geometry.
func (c *CompiledResult) Eval(src ir.Source) ([]byte, error) {
	w, h := c.res.EvalDims()
	return c.evalAt(src, w, h, false, 0)
}

// EvalParallel runs the compiled chain with the tiled parallel driver at
// the lifted geometry (workers <= 0 means GOMAXPROCS).
func (c *CompiledResult) EvalParallel(src ir.Source, workers int) ([]byte, error) {
	w, h := c.res.EvalDims()
	return c.evalAt(src, w, h, true, workers)
}

// EvalAt runs the compiled chain serially against an arbitrary
// first-stage source at a fresh final geometry.
func (c *CompiledResult) EvalAt(src ir.Source, outW, outH int) ([]byte, error) {
	return c.evalAt(src, outW, outH, false, 0)
}

// EvalParallelAt is EvalAt through the tiled parallel driver.
func (c *CompiledResult) EvalParallelAt(src ir.Source, outW, outH int, workers int) ([]byte, error) {
	return c.evalAt(src, outW, outH, true, workers)
}

// VerifyCompiled lowers the lifted pipeline to register programs and
// checks the compiled backend against the legacy binary's own output on
// every execution path: serial and parallel (with the given worker count,
// <= 0 meaning GOMAXPROCS), flat (materialized pixel backing) and generic
// (dump-backed source).  On success it returns the verified compiled
// pipeline so drivers report and benchmark exactly the programs that were
// checked.
func (r *Result) VerifyCompiled(workers int) (*CompiledResult, error) {
	want, err := r.VMOutput()
	if err != nil {
		return nil, reject(PhaseVerify, err)
	}
	c, err := r.Compile() // records its own compile span
	if err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() { r.addPhase(PhaseVerify, time.Since(start)) }()
	paths := []struct {
		name string
		src  ir.Source
	}{
		{"fused", r.MaterializeInput()},
		{"generic", r.InputSource()},
	}
	for _, p := range paths {
		got, err := c.Eval(p.src)
		if err != nil {
			return nil, reject(PhaseCompile, fmt.Errorf("lift: compiled %s eval: %w", p.name, err))
		}
		if err := compareToVM("compiled "+p.name+" evaluation", got, want); err != nil {
			return nil, reject(PhaseVerify, err)
		}
		got, err = c.EvalParallel(p.src, workers)
		if err != nil {
			return nil, reject(PhaseCompile, fmt.Errorf("lift: compiled %s parallel eval: %w", p.name, err))
		}
		if err := compareToVM("compiled "+p.name+" parallel evaluation", got, want); err != nil {
			return nil, reject(PhaseVerify, err)
		}
	}
	return c, nil
}

// compareToVM demands got matches the VM's output byte for byte.
func compareToVM(what string, got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("lift: verification size mismatch: %s %d vs VM %d samples", what, len(got), len(want))
	}
	if !bytes.Equal(got, want) {
		bad := 0
		for i := range got {
			if got[i] != want[i] {
				bad++
			}
		}
		return fmt.Errorf("lift: %s differs from VM output on %d/%d samples", what, bad, len(want))
	}
	return nil
}

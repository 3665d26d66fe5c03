// Package liftedkernels holds ahead-of-time Go source for the lifted
// stencil corpus — the reproduction's analogue of the Halide code Helium
// emits.  kernels.go is regenerated from the lifted corpus by "helium
// gen"; this file, the runtime those kernels run on, is hand-written.  The
// package is standalone: nothing here imports the lifting pipeline, so the
// package can be vendored into a host application as the drop-in
// replacement for the legacy filter.
//
// Values, error positions and error messages are bit-identical to the
// helium/internal/ir interpreter and register executors — under every
// ScheduleSpec: a schedule changes only the execution strategy (tile
// blocking, stage fusion), never the result.  The generator's differential
// tests enforce this with the real toolchain.
//
// Every call renders serially on the calling goroutine: a host that
// serves many images in parallel runs many calls at once, one scratch
// each, rather than splitting one call across cores.
package liftedkernels

import (
	"fmt"
	"sort"
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
// reference schedule: straight row strips, materializing stage chaining.
type ScheduleSpec struct {
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
	// Tuned, when non-nil, is the generated schedule-baked driver: the
	// autotuned tile extents are literal constants in its loop nest.
	// EvalTuned dispatches to it.
	Tuned func(sc *Scratch, img *Image, outW, outH int) ([]byte, error)
	// FusedStrip, when non-nil, is the generated footprint-specialized
	// sliding-window driver; the fused executor dispatches to it at the
	// minimal window instead of the generic ring interpreter.
	FusedStrip FusedStripFunc
}

// FusedStripFunc streams every final-stage row through a fused pipeline,
// writing each stage's first error (nil for clean stages) into errs.
type FusedStripFunc func(sc *Scratch, img *Image, out []byte, ws, hs []int, errs []*rowErr)

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
// intermediates and fused ring planes, and the reduction bins.  A zero
// Scratch is ready to use; buffers grow on demand and persist, so a
// caller rendering frames in a loop reaches a zero-allocation steady
// state.  Results returned through a Scratch alias its buffers and are
// only valid until its next use.
type Scratch struct {
	out  []byte
	bufs [][]byte
	imgs []Image
	errs []*rowErr
	fs   []fusedStage
	dims []int
	bins []uint32
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
// sample order with the reference schedule, exactly like the
// lifting pipeline's evaluators: when several channels fault on one row,
// the reported error is the one an x-then-c per-sample scan hits first.
// Multi-stage kernels chain their stages through intermediate buffers;
// reductions treat outW x outH as the domain and return the serialized
// bin table.
func (k *Kernel) Eval(img *Image, outW, outH int) ([]byte, error) {
	return k.EvalSched(img, outW, outH, ScheduleSpec{})
}

// EvalTuned is Eval under the kernel's autotuned default schedule.  When
// the generator baked a tuned driver, that driver runs instead of the
// generic dispatch.
func (k *Kernel) EvalTuned(img *Image, outW, outH int) ([]byte, error) {
	return k.EvalTunedInto(new(Scratch), img, outW, outH)
}

// EvalTunedInto is EvalTuned against caller-owned scratch.
func (k *Kernel) EvalTunedInto(sc *Scratch, img *Image, outW, outH int) ([]byte, error) {
	if k.Tuned != nil {
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
			return nil, fmt.Errorf("ir: kernel %s: slidingWindow fusion needs at least 2 stages, kernel has %d", k.Name, len(k.Stages))
		}
	default:
		return nil, fmt.Errorf("ir: kernel %s: unknown fusion strategy %q", k.Name, spec.Fusion)
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
		e = evalTiled(out, img, k.Channels, k.OriginX, k.OriginY, outW, outH, tw, th, k.Rows, k.RowAll)
	} else {
		e = evalRows(out, img, k.Channels, k.OriginX, k.OriginY, outW, outH, k.Rows, k.RowAll)
	}
	if e != nil {
		return nil, fmt.Errorf("ir: kernel %s at (%d,%d,%d): %w", k.Name, e.x, e.y, e.c, e.err)
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

// evalRows renders output rows [0, outH) into out (the full row-major
// buffer), returning the scan-order-first failure.
func evalRows(out []byte, img *Image, channels, originX, originY, outW, outH int, rows []RowFunc, rowAll RowAllFunc) *rowErr {
	for y := 0; y < outH; y++ {
		if e := runRow(out[y*outW*channels:], img, channels, originX, originY, y, outW, rows, rowAll); e != nil {
			return e
		}
	}
	return nil
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

// evalTiled renders the output through a cache-blocked tileW x tileH loop
// nest — the schedule's literal tile extents — and returns the
// scan-order-first failure.  Tiles within a band (one row of tiles)
// share the row range, so a band's first erroring tile in tx order is NOT
// necessarily scan-first — every tile's error is min-merged.  Values and
// the reported error match evalRows exactly.
func evalTiled(out []byte, img *Image, channels, originX, originY, outW, outH, tileW, tileH int, rows []RowFunc, rowAll RowAllFunc) *rowErr {
	if tileW <= 0 || tileW > outW {
		tileW = outW
	}
	if tileH <= 0 || tileH > outH {
		tileH = outH
	}
	var best *rowErr
	for ty := 0; ty < outH; ty += tileH {
		th := min(tileH, outH-ty)
		for tx := 0; tx < outW; tx += tileW {
			tw := min(tileW, outW-tx)
			if e := runTile(out, img, channels, originX, originY, outW, tx, ty, tw, th, rows, rowAll); e != nil && (best == nil || e.before(best)) {
				best = e
			}
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
			return nil, fmt.Errorf("ir: kernel %s stage %d extent %dx%d is empty", k.Name, si, ws[si], hs[si])
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
			e = evalTiled(out, cur, st.Channels, st.OriginX, st.OriginY, w, h, tw, th, st.Rows, st.RowAll)
		} else {
			e = evalRows(out, cur, st.Channels, st.OriginX, st.OriginY, w, h, st.Rows, st.RowAll)
		}
		if e != nil {
			return nil, fmt.Errorf("ir: kernel %s stage %d at (%d,%d,%d): %w", k.Name, si, e.x, e.y, e.c, e.err)
		}
		ni := sc.img(si)
		*ni = Image{Pix: out, Stride: w * st.Channels, PixStep: st.Channels, ChanStep: 1, Tbl: cur.Tbl}
		cur = ni
	}
	return cur, nil
}

// fusedStage is one stage's streaming state within the sliding-window
// executor.
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
	cursor           int
	alive            bool
	fe               *rowErr
}

// evalStagesFused streams the pipeline: a producer stage computes only
// the rows its consumer still needs, ring-buffered, so no full-size
// intermediate plane is ever allocated.  Each stage stops at its first
// error in scan order, and the earliest erroring stage wins — exactly the
// materializing executor's reporting.
func (k *Kernel) evalStagesFused(sc *Scratch, img *Image, ws, hs []int, spec ScheduleSpec) (*Image, error) {
	n := len(k.Stages)
	for si := 1; si < n; si++ {
		st := &k.Stages[si]
		if k.Stages[si-1].Channels != 1 {
			return nil, fmt.Errorf("ir: kernel %s: only planar single-channel intermediates stream (stage %d has %d channels)", k.Name, si-1, k.Stages[si-1].Channels)
		}
		if st.MinDY < 0 || hs[si]-1+st.MaxDY >= hs[si-1] {
			return nil, fmt.Errorf("ir: kernel %s stage %d reads rows [%d,%d], outside its %d-row producer", k.Name, si, st.MinDY, hs[si]-1+st.MaxDY, hs[si-1])
		}
		if st.MinDX < 0 || ws[si]-1+st.MaxDX >= ws[si-1] {
			// A horizontal overread wraps differently in a ring than in a
			// full plane; erroring keeps fusion result-identical or loud.
			return nil, fmt.Errorf("ir: kernel %s stage %d reads columns [%d,%d], outside its %d-column producer", k.Name, si, st.MinDX, ws[si]-1+st.MaxDX, ws[si-1])
		}
	}
	last := n - 1
	out := sc.outBuf(ws[last] * hs[last] * k.Stages[last].Channels)
	errs := sc.errSlots(n)
	// The generated footprint-specialized driver replaces the generic ring
	// dispatch only at the minimal window (an explicit WindowRows widens
	// the ring, which the baked body does not model).
	if k.FusedStrip != nil && spec.WindowRows == 0 {
		k.FusedStrip(sc, img, out, ws, hs, errs)
	} else {
		k.fusedStrip(sc, img, out, ws, hs, spec.WindowRows, errs)
	}
	for si := 0; si < n; si++ {
		if e := errs[si]; e != nil {
			return nil, fmt.Errorf("ir: kernel %s stage %d at (%d,%d,%d): %w", k.Name, si, e.x, e.y, e.c, e.err)
		}
	}
	ri := sc.img(n - 1)
	*ri = Image{Pix: out, Stride: ws[last] * k.Stages[last].Channels, PixStep: k.Stages[last].Channels, ChanStep: 1}
	return ri, nil
}

// fusedStrip streams every final-stage row through the chain and returns
// each stage's first error (nil entries for clean stages).  Every stage
// produces all of its rows [0, hs[i]), including those no consumer row
// pulls, because the materializing chain computes every producer row and
// an error in one of them must not be lost.
func (k *Kernel) fusedStrip(sc *Scratch, img *Image, out []byte, ws, hs []int, windowRows int, errs []*rowErr) {
	n := len(k.Stages)
	fs := sc.stages(n)
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
			s.ringImg = Image{Pix: s.ring, Stride: s.stride, PixStep: 1, Tbl: img.Tbl}
		}
	}
	fs[0].in = img
	for i := 1; i < n; i++ {
		fs[i].in = &fs[i-1].ringImg
	}
	for fs[n-1].alive && fs[n-1].cursor < fs[n-1].h {
		fusedProduce(fs, out, n-1)
	}
	for i := n - 2; i >= 0; i-- {
		for fs[i].alive && fs[i].cursor < fs[i].h {
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
		for p.alive && p.cursor <= top && p.cursor < p.h {
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
			return nil, fmt.Errorf("ir: kernel %s at (%d,%d): %w", k.Name, x, y, err)
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
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func errDivZero() error { return fmt.Errorf("ir: division by zero") }
func errModZero() error { return fmt.Errorf("ir: modulo by zero") }
func errTable(idx int64, n int) error {
	return fmt.Errorf("ir: table index %d out of range (%d elements)", idx, n)
}
func errLoad(x, y, c int) error {
	return fmt.Errorf("ir: compiled load at (%d,%d,%d) outside the pixel backing", x, y, c)
}
func errRedIndex(idx int64, bins int) error {
	return fmt.Errorf("ir: reduction index %d out of range (%d bins)", idx, bins)
}

// Reduction recognition.  A histogram-shaped filter never maps cleanly to
// a stencil: its output bytes are rewritten many times, and which slot a
// write lands in depends on the *value* of an input pixel, not its
// coordinates.  The recognizer instead reads the accumulate-into-table
// pattern straight off the dynamic trace: every slot starts with a
// constant initializer, every later write adds a constant to the slot's
// previous value, and the slot address arithmetic names the input pixel
// through its index register.  Lifting succeeds when every input pixel
// contributes exactly one update and all updates share one canonical index
// expression — the Halide-style update definition `bins[f(in(x,y))] += d`.
package lift

import (
	"fmt"

	"helium/internal/ir"
	"helium/internal/isa"
	"helium/internal/trace"
)

// redEvent is one accumulate event observed in the trace.
type redEvent struct {
	seq  int
	slot int // bin index, from the write address
}

// recognizeReduction lifts an accumulator region written by the filter
// into an ir.Reduction.  in is the stage's input geometry (the image whose
// pixels drive the updates), reg the clustered write region, known the
// injected input.  Two accumulation shapes are recognized: one update per
// pixel (the plain histogram) and one run of consecutive updates ending at
// the last bin per pixel (the cumulative/suffix histogram).  Alongside the
// reduction it returns the trace position of the final table write, which
// gates later stages' reads of the table.
func recognizeReduction(name string, tr *trace.InstTrace, prog *isa.Program, in InputDesc, reg writeRegion, known KnownInput) (*ir.Reduction, *OutputDesc, int, error) {
	if known.Interleaved {
		return nil, nil, 0, fmt.Errorf("lift: reduction over an interleaved input is not supported")
	}
	base := reg.addrs[0]
	size := len(reg.addrs)
	lastWrite := 0
	if last := reg.addrs[size-1]; last-base+1 != uint64(size) {
		return nil, nil, 0, fmt.Errorf("lift: accumulator region at %#x has %d holes; a reduction table is contiguous",
			base, int(last-base+1)-size)
	}

	// Element width: every write to the region must use one width, which
	// is the slot size.
	elem := 0
	var initSeqs, updSeqs []redEvent
	for i := 0; i < tr.Len(); i++ {
		effects := tr.Effects(tr.At(i))
		for e := range effects {
			ef := &effects[e]
			d := ef.Dst
			if d.Space != trace.SpaceMem || d.Addr < base || d.Addr >= base+uint64(size) {
				continue
			}
			if elem == 0 {
				elem = int(d.Width)
			} else if int(d.Width) != elem {
				return nil, nil, 0, fmt.Errorf("lift: accumulator writes mix %d- and %d-byte widths at %#x", elem, d.Width, d.Addr)
			}
			if (d.Addr-base)%uint64(elem) != 0 {
				return nil, nil, 0, fmt.Errorf("lift: accumulator write at %#x is not slot-aligned (element width %d)", d.Addr, elem)
			}
			ev := redEvent{seq: i, slot: int(d.Addr-base) / elem}
			lastWrite = max(lastWrite, i)
			if ef.Op == trace.OpIdentity {
				initSeqs = append(initSeqs, ev)
			} else {
				updSeqs = append(updSeqs, ev)
			}
		}
	}
	if elem == 0 || size%elem != 0 {
		return nil, nil, 0, fmt.Errorf("lift: accumulator region size %d is not a multiple of its %d-byte slots", size, elem)
	}
	bins := size / elem

	// Per-slot initial values, from the identity stores that precede the
	// accumulation (uninitialized slots keep whatever the dump read: the
	// legacy binary never defined them, so neither do we — reject).
	ex := newExtractor(tr, prog, &Buffers{In: in}, true)
	if testHookTable != nil {
		defer testHookTable("reduction", ex.t)
	}
	init := make([]uint64, bins)
	seenInit := make([]bool, bins)
	for _, ev := range initSeqs {
		ef := findEffect(tr, tr.At(ev.seq), base+uint64(ev.slot*elem), uint8(elem))
		if ef == nil {
			return nil, nil, 0, fmt.Errorf("lift: initializer at seq %d writes only part of slot %d", ev.seq, ev.slot)
		}
		c, err := ex.sliceConst(ev.seq, tr.Srcs(ef)[0])
		if err != nil {
			return nil, nil, 0, fmt.Errorf("lift: slot %d initializer: %w", ev.slot, err)
		}
		init[ev.slot] = uint64(c)
		seenInit[ev.slot] = true
	}
	for s, ok := range seenInit {
		if !ok {
			return nil, nil, 0, fmt.Errorf("lift: accumulator slot %d is updated but never initialized by the filter", s)
		}
	}

	// Accumulate events: slot += constant, with the slot index addressed
	// through an input-dependent register.  An event count equal to the
	// pixel count is the plain one-update-per-pixel histogram; otherwise
	// the events must group into suffix runs, one per pixel, whose first
	// update carries the pixel's index.
	var indexExpr *ir.Expr
	delta := uint64(0)
	haveDelta := false
	seen := make(map[[2]int]int)

	suffix := false
	firsts := updSeqs
	if len(updSeqs) > 0 && len(updSeqs) != known.Width*known.Height {
		runs, err := suffixRuns(updSeqs, bins)
		if err != nil {
			return nil, nil, 0, err
		}
		suffix, firsts = true, runs
	}

	updateDelta := func(ev redEvent) error {
		di := tr.At(ev.seq)
		slotAddr := base + uint64(ev.slot*elem)
		ef := findEffect(tr, di, slotAddr, uint8(elem))
		if ef == nil {
			return fmt.Errorf("lift: update at seq %d writes only part of slot %d", ev.seq, ev.slot)
		}
		srcs := tr.Srcs(ef)
		if ef.Op != trace.OpAdd || len(srcs) != 2 {
			return fmt.Errorf("lift: update %v at %#x (seq %d) is %v; only additive accumulation (add/inc into the slot) is liftable",
				di.Op, di.Addr, ev.seq, ef.Op)
		}
		// One operand reads the slot back (the accumulator), the other is
		// the constant contribution.
		acc := -1
		for s, src := range srcs {
			if src.Space == trace.SpaceMem && src.Addr == slotAddr && int(src.Width) == elem {
				acc = s
			}
		}
		if acc < 0 {
			return fmt.Errorf("lift: update %v at %#x (seq %d) does not read its own slot back; not an accumulation",
				di.Op, di.Addr, ev.seq)
		}
		d, err := ex.sliceConst(ev.seq, srcs[1-acc])
		if err != nil {
			return fmt.Errorf("lift: update at seq %d: %w", ev.seq, err)
		}
		if haveDelta && uint64(d) != delta {
			return fmt.Errorf("lift: updates add different constants (%d vs %d); only uniform deltas are liftable", delta, d)
		}
		delta, haveDelta = uint64(d), true
		return nil
	}

	updateIndex := func(ev redEvent) error {
		idx, px, py, err := ex.indexExpr(ev.seq, base+uint64(ev.slot*elem), base, elem)
		if err != nil {
			return fmt.Errorf("lift: update at seq %d: %w", ev.seq, err)
		}
		if indexExpr == nil {
			indexExpr = idx
		} else if !ex.t.sameKey(indexExpr, idx) {
			return fmt.Errorf("lift: update at seq %d computes index %s, others %s; index expressions did not collapse",
				ev.seq, idx, indexExpr)
		}
		seen[[2]int{px, py}]++
		return nil
	}

	for _, ev := range updSeqs {
		if err := updateDelta(ev); err != nil {
			return nil, nil, 0, err
		}
	}
	for _, ev := range firsts {
		if err := updateIndex(ev); err != nil {
			return nil, nil, 0, err
		}
	}
	if indexExpr == nil {
		return nil, nil, 0, fmt.Errorf("lift: accumulator region at %#x has initializers but no updates", base)
	}

	// Every interior pixel must contribute exactly once: the reduction
	// domain is the whole input.
	for y := 0; y < known.Height; y++ {
		for x := 0; x < known.Width; x++ {
			switch n := seen[[2]int{x, y}]; {
			case n == 0:
				return nil, nil, 0, fmt.Errorf("lift: input pixel (%d,%d) contributed no table update; the reduction domain is not the whole image", x, y)
			case n > 1:
				return nil, nil, 0, fmt.Errorf("lift: input pixel (%d,%d) contributed %d updates; only one update per pixel is liftable", x, y, n)
			}
		}
	}
	if len(seen) != known.Width*known.Height {
		return nil, nil, 0, fmt.Errorf("lift: %d update pixels fall outside the %dx%d input interior", len(seen)-known.Width*known.Height, known.Width, known.Height)
	}

	red := &ir.Reduction{
		Name: name,
		DomW: known.Width, DomH: known.Height,
		Bins: bins, Elem: elem,
		Init:   init,
		Index:  indexExpr.Clone(), // detached from the recognizer's table
		Delta:  delta & (1<<(8*elem) - 1),
		Suffix: suffix,
	}
	out := &OutputDesc{
		Base:     base,
		Stride:   int64(size),
		RowBytes: size,
		Rows:     1,
		Channels: 1,
	}
	return red, out, lastWrite, nil
}

// suffixRuns groups the accumulate events into maximal runs of
// consecutive ascending slots, each ending at the last bin — the trace
// shape of the cumulative histogram, where every pixel updates
// bins[idx..bins-1] in order.  It returns each run's first event, which
// carries the pixel's index.
func suffixRuns(upd []redEvent, bins int) ([]redEvent, error) {
	var firsts []redEvent
	for i := 0; i < len(upd); {
		j := i
		for j+1 < len(upd) && upd[j].slot != bins-1 && upd[j+1].slot == upd[j].slot+1 {
			j++
		}
		if upd[j].slot != bins-1 {
			return nil, fmt.Errorf("lift: accumulator updates are neither one per input pixel nor suffix runs: the run starting at seq %d (slot %d) stops at slot %d of %d bins",
				upd[i].seq, upd[i].slot, upd[j].slot, bins)
		}
		firsts = append(firsts, upd[i])
		i = j + 1
	}
	return firsts, nil
}

// sliceConst slices a reference and demands it canonicalize to an integer
// constant.
func (ex *extractor) sliceConst(seq int, ref trace.Ref) (int64, error) {
	ex.reset()
	e, err := ex.refExpr(seq, ref)
	if err != nil {
		return 0, err
	}
	c := ex.t.canon(e)
	if c.Op != ir.OpConst {
		return 0, fmt.Errorf("value %s does not reduce to a constant", c)
	}
	return c.Val, nil
}

// indexExpr reconstructs the bin index of one update as an expression
// over the input pixel that drove it, the update being record seq.  The update's memory operand is
// base + index*scale + disp; with scale equal to the slot width the index
// register's slice *is* the bin index (plus a constant fold of the base
// residual), and the absolute input load inside it names the pixel.
func (ex *extractor) indexExpr(seq int, slotAddr, base uint64, elem int) (idx *ir.Expr, px, py int, err error) {
	di := ex.tr.At(seq)
	pc, ok := ex.prog.Lookup(di.Addr)
	if !ok {
		return nil, 0, 0, fmt.Errorf("update at %#x is not in the program", di.Addr)
	}
	inst := ex.prog.Insts[pc]
	var memOp *isa.Operand
	for _, o := range []*isa.Operand{&inst.Dst, &inst.Src, &inst.Src2} {
		if o.Kind == isa.KindMem {
			memOp = o
			break
		}
	}
	if memOp == nil || !di.HasMem || di.MemAddr != slotAddr {
		return nil, 0, 0, fmt.Errorf("update %v at %#x has no addressable memory operand", di.Op, di.Addr)
	}
	if memOp.Index == isa.RegNone {
		return nil, 0, 0, fmt.Errorf("update %v at %#x addresses a fixed slot; a data-dependent index register is what makes it a reduction", di.Op, di.Addr)
	}
	if int(memOp.Scale) != elem {
		return nil, 0, 0, fmt.Errorf("update %v at %#x scales its index by %d but slots are %d bytes wide", di.Op, di.Addr, memOp.Scale, elem)
	}

	ex.reset()
	e, err := ex.addrRegExpr(seq, di, memOp.Index)
	if err != nil {
		return nil, 0, 0, err
	}

	// Constant residual of the addressing: (base reg + disp - table base)
	// in slots.
	baseVal := int64(0)
	if memOp.Base != isa.RegNone {
		found := false
		for _, ref := range ex.tr.AddrRefs(di) {
			if ref.Space == trace.SpaceReg && ref.Addr == trace.RegAddr(memOp.Base) {
				baseVal, found = int64(ref.Val), true
				break
			}
		}
		if !found {
			return nil, 0, 0, fmt.Errorf("update at %#x: base register %v not captured", di.Addr, memOp.Base)
		}
	}
	residual := baseVal + int64(int32(memOp.Disp)) - int64(base)
	if residual%int64(elem) != 0 {
		return nil, 0, 0, fmt.Errorf("update at %#x: address residual %d is not slot-aligned", di.Addr, residual)
	}
	if k := residual / int64(elem); k != 0 {
		e = ex.t.bin(ir.OpAdd, 4, e, ex.t.constant(k))
	}

	// The slice carries absolute input loads; exactly one pixel must
	// appear, and it becomes the reduction's relative (0,0) tap (a shifted
	// copy: the slice's nodes are interned and shared).
	px, py = -1, -1
	bad := false
	visitLoads(e, func(l *ir.Expr) {
		if l.DC != 0 || (px >= 0 && (l.DX != px || l.DY != py)) {
			bad = true
			return
		}
		px, py = l.DX, l.DY
	})
	if bad {
		return nil, 0, 0, fmt.Errorf("update at %#x mixes several input pixels or channels in one index", di.Addr)
	}
	if px < 0 {
		return nil, 0, 0, fmt.Errorf("update at %#x has an index independent of the input; not a data reduction", di.Addr)
	}
	return ex.t.canon(ex.t.shift(e, px, py)), px, py, nil
}

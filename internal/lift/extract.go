package lift

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"helium/internal/ir"
	"helium/internal/isa"
	"helium/internal/trace"
)

// stencilRadius bounds how far (in pixels) an input load may sit from the
// output pixel it feeds.  It resolves the inherent ambiguity of mapping a
// padding byte to coordinates: a byte one position left of a row start is
// both (x=-1, y) and (x=stride-1, y-1), and only the candidate near the
// output pixel is a plausible stencil tap.
const stencilRadius = 4

// maxTreeNodes bounds the size of a single extracted expression tree.
const maxTreeNodes = 1 << 16

// guardNodeBudget bounds the slice of a single branch condition during
// guard collection.  Data-dependent guards (clamp compares) are tiny; loop
// machinery over large images can chain thousands of counter increments,
// and a condition that blows this budget is treated as loop control and
// skipped rather than failing the sample.
const guardNodeBudget = 4096

// maxGuards bounds how many distinct data-dependent branch conditions one
// sample may be predicated on (2^maxGuards paths could exist in theory;
// real clamp diamonds produce two or three).
const maxGuards = 16

// errTreeTooLarge marks a slice that exceeded its node budget.
var errTreeTooLarge = errors.New("expression tree too large")

// Guard records one data-dependent conditional branch the sample's dynamic
// window executed: Cond is the canonicalized predicate that holds when the
// branch is taken, Taken the outcome observed for this sample.
type Guard struct {
	// Key is Cond's canonical key, shared by every sample that executed
	// the same static compare.
	Key   string
	Cond  *ir.Expr
	Taken bool
}

// SampleTree is the expression tree extracted for one output sample,
// together with the branch predicates that guarded it.
type SampleTree struct {
	X, Y, C int
	Expr    *ir.Expr
	Guards  []Guard
}

// extractor performs backward slicing over one captured instruction trace.
type extractor struct {
	tr   *trace.InstTrace
	prog *isa.Program
	bufs *Buffers

	// xo, yo, curChannel identify the output sample currently being
	// sliced, used to pick input-coordinate candidates and channel deltas.
	xo, yo     int
	curChannel int

	// abs switches inputLoad to absolute coordinates: loads carry the
	// input pixel itself rather than an offset from an output pixel.  The
	// reduction recognizer uses this mode, where there is no output pixel
	// to be relative to.
	abs bool

	// outWrites lists (sorted) the trace positions that wrote into the
	// output region; consecutive entries delimit the per-sample dynamic
	// windows guard collection scans.
	outWrites []int

	// t interns every node the extractor builds, so a node repeated from
	// an earlier sample is a lookup rather than an allocation.
	t *exprTable

	// memo caches resolved references by their defining write, so the
	// slice walks each definition once per sample; it is cleared, not
	// reallocated, between samples.
	memo  map[memoKey]*ir.Expr
	nodes int
	// limit is the active node budget: maxTreeNodes for the value slice,
	// temporarily tightened while slicing branch conditions.
	limit int
}

type memoKey struct {
	writeSeq int
	addr     uint64
	width    uint8
}

// newExtractor returns an extractor with its own expression table.
func newExtractor(tr *trace.InstTrace, prog *isa.Program, bufs *Buffers, abs bool) *extractor {
	return &extractor{tr: tr, prog: prog, bufs: bufs, abs: abs, t: newExprTable(), memo: make(map[memoKey]*ir.Expr)}
}

// reset starts a fresh slice under the full tree budget.
func (ex *extractor) reset() {
	clear(ex.memo)
	ex.nodes, ex.limit = 0, maxTreeNodes
}

// Extract builds one expression tree per written output sample by slicing
// backward from the final write to each sample through the dynamic
// instruction trace (paper sections 4.5-4.7).  Trees terminate at input
// buffer loads (turned into coordinate-relative taps), read-only data
// segment accesses (constants when directly addressed, table lookups when
// indexed), immediates, and values the host wrote before tracing began
// (environment constants).
//
// Per-sample slices are independent (the memo is reset per sample), so the
// samples are distributed over a bounded worker pool sized by GOMAXPROCS.
// Each worker builds its trees through its own expression table, so the
// returned trees share structurally equal subtrees and must be treated as
// immutable.
func Extract(tr *trace.InstTrace, prog *isa.Program, bufs *Buffers) ([]SampleTree, error) {
	return ExtractWorkers(tr, prog, bufs, 0)
}

// ExtractWorkers is Extract with an explicit worker count (<= 0 means
// GOMAXPROCS).  The result is identical to a serial extraction regardless
// of worker count: trees land at their sample's row-major position and the
// reported error is the one a serial scan would have hit first.
func ExtractWorkers(tr *trace.InstTrace, prog *isa.Program, bufs *Buffers, workers int) ([]SampleTree, error) {
	return extractTrees(tr, prog, bufs, workers, false)
}

// extractTrees is the extraction driver behind Extract/ExtractWorkers.
// With abs set, input loads carry absolute input coordinates instead of
// output-relative offsets — the mode the affine refit uses when the
// relative trees refused to collapse.
func extractTrees(tr *trace.InstTrace, prog *isa.Program, bufs *Buffers, workers int, abs bool) ([]SampleTree, error) {
	out := bufs.Out
	total := out.Rows * out.RowBytes
	trees := make([]SampleTree, total)

	outWrites := outputWrites(tr, out)

	// One sample per chunk: a single backward slice is heavy enough that
	// the hand-out cursor never dominates, and finer chunks balance the
	// very uneven per-sample slicing cost.
	var mu sync.Mutex
	var tables []*exprTable
	err := parallelFor(total, 1, workers, func(int) func(int, int) error {
		ex := newExtractor(tr, prog, bufs, abs)
		ex.outWrites = outWrites
		if testHookTable != nil {
			mu.Lock()
			tables = append(tables, ex.t)
			mu.Unlock()
		}
		return func(start, end int) error {
			for i := start; i < end; i++ {
				y, b := i/out.RowBytes, i%out.RowBytes
				x, c := b/out.Channels, b%out.Channels
				e, guards, err := ex.sample(x, y, c)
				if err != nil {
					return fmt.Errorf("lift: extracting output sample (%d,%d,%d): %w", x, y, c, err)
				}
				trees[i] = SampleTree{X: x, Y: y, C: c, Expr: e, Guards: guards}
			}
			return nil
		}
	})
	for _, t := range tables {
		testHookTable("extract", t)
	}
	if err != nil {
		return nil, err
	}
	return trees, nil
}

// parallelFor is the bounded, deterministic worker pool behind the
// per-sample extraction: it covers [0, total) in ascending chunks of the
// given size on a pool of workers.  worker(w) is called once per worker
// to build its body — per-worker state (scratch buffers) lives in that
// closure — and the body is then invoked with half-open chunk bounds.
//
// workers <= 0 means GOMAXPROCS; the pool never exceeds the chunk count.
// A worker stops at its first error.  parallelFor returns the error of the
// lowest-start failing chunk: chunks are handed out in ascending order
// and every chunk before the first failing one succeeded, so that error
// is exactly the one a serial ascending scan would hit first.
func parallelFor(total, chunk, workers int, worker func(w int) func(start, end int) error) error {
	if total <= 0 {
		return nil
	}
	if chunk < 1 {
		chunk = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxWorkers := (total + chunk - 1) / chunk; workers > maxWorkers {
		workers = maxWorkers
	}

	if workers == 1 {
		body := worker(0)
		for start := 0; start < total; start += chunk {
			if err := body(start, min(start+chunk, total)); err != nil {
				return err
			}
		}
		return nil
	}

	var cursor atomic.Int64
	type chunkErr struct {
		start int
		err   error
	}
	errs := make([]chunkErr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := worker(w)
			for {
				start := int(cursor.Add(int64(chunk))) - chunk
				if start >= total {
					return
				}
				if err := body(start, min(start+chunk, total)); err != nil {
					errs[w] = chunkErr{start: start, err: err}
					return
				}
			}
		}(w)
	}
	wg.Wait()

	best := -1
	for i := range errs {
		if errs[i].err != nil && (best < 0 || errs[i].start < errs[best].start) {
			best = i
		}
	}
	if best >= 0 {
		return errs[best].err
	}
	return nil
}

// outputWrites lists, in trace order, the positions whose effects wrote
// into the output region.  Consecutive output writes delimit the dynamic
// window of one output sample, which is where guard collection looks for
// the branches predicating that sample's value.
func outputWrites(tr *trace.InstTrace, out OutputDesc) []int {
	lo := out.Base
	hi := out.Base + uint64(out.Rows-1)*uint64(out.Stride) + uint64(out.RowBytes)
	var seqs []int
	for i := 0; i < tr.Len(); i++ {
		effects := tr.Effects(tr.At(i))
		for e := range effects {
			d := &effects[e].Dst
			if d.Space == trace.SpaceMem && d.Addr+uint64(d.Width) > lo && d.Addr < hi {
				seqs = append(seqs, i)
				break
			}
		}
	}
	return seqs
}

// sample slices the final write to output sample (x, y, c) and collects
// the data-dependent branch guards of its dynamic window.
func (ex *extractor) sample(x, y, c int) (*ir.Expr, []Guard, error) {
	addr := ex.bufs.Out.Addr(x, y, c)
	seq, ok := ex.tr.FinalWriter(addr, 1)
	if !ok {
		return nil, nil, fmt.Errorf("no trace write to %#x", addr)
	}
	di := ex.tr.At(seq)
	ef := findEffect(ex.tr, di, addr, 1)
	if ef == nil {
		return nil, nil, fmt.Errorf("writer %v has no effect covering %#x", di.Op, addr)
	}

	ex.xo, ex.yo, ex.curChannel = x, y, c
	ex.reset()

	e, err := ex.effectExpr(seq, di, ef)
	if err != nil {
		return nil, nil, err
	}
	// Narrow a wider store down to the addressed byte.
	if off := addr - ef.Dst.Addr; off != 0 || ef.Dst.Width != 1 {
		if ef.Dst.Float {
			return nil, nil, fmt.Errorf("output byte %#x is a narrow view of a %d-byte float store; float narrowing is not liftable", addr, ef.Dst.Width)
		}
		e = ex.t.node(ir.Expr{Op: ir.OpExtract, Val: int64(off), Width: 1, SrcWidth: int(ef.Dst.Width)}, e)
	}
	guards, err := ex.collectGuards(seq)
	if err != nil {
		return nil, nil, err
	}
	return e, guards, nil
}

// collectGuards scans the sample's dynamic window — from the previous
// output write (exclusive) to the sample's own write at seq — for
// conditional branches whose condition depends on input data, and records
// each as a (predicate, outcome) guard.  Conditions without input loads
// (loop counters, tile bounds) are discarded; conditions whose slice blows
// the guard budget are treated as loop machinery and skipped.
func (ex *extractor) collectGuards(seq int) ([]Guard, error) {
	i := sort.SearchInts(ex.outWrites, seq)
	start := 0
	if i > 0 {
		start = ex.outWrites[i-1] + 1
	}
	// Branches taken while an earlier stage's reduction was still filling
	// its table belong to that stage, not to this sample: the first
	// sample's window would otherwise swallow the whole accumulation
	// phase, whose data-dependent loop bounds look like guards.
	if tb := ex.bufs.Tbl; tb != nil && tb.LastWrite+1 > start {
		start = tb.LastWrite + 1
	}
	var guards []Guard
	for s := start; s < seq; s++ {
		di := ex.tr.At(s)
		if !di.Op.IsCondJump() {
			continue
		}
		// Each guard gets its own budget on top of whatever has been
		// sliced so far — deliberately not capped at maxTreeNodes, or a
		// long window of skipped loop conditions would saturate the
		// counter and make every later (genuine) guard look too large.
		ex.limit = ex.nodes + guardNodeBudget
		cond, err := ex.condExpr(s, di.Op)
		ex.limit = maxTreeNodes
		if err != nil {
			if errors.Is(err, errTreeTooLarge) {
				continue
			}
			return nil, fmt.Errorf("guard at seq %d: %w", s, err)
		}
		// Canonicalization never introduces a load, so loop control is
		// discarded before it is canonicalized.
		if !ex.t.hasLoad(cond) {
			continue
		}
		if cond = ex.t.canon(cond); !ex.t.hasLoad(cond) {
			continue
		}
		key := ex.t.key(cond)
		if prev := guardIndex(guards, key); prev >= 0 {
			if guards[prev].Taken != di.Taken {
				return nil, fmt.Errorf("guard at seq %d: condition %s observed with both outcomes in one sample window", s, cond)
			}
			continue
		}
		guards = append(guards, Guard{Key: key, Cond: cond, Taken: di.Taken})
		if len(guards) > maxGuards {
			return nil, fmt.Errorf("sample window is predicated on more than %d data-dependent branches", maxGuards)
		}
	}
	return guards, nil
}

// guardIndex returns the position of the guard with the given key, or -1.
func guardIndex(guards []Guard, key string) int {
	for i := range guards {
		if guards[i].Key == key {
			return i
		}
	}
	return -1
}

// condExpr lifts the condition of the conditional jump or set opcode cc
// evaluated at trace position seq, as the predicate that holds when the
// branch is taken (the set condition is true).  It slices the operands of
// the flags-producing compare and maps the condition code onto the IR's
// comparison operators.
func (ex *extractor) condExpr(seq int, cc isa.Opcode) (*ir.Expr, error) {
	// The producer is the flags source's definition: every flags write
	// covers all of the flags bytes, so it is the last writer of each.
	def := flagsDef(ex.tr, ex.tr.At(seq))
	if def == 0 {
		return nil, fmt.Errorf("%v at seq %d has no flags producer in the trace", cc, seq)
	}
	w := int(def) - 1
	pdi := ex.tr.At(w)
	ef := findEffect(ex.tr, pdi, trace.FlagsAddr, 1)
	if ef == nil {
		return nil, fmt.Errorf("flags producer %v at seq %d has no flags effect", pdi.Op, w)
	}
	width := int(pdi.Width)
	if width == 0 {
		width = 4
	}

	srcs := ex.tr.Srcs(ef)
	switch ef.Op {
	case trace.OpCmp:
		a, err := ex.refExpr(w, srcs[0])
		if err != nil {
			return nil, err
		}
		b, err := ex.refExpr(w, srcs[1])
		if err != nil {
			return nil, err
		}
		return predAfterCmp(ex.t, cc, width, a, b, pdi)

	case trace.OpTest:
		a, err := ex.refExpr(w, srcs[0])
		if err != nil {
			return nil, err
		}
		b, err := ex.refExpr(w, srcs[1])
		if err != nil {
			return nil, err
		}
		v := a
		if !ex.t.sameKey(a, b) {
			v = ex.t.bin(ir.OpAnd, width, a, b)
		}
		return predOfValue(ex.t, cc, width, v, pdi)

	default:
		// An arithmetic instruction set the flags: the sign and zero
		// conditions reflect its stored result, which the value slice can
		// reconstruct.  Conditions that need the overflow or carry flag of
		// an arithmetic result are not reconstructible from the value alone.
		effects := ex.tr.Effects(pdi)
		for i := range effects {
			vf := &effects[i]
			if vf.Dst.Space != trace.SpaceFlags && vf.Dst.Space != trace.SpaceNone && vf.Op == ef.Op {
				v, err := ex.effectExpr(w, pdi, vf)
				if err != nil {
					return nil, err
				}
				return predOfValue(ex.t, cc, width, v, pdi)
			}
		}
		return nil, fmt.Errorf("%v at %#x consumes flags of %v at %#x, which has no reconstructible value; the nearest liftable pattern compares with cmp or test",
			cc, ex.tr.At(seq).Addr, pdi.Op, pdi.Addr)
	}
}

// flagsDef returns the Def of the flags a record reads, or 0 when it
// reads no flags or no earlier record wrote them.
func flagsDef(tr *trace.InstTrace, di *trace.Record) int32 {
	effects := tr.Effects(di)
	for i := range effects {
		for _, src := range tr.Srcs(&effects[i]) {
			if src.Space == trace.SpaceFlags {
				return src.Def
			}
		}
	}
	return 0
}

// predAfterCmp maps a condition code evaluated after cmp(a, b) onto the
// IR comparison that is true exactly when the condition holds.
func predAfterCmp(t *exprTable, cc isa.Opcode, w int, a, b *ir.Expr, pdi *trace.Record) (*ir.Expr, error) {
	switch cc {
	case isa.JZ, isa.SETZ:
		return t.bin(ir.OpCmpEq, w, a, b), nil
	case isa.JNZ, isa.SETNZ:
		return t.bin(ir.OpCmpNe, w, a, b), nil
	case isa.JL:
		return t.bin(ir.OpCmpLtS, w, a, b), nil
	case isa.JGE:
		return t.bin(ir.OpCmpLeS, w, b, a), nil
	case isa.JLE:
		return t.bin(ir.OpCmpLeS, w, a, b), nil
	case isa.JG:
		return t.bin(ir.OpCmpLtS, w, b, a), nil
	case isa.JB, isa.SETB:
		return t.bin(ir.OpCmpLtU, w, a, b), nil
	case isa.JNB, isa.SETNB:
		return t.bin(ir.OpCmpLeU, w, b, a), nil
	case isa.JBE:
		return t.bin(ir.OpCmpLeU, w, a, b), nil
	case isa.JA:
		return t.bin(ir.OpCmpLtU, w, b, a), nil
	}
	return nil, fmt.Errorf("%v after %v at %#x mixes sign and overflow flags and is not liftable; the nearest supported patterns are the signed (jl/jge/jle/jg) and unsigned (jb/jnb/jbe/ja) compare-and-branch forms",
		cc, pdi.Op, pdi.Addr)
}

// predOfValue maps a condition code onto a predicate over a reconstructed
// result value (test a, a; arithmetic flag producers).
func predOfValue(t *exprTable, cc isa.Opcode, w int, v *ir.Expr, pdi *trace.Record) (*ir.Expr, error) {
	zero := t.constant(0)
	switch cc {
	case isa.JZ, isa.SETZ:
		return t.bin(ir.OpCmpEq, w, v, zero), nil
	case isa.JNZ, isa.SETNZ:
		return t.bin(ir.OpCmpNe, w, v, zero), nil
	case isa.JS:
		return t.bin(ir.OpCmpLtS, w, v, zero), nil
	case isa.JNS:
		return t.bin(ir.OpCmpLeS, w, zero, v), nil
	}
	return nil, fmt.Errorf("%v after %v at %#x needs carry or overflow state a value slice cannot reconstruct; the nearest supported pattern is an explicit cmp before the branch",
		cc, pdi.Op, pdi.Addr)
}

// findEffect returns the effect of di whose destination covers the byte
// range [addr, addr+width).
func findEffect(tr *trace.InstTrace, di *trace.Record, addr uint64, width uint8) *trace.StoredEffect {
	want := trace.Ref{Space: trace.SpaceMem, Addr: addr, Width: width}
	effects := tr.Effects(di)
	for i := range effects {
		ef := &effects[i]
		if ef.Dst.Space != trace.SpaceNone && ef.Dst.Space != trace.SpaceImm && ef.Dst.Contains(want) {
			return ef
		}
	}
	return nil
}

// refExpr resolves one operand reference observed at trace position seq.
func (ex *extractor) refExpr(seq int, ref trace.Ref) (*ir.Expr, error) {
	if ex.nodes > ex.limit {
		return nil, fmt.Errorf("%w (over %d nodes)", errTreeTooLarge, ex.limit)
	}
	switch ref.Space {
	case trace.SpaceImm:
		ex.nodes++
		return ex.refConst(ref), nil
	case trace.SpaceFlags:
		return nil, fmt.Errorf("%v at %#x (seq %d) consumes raw flag bits as data; only setcc, conditional branches and cmp/test flag flows are liftable",
			ex.tr.At(seq).Op, ex.tr.At(seq).Addr, seq)
	}

	// Input-region reads terminate the slice as stencil taps, even when an
	// earlier stage of the same filter wrote them: stage boundaries are
	// where multi-stage slicing stops (the producing stage is lifted
	// separately).  For first-stage inputs the bytes predate the trace and
	// this matches the no-trace-write path below.
	if ref.Space == trace.SpaceMem {
		if e, ok := ex.inputLoad(ref); ok {
			ex.nodes++
			return e, nil
		}
	}

	// Reads of an earlier stage's reduction table terminate the slice as
	// stage-input table lookups, the same way input-region reads terminate
	// as taps: the producing reduction is lifted separately, and slicing
	// through its accumulation would drag the whole reduction into every
	// consumer tree.
	if tb := ex.bufs.Tbl; tb != nil && ref.Space == trace.SpaceMem &&
		ref.Addr >= tb.Base && ref.Addr+uint64(ref.Width) <= tb.Base+uint64(tb.Size) {
		return ex.tableInRef(seq, ref, tb)
	}

	// A previous traced write defines the value: slice through it.
	if ref.Def > 0 {
		w := int(ref.Def) - 1
		key := memoKey{writeSeq: w, addr: ref.Addr, width: ref.Width}
		if e, hit := ex.memo[key]; hit {
			return e, nil
		}
		e, err := ex.throughWrite(w, ref)
		if err != nil {
			return nil, err
		}
		ex.memo[key] = e
		return e, nil
	}

	// No trace write: the value predates tracing.
	if ref.Space == trace.SpaceMem {
		if seg := ex.dataSegment(ref); seg != nil {
			return ex.segmentRef(seq, ref, seg)
		}
	}
	// Environment constant: host-initialized state (parameters, stack
	// contents) observed with a fixed value.
	ex.nodes++
	return ex.refConst(ref), nil
}

// refConst lifts the value a reference was observed with as a constant.
func (ex *extractor) refConst(ref trace.Ref) *ir.Expr {
	if ref.Float {
		return ex.t.constF(ref.FVal())
	}
	return ex.t.constant(int64(ref.Val))
}

// throughWrite continues the slice through the effect that last wrote ref.
func (ex *extractor) throughWrite(w int, ref trace.Ref) (*ir.Expr, error) {
	di := ex.tr.At(w)
	ef := findEffect(ex.tr, di, ref.Addr, ref.Width)
	if ef == nil {
		return nil, fmt.Errorf("%v at %#x (seq %d) wrote only part of %v; partial-write slicing is unsupported — the nearest liftable pattern stores the full destination width before any wider read (split the store, or read back at the stored width)",
			di.Op, di.Addr, w, ref)
	}
	e, err := ex.effectExpr(w, di, ef)
	if err != nil {
		return nil, err
	}
	// Reading a narrower view of a wider destination (AL out of EAX, a
	// byte out of a dword store) extracts the addressed bytes.
	if off := ref.Addr - ef.Dst.Addr; off != 0 || ref.Width != ef.Dst.Width {
		if ef.Dst.Float {
			return nil, fmt.Errorf("seq %d: narrow read of a %d-byte float value; float narrowing is not liftable", w, ef.Dst.Width)
		}
		ex.nodes++
		e = ex.t.node(ir.Expr{Op: ir.OpExtract, Val: int64(off), Width: int(ref.Width), SrcWidth: int(ef.Dst.Width)}, e)
	}
	return e, nil
}

// effectExpr turns one architectural assignment of record seq, di, into an
// expression node.
func (ex *extractor) effectExpr(seq int, di *trace.Record, ef *trace.StoredEffect) (*ir.Expr, error) {
	ex.nodes++
	w := int(ef.Dst.Width)
	srcs := ex.tr.Srcs(ef)

	switch ef.Op {
	case trace.OpIdentity:
		return ex.refExpr(seq, srcs[0])

	case trace.OpZExt, trace.OpSExt:
		child, err := ex.refExpr(seq, srcs[0])
		if err != nil {
			return nil, err
		}
		op := ir.OpZExt
		if ef.Op == trace.OpSExt {
			op = ir.OpSExt
		}
		return ex.t.node(ir.Expr{Op: op, Width: w, SrcWidth: int(srcs[0].Width)}, child), nil

	case trace.OpLea:
		// srcs = [base, index, scale, disp]: expand the address arithmetic.
		base, err := ex.refExpr(seq, srcs[0])
		if err != nil {
			return nil, err
		}
		index, err := ex.refExpr(seq, srcs[1])
		if err != nil {
			return nil, err
		}
		scale := int64(srcs[2].Val)
		disp := int64(int32(srcs[3].Val))
		scaled := index
		if scale != 1 {
			scaled = ex.t.bin(ir.OpMul, w, index, ex.t.constant(scale))
		}
		return ex.t.bin(ir.OpAdd, w, ex.t.bin(ir.OpAdd, w, base, scaled), ex.t.constant(disp)), nil

	case trace.OpCall:
		child, err := ex.refExpr(seq, srcs[0])
		if err != nil {
			return nil, err
		}
		return ex.t.node(ir.Expr{Op: ir.OpCall, Sym: ex.sym(di.Addr)}, child), nil

	case trace.OpIntToFP:
		child, err := ex.refExpr(seq, srcs[0])
		if err != nil {
			return nil, err
		}
		return ex.t.node(ir.Expr{Op: ir.OpIntToFP, SrcWidth: int(srcs[0].Width)}, child), nil

	case trace.OpFPToInt:
		child, err := ex.refExpr(seq, srcs[0])
		if err != nil {
			return nil, err
		}
		return ex.t.node(ir.Expr{Op: ir.OpFPToInt, Width: w}, child), nil

	case trace.OpSelectSet:
		// setcc materializes a flag condition as a 0/1 byte: lift the
		// condition itself, which the IR comparisons express directly.
		cond, err := ex.condExpr(seq, di.Op)
		if err != nil {
			return nil, err
		}
		return cond, nil
	}

	op, ok := simpleOps[ef.Op]
	if !ok {
		return nil, fmt.Errorf("%v at %#x (seq %d): effect op %v is not liftable", di.Op, di.Addr, seq, ef.Op)
	}
	if len(srcs) != arity(op) {
		return nil, fmt.Errorf("%v at %#x (seq %d): %v with %d operands reads the carry flag as data; flag-carrying chains (adc/sbb) are not liftable — the nearest supported pattern is plain add/sub at the full operand width",
			di.Op, di.Addr, seq, ef.Op, len(srcs))
	}
	var args [2]*ir.Expr
	for i, src := range srcs {
		child, err := ex.refExpr(seq, src)
		if err != nil {
			return nil, err
		}
		args[i] = child
	}
	return ex.t.node(ir.Expr{Op: op, Width: w}, args[:len(srcs)]...), nil
}

// simpleOps maps the trace's plain arithmetic effects onto IR operators.
var simpleOps = map[trace.ExprOp]ir.Op{
	trace.OpAdd: ir.OpAdd, trace.OpSub: ir.OpSub, trace.OpMul: ir.OpMul,
	trace.OpMulHi: ir.OpMulHi, trace.OpDiv: ir.OpDiv, trace.OpMod: ir.OpMod,
	trace.OpAnd: ir.OpAnd, trace.OpOr: ir.OpOr, trace.OpXor: ir.OpXor,
	trace.OpShl: ir.OpShl, trace.OpShr: ir.OpShr, trace.OpSar: ir.OpSar,
	trace.OpNot: ir.OpNot, trace.OpNeg: ir.OpNeg,
	trace.OpFAdd: ir.OpFAdd, trace.OpFSub: ir.OpFSub,
	trace.OpFMul: ir.OpFMul, trace.OpFDiv: ir.OpFDiv,
}

func arity(op ir.Op) int {
	switch op {
	case ir.OpNot, ir.OpNeg:
		return 1
	}
	return 2
}

// inputLoad tries to interpret a memory read as an input buffer tap.  The
// address maps to candidate (x, y) coordinates through the input geometry;
// the candidate within stencilRadius of the output pixel wins.  In
// absolute mode (the reduction recognizer, which has no output pixel) the
// load instead carries the input pixel itself and must land inside the
// interior scanline.
func (ex *extractor) inputLoad(ref trace.Ref) (*ir.Expr, bool) {
	if ref.Width != 1 {
		return nil, false
	}
	in := ex.bufs.In
	t := int64(ref.Addr) - int64(in.Base)
	y0 := floorDiv(t, in.Stride)
	rem := t - y0*in.Stride

	if ex.abs {
		if rem < 0 || rem >= in.Stride {
			return nil, false
		}
		var xi, ci int
		if in.Interleaved {
			xi, ci = int(rem)/in.Channels, int(rem)%in.Channels
		} else {
			xi, ci = int(rem), 0
		}
		return ex.t.load(xi, int(y0), ci), true
	}

	found := false
	var bdx, bdy, bdc int
	bestDist := stencilRadius*2 + 1
	for _, cand := range [][2]int64{
		{y0, rem},
		{y0 + 1, rem - in.Stride},
		{y0 - 1, rem + in.Stride},
	} {
		yi, xb := int(cand[0]), cand[1]
		var xi, ci int
		if in.Interleaved {
			xi, ci = int(floorDiv(xb, int64(in.Channels))), int(xb-floorDiv(xb, int64(in.Channels))*int64(in.Channels))
		} else {
			xi, ci = int(xb), 0
		}
		dx, dy := xi-ex.xo, yi-ex.yo
		if abs(dx) > stencilRadius || abs(dy) > stencilRadius {
			continue
		}
		if d := abs(dx) + abs(dy); d < bestDist {
			bestDist = d
			found, bdx, bdy, bdc = true, dx, dy, ci-ex.curC()
		}
	}
	if !found {
		return nil, false
	}
	return ex.t.load(bdx, bdy, bdc), true
}

// curC returns the channel of the sample being sliced; for planar inputs
// loads always carry channel 0, so the delta is taken against 0.
func (ex *extractor) curC() int {
	if !ex.bufs.In.Interleaved {
		return 0
	}
	return ex.curChannel
}

// dataSegment returns the program data segment containing ref, if any.
func (ex *extractor) dataSegment(ref trace.Ref) *isa.Segment {
	for i := range ex.prog.Data {
		seg := &ex.prog.Data[i]
		base := uint64(seg.Addr)
		if ref.Addr >= base && ref.Addr+uint64(ref.Width) <= base+uint64(len(seg.Data)) {
			return seg
		}
	}
	return nil
}

// sym returns the imported symbol of the external call at addr.
func (ex *extractor) sym(addr uint32) string {
	if pc, ok := ex.prog.Lookup(addr); ok {
		return ex.prog.Insts[pc].Sym
	}
	return ""
}

// segmentRef lifts a read-only data segment access: a fixed address is a
// compiled-in constant, a register-indexed address is a table lookup whose
// index expression is reconstructed from the address registers (paper
// section 4.7, table lookups such as Photoshop's brightness LUT).
func (ex *extractor) segmentRef(seq int, ref trace.Ref, seg *isa.Segment) (*ir.Expr, error) {
	di := ex.tr.At(seq)
	if di.MemAddr != ref.Addr || !di.HasMem || len(ex.tr.AddrRefs(di)) == 0 {
		ex.nodes++
		return ex.refConst(ref), nil
	}

	// Rebuild the index expression from the static operand's address
	// registers: index = base + index*scale + (disp - segment base).
	pc, ok := ex.prog.Lookup(di.Addr)
	if !ok {
		return nil, fmt.Errorf("seq %d: traced address %#x is not in the program", seq, di.Addr)
	}
	inst := ex.prog.Insts[pc]
	var memOp *isa.Operand
	for _, o := range []*isa.Operand{&inst.Dst, &inst.Src, &inst.Src2} {
		if o.Kind == isa.KindMem {
			memOp = o
			break
		}
	}
	if memOp == nil {
		return nil, fmt.Errorf("seq %d: table access without a memory operand", seq)
	}
	var terms []*ir.Expr
	if memOp.Base != isa.RegNone {
		e, err := ex.addrRegExpr(seq, di, memOp.Base)
		if err != nil {
			return nil, err
		}
		terms = append(terms, e)
	}
	if memOp.Index != isa.RegNone {
		e, err := ex.addrRegExpr(seq, di, memOp.Index)
		if err != nil {
			return nil, err
		}
		if memOp.Scale != 1 {
			e = ex.t.bin(ir.OpMul, 4, e, ex.t.constant(int64(memOp.Scale)))
		}
		terms = append(terms, e)
	}
	if disp := int64(memOp.Disp) - int64(seg.Addr); disp != 0 || len(terms) == 0 {
		terms = append(terms, ex.t.constant(disp))
	}
	index := terms[0]
	for _, term := range terms[1:] {
		index = ex.t.bin(ir.OpAdd, 4, index, term)
	}
	if int(ref.Width) == 0 {
		return nil, fmt.Errorf("seq %d: zero-width table access", seq)
	}
	ex.nodes++
	return ex.t.node(ir.Expr{Op: ir.OpTable, Table: seg.Data, Elem: int(ref.Width)}, index), nil
}

// tableInRef lifts a read of an earlier stage's reduction table as a
// stage-input table lookup: the slot index is reconstructed from the
// access's scaled index register (mirroring the reduction recognizer's own
// index reconstruction), and the base register plus displacement must
// resolve to the table base so the index expression is in slots.  The
// table must be finished: a read ordered before the table's final write
// observes a partially built table, which no bind-at-eval-time table
// input can model.
func (ex *extractor) tableInRef(seq int, ref trace.Ref, tb *TableDesc) (*ir.Expr, error) {
	di := ex.tr.At(seq)
	if seq < tb.LastWrite {
		return nil, fmt.Errorf("%v at %#x (seq %d) reads the reduction table at %#x before the table is fully written (final table write at seq %d); a consuming stage must run after the whole reduction",
			di.Op, di.Addr, seq, ref.Addr, tb.LastWrite)
	}
	if int(ref.Width) != tb.Elem {
		return nil, fmt.Errorf("%v at %#x (seq %d) reads %d bytes of a reduction table with %d-byte slots; only whole-slot table reads are liftable",
			di.Op, di.Addr, seq, ref.Width, tb.Elem)
	}
	if !di.HasMem || di.MemAddr != ref.Addr {
		return nil, fmt.Errorf("%v at %#x (seq %d) reads the reduction table without an addressable memory operand", di.Op, di.Addr, seq)
	}
	pc, ok := ex.prog.Lookup(di.Addr)
	if !ok {
		return nil, fmt.Errorf("seq %d: traced address %#x is not in the program", seq, di.Addr)
	}
	inst := ex.prog.Insts[pc]
	var memOp *isa.Operand
	for _, o := range []*isa.Operand{&inst.Dst, &inst.Src, &inst.Src2} {
		if o.Kind == isa.KindMem {
			memOp = o
			break
		}
	}
	if memOp == nil {
		return nil, fmt.Errorf("seq %d: table read without a memory operand", seq)
	}

	// Constant residual of the addressing, in slots: the base register's
	// observed value plus the displacement, relative to the table base.
	// The base register is the table pointer — loop-invariant host state —
	// so its observed value stands in for its slice; a data-dependent base
	// yields per-sample residuals whose trees cannot collapse, and
	// unification rejects the stage downstream.
	baseVal := int64(0)
	if memOp.Base != isa.RegNone {
		found := false
		for _, r := range ex.tr.AddrRefs(di) {
			if r.Space == trace.SpaceReg && r.Addr == trace.RegAddr(memOp.Base) {
				baseVal, found = int64(r.Val), true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("seq %d: table base register %v not captured", seq, memOp.Base)
		}
	}
	residual := baseVal + int64(int32(memOp.Disp)) - int64(tb.Base)
	if residual%int64(tb.Elem) != 0 {
		return nil, fmt.Errorf("seq %d: table read residual %d is not slot-aligned (element width %d)", seq, residual, tb.Elem)
	}

	var idx *ir.Expr
	if memOp.Index == isa.RegNone {
		idx = ex.t.constant(residual / int64(tb.Elem))
	} else {
		if int(memOp.Scale) != tb.Elem {
			return nil, fmt.Errorf("seq %d: table read scales its index by %d but slots are %d bytes wide", seq, memOp.Scale, tb.Elem)
		}
		e, err := ex.addrRegExpr(seq, di, memOp.Index)
		if err != nil {
			return nil, err
		}
		idx = e
		if k := residual / int64(tb.Elem); k != 0 {
			idx = ex.t.bin(ir.OpAdd, 4, idx, ex.t.constant(k))
		}
	}
	ex.nodes++
	return ex.t.node(ir.Expr{Op: ir.OpTableIn, Elem: tb.Elem}, idx), nil
}

// addrRegExpr resolves the captured pre-execution value reference of an
// address register of instruction di.
func (ex *extractor) addrRegExpr(seq int, di *trace.Record, r isa.Reg) (*ir.Expr, error) {
	addr := trace.RegAddr(r)
	for _, ref := range ex.tr.AddrRefs(di) {
		if ref.Space == trace.SpaceReg && ref.Addr == addr && int(ref.Width) == r.Width() {
			return ex.refExpr(seq, ref)
		}
	}
	return nil, fmt.Errorf("seq %d: address register %v not captured", seq, r)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

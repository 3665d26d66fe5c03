package vm

import (
	"fmt"

	"helium/internal/faultpoint"
	"helium/internal/isa"
	"helium/internal/trace"
)

// DefaultMaxSteps bounds a run when the caller does not specify a limit.
const DefaultMaxSteps uint64 = 500_000_000

// fpTruncateTrace fails the trace run after a short prefix, modeling a
// capture that died mid-filter (the paper's traces come from an external
// Pin tool, which can be killed or run out of disk).
var fpTruncateTrace = faultpoint.Register("trace.truncate",
	"abort the instruction trace after 256 records")

// fpTruncateAfter is the record count at which the armed faultpoint fires.
const fpTruncateAfter = 256

// CoverageOptions configures an instrumented coverage run (paper section
// 3.1).
type CoverageOptions struct {
	// MaxSteps bounds the number of executed instructions (0 = default).
	MaxSteps uint64
	// ExcludeBlocks lists block leaders left uninstrumented: their call
	// targets and memory accesses are not collected, although they still
	// count in Blocks.  Code localization's on-run passes the off-run's
	// coverage here, so it instruments exactly the coverage difference.  A
	// nil map instruments every block.
	ExcludeBlocks map[uint32]bool
	// TraceMemory collects a memory access trace for instrumented blocks.
	TraceMemory bool
	// Capture traces a filter candidate during the run.  The first direct
	// call from an instrumented block to an address outside ExcludeBlocks
	// that the run has not executed yet names the candidate; from that
	// call on the run captures exactly what RunTrace would with the
	// candidate as FilterEntry.  Localization's on-run sets it, so a lift
	// whose filter is that candidate needs no separate trace run.
	Capture bool
	// MaxTraceInsts bounds the captured dynamic instructions (0 =
	// unlimited).
	MaxTraceInsts int
}

// CoverageResult is the outcome of a coverage run.
type CoverageResult struct {
	// Blocks maps every covered basic block leader to its execution count.
	Blocks map[uint32]uint64
	// CallTargets maps call instruction addresses to the set of dynamic
	// callee entry addresses.
	CallTargets map[uint32]map[uint32]bool
	// MemTrace is the memory access trace of instrumented blocks (only when
	// TraceMemory was set).
	MemTrace []trace.MemAccess
	// Steps is the number of instructions executed.
	Steps uint64
	// Capture is the trace captured under CoverageOptions.Capture, or nil
	// when no call named a candidate.
	Capture *Capture
}

// Capture is a filter trace taken during a coverage run.
type Capture struct {
	// Entry is the candidate filter entry the capture traced.
	Entry uint32
	// Trace is what RunTrace with FilterEntry Entry returns on the same
	// run; nil when Err is set.
	Trace *TraceResult
	// Err is the error RunTrace would have failed with (the trace budget,
	// an injected truncation).  The coverage run itself went on.
	Err error
}

// Covered returns the set of covered block leaders.
func (r *CoverageResult) Covered() map[uint32]bool {
	out := make(map[uint32]bool, len(r.Blocks))
	for b := range r.Blocks {
		out[b] = true
	}
	return out
}

// RunCoverage executes the program from its current state until it halts,
// collecting basic block coverage, call targets, (optionally) a memory
// trace and (optionally) a capture of the first filter candidate.
func (m *Machine) RunCoverage(opts CoverageOptions) (*CoverageResult, error) {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	// Leader and exclusion flags by instruction index, so the step loop
	// looks up neither map.
	leaders := m.Prog.Leaders()
	isLeader := make([]bool, len(m.Prog.Insts))
	excluded := make([]bool, len(m.Prog.Insts))
	for i := range m.Prog.Insts {
		addr := m.Prog.Insts[i].Addr
		isLeader[i], excluded[i] = leaders[addr], opts.ExcludeBlocks[addr]
	}
	res := &CoverageResult{
		Blocks:      make(map[uint32]uint64),
		CallTargets: make(map[uint32]map[uint32]bool),
	}
	rec := &stepRecord{}
	curInstrumented := true
	// tr is the capture's tracer once a call has named the candidate.
	// Until then ran marks the instructions executed so far: a candidate
	// must not have run yet, or the capture would miss its earlier visits.
	var tr *tracer
	var captured *trace.InstTrace
	var ran []bool
	if opts.Capture {
		ran = make([]bool, len(m.Prog.Insts))
	}

	for !m.halted {
		if m.steps >= maxSteps {
			return nil, fmt.Errorf("vm: %s exceeded %d steps during coverage run", m.Prog.Name, maxSteps)
		}
		idx := m.pc
		if idx < 0 {
			return nil, m.faultf("no instruction at eip")
		}
		if isLeader[idx] {
			res.Blocks[m.eip]++
			curInstrumented = !excluded[idx]
		}
		in := &m.Prog.Insts[idx]
		if in.Op == isa.CALL && in.Sym == "" && curInstrumented {
			if res.CallTargets[in.Addr] == nil {
				res.CallTargets[in.Addr] = make(map[uint32]bool)
			}
			res.CallTargets[in.Addr][in.Target] = true
			if ti := m.Prog.Successors(idx).Target; ran != nil && !opts.ExcludeBlocks[in.Target] && (ti < 0 || !ran[ti]) {
				res.Capture = &Capture{Entry: in.Target}
				captured = &trace.InstTrace{}
				tr = newTracer(m, TraceOptions{FilterEntry: in.Target, MaxTraceInsts: opts.MaxTraceInsts}, captured)
				ran = nil
			}
		}
		if ran != nil {
			ran[idx] = true
		}

		traced := tr != nil && tr.enter()
		var r *stepRecord
		if traced || opts.TraceMemory && curInstrumented {
			rec.reset()
			r = rec
		}
		if err := m.step(r); err != nil {
			return nil, err
		}
		if opts.TraceMemory && curInstrumented {
			res.MemTrace = append(res.MemTrace, r.accesses...)
		}
		if traced {
			if err := tr.emit(r); err != nil {
				res.Capture.Err, tr = err, nil
			}
		}
	}
	res.Steps = m.steps
	if tr != nil {
		sr := tr.finish()
		res.Capture.Trace = &TraceResult{Trace: captured, Dump: sr.Dump, FilterCalls: sr.FilterCalls, Steps: sr.Steps}
	}
	return res, nil
}

// TraceOptions configures a detailed instruction trace capture run
// (paper section 4.1).
type TraceOptions struct {
	// MaxSteps bounds the number of executed instructions (0 = default).
	MaxSteps uint64
	// FilterEntry is the entry address of the filter function selected by
	// code localization.  Tracing is active from each entry to the matching
	// return and includes functions the filter calls.
	FilterEntry uint32
	// MaxTraceInsts bounds the number of captured dynamic instructions
	// (0 = unlimited).
	MaxTraceInsts int
}

// StreamResult is the outcome of a streaming trace run: everything RunTrace
// reports except the collected instruction records, which went to the sink.
type StreamResult struct {
	// Dump is the page-granularity memory dump of memory touched by the
	// filter function: read pages captured eagerly, written pages at filter
	// exit.
	Dump *trace.MemDump
	// FilterCalls is the number of times the filter function was entered.
	FilterCalls int
	// Insts is the number of dynamic instruction records emitted.
	Insts int
	// Steps is the total number of instructions executed (traced or not).
	Steps uint64
}

// TraceResult is the outcome of a batch trace capture run.
type TraceResult struct {
	// Trace is the captured dynamic instruction trace.
	Trace *trace.InstTrace
	// Dump is the page-granularity memory dump of memory touched by the
	// filter function: read pages captured eagerly, written pages at filter
	// exit.
	Dump *trace.MemDump
	// FilterCalls is the number of times the filter function was entered.
	FilterCalls int
	// Steps is the total number of instructions executed (traced or not).
	Steps uint64
}

// tracer is the filter tracing rule, shared by trace runs and capturing
// coverage runs.  Tracing starts whenever the machine reaches the filter
// entry and stops when the call depth falls below the entry's; every
// traced step goes to the sink as one record.  The memory dump takes read
// pages eagerly, before a later write can disturb them, and written pages
// at each filter exit and at the end of the run.
type tracer struct {
	m        *Machine
	entry    uint32
	maxInsts int
	sink     trace.Sink

	active  bool
	depth   int
	res     StreamResult
	written map[uint64]bool
}

func newTracer(m *Machine, opts TraceOptions, sink trace.Sink) *tracer {
	return &tracer{
		m: m, entry: opts.FilterEntry, maxInsts: opts.MaxTraceInsts, sink: sink,
		res:     StreamResult{Dump: trace.NewMemDump(pageSize)},
		written: make(map[uint64]bool),
	}
}

// enter reports whether the next step is traced, entering the filter when
// the machine stands at its entry.
func (t *tracer) enter() bool {
	if !t.active && t.m.eip == t.entry {
		t.active = true
		t.depth = t.m.callDepth
		t.res.FilterCalls++
	}
	return t.active
}

// emit hands a traced step's record to the sink and applies the trace's
// bounds, the dump rule and the filter exit.
func (t *tracer) emit(r *stepRecord) error {
	di := trace.DynInst{
		Seq:     t.res.Insts,
		Addr:    r.instAddr,
		Op:      r.op,
		Width:   r.width,
		Taken:   r.taken,
		Sym:     r.sym,
		MemAddr: r.memAddr,
		HasMem:  r.hasMem,
	}
	if n := len(r.effects); n > 0 {
		di.Effects = r.effects[:n:n]
	}
	if n := len(r.addrRefs); n > 0 {
		di.AddrRefs = r.addrRefs[:n:n]
	}
	if err := t.sink.Emit(di); err != nil {
		return err
	}
	t.res.Insts++
	if t.maxInsts > 0 && t.res.Insts > t.maxInsts {
		return fmt.Errorf("vm: trace exceeded %d instructions", t.maxInsts)
	}
	if t.res.Insts == fpTruncateAfter && faultpoint.Enabled(fpTruncateTrace) {
		return fmt.Errorf("vm: trace capture aborted after %d records (injected fault %s)", t.res.Insts, fpTruncateTrace)
	}
	for _, acc := range r.accesses {
		page := acc.Addr &^ uint64(pageSize-1)
		if acc.Write {
			t.written[page] = true
		} else if _, ok := t.res.Dump.Pages[page]; !ok {
			t.res.Dump.Pages[page] = t.m.Mem.PageBytes(uint32(page))
		}
	}
	if t.m.callDepth < t.depth {
		t.active = false
		t.dumpWritten()
	}
	return nil
}

func (t *tracer) dumpWritten() {
	for page := range t.written {
		t.res.Dump.Pages[page] = t.m.Mem.PageBytes(uint32(page))
	}
}

// finish completes the dump at the end of the run and returns the totals.
func (t *tracer) finish() *StreamResult {
	t.dumpWritten()
	t.res.Steps = t.m.steps
	return &t.res
}

// RunTraceStream executes the program from its current state until it
// halts, streaming one trace.DynInst per dynamic instruction executed
// inside the filter function (including its callees) to sink.  The memory
// dump is still accumulated here because only the emulator can snapshot
// pages before later writes disturb them.
//
// The record's Effects (with their Srcs) and AddrRefs are the machine's own
// per-step buffers, overwritten by the next instruction: a sink that keeps
// them past Emit must copy them, as trace.InstTrace does.
func (m *Machine) RunTraceStream(opts TraceOptions, sink trace.Sink) (*StreamResult, error) {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	tr := newTracer(m, opts, sink)
	rec := &stepRecord{}
	for !m.halted {
		if m.steps >= maxSteps {
			return nil, fmt.Errorf("vm: %s exceeded %d steps during trace run", m.Prog.Name, maxSteps)
		}
		if !tr.enter() {
			if err := m.step(nil); err != nil {
				return nil, err
			}
			continue
		}
		rec.reset()
		if err := m.step(rec); err != nil {
			return nil, err
		}
		if err := tr.emit(rec); err != nil {
			return nil, err
		}
	}
	return tr.finish(), nil
}

// RunTrace is the batch form of RunTraceStream: it collects the streamed
// records into an InstTrace, whose operands are linked to their
// definitions as they arrive, ready for the backward analysis.
func (m *Machine) RunTrace(opts TraceOptions) (*TraceResult, error) {
	t := &trace.InstTrace{}
	sr, err := m.RunTraceStream(opts, t)
	if err != nil {
		return nil, err
	}
	return &TraceResult{
		Trace:       t,
		Dump:        sr.Dump,
		FilterCalls: sr.FilterCalls,
		Steps:       sr.Steps,
	}, nil
}

// Run executes the program from its current state until it halts, without
// instrumentation.  It is used by harnesses that only need the program's
// output (for example to validate lifted kernels against the original).
func (m *Machine) Run(maxSteps uint64) error {
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	for !m.halted {
		if m.steps >= maxSteps {
			return fmt.Errorf("vm: %s exceeded %d steps", m.Prog.Name, maxSteps)
		}
		if err := m.step(nil); err != nil {
			return err
		}
	}
	return nil
}

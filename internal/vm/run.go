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

// Edge is a dynamic control-flow edge between two basic block leaders.
type Edge struct {
	From, To uint32
}

// CoverageOptions configures an instrumented coverage run (paper section
// 3.1).
type CoverageOptions struct {
	// MaxSteps bounds the number of executed instructions (0 = default).
	MaxSteps uint64
	// ExcludeBlocks lists block leaders left uninstrumented: their call
	// targets, edges and memory accesses are not collected, although they
	// still count in Blocks.  Code localization's on-run passes the off-run's
	// coverage here, so it instruments exactly the coverage difference.  A
	// nil map instruments every block.
	ExcludeBlocks map[uint32]bool
	// TraceMemory collects a memory access trace for instrumented blocks.
	TraceMemory bool
}

// CoverageResult is the outcome of a coverage run.
type CoverageResult struct {
	// Blocks maps every covered basic block leader to its execution count.
	Blocks map[uint32]uint64
	// Edges maps predecessor edges between instrumented blocks to counts.
	Edges map[Edge]uint64
	// CallTargets maps call instruction addresses to the set of dynamic
	// callee entry addresses.
	CallTargets map[uint32]map[uint32]bool
	// MemTrace is the memory access trace of instrumented blocks (only when
	// TraceMemory was set).
	MemTrace []trace.MemAccess
	// Steps is the number of instructions executed.
	Steps uint64
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
// collecting basic block coverage, dynamic control-flow edges, call targets
// and (optionally) a memory trace.
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
		Edges:       make(map[Edge]uint64),
		CallTargets: make(map[uint32]map[uint32]bool),
	}
	rec := &stepRecord{}
	var curBlock uint32
	var haveBlock bool
	curInstrumented := true

	for !m.halted {
		if m.steps >= maxSteps {
			return nil, fmt.Errorf("vm: %s exceeded %d steps during coverage run", m.Prog.Name, maxSteps)
		}
		idx := m.pc
		if idx < 0 {
			return nil, m.faultf("no instruction at eip")
		}
		if eip := m.eip; isLeader[idx] {
			res.Blocks[eip]++
			instrumented := !excluded[idx]
			if instrumented && haveBlock && curInstrumented {
				res.Edges[Edge{From: curBlock, To: eip}]++
			}
			curBlock, haveBlock, curInstrumented = eip, true, instrumented
		}
		in := &m.Prog.Insts[idx]
		if in.Op == isa.CALL && in.Sym == "" && curInstrumented {
			if res.CallTargets[in.Addr] == nil {
				res.CallTargets[in.Addr] = make(map[uint32]bool)
			}
			res.CallTargets[in.Addr][in.Target] = true
		}

		var r *stepRecord
		if opts.TraceMemory && curInstrumented {
			rec.reset()
			r = rec
		}
		if err := m.step(r); err != nil {
			return nil, err
		}
		if r != nil && len(r.accesses) > 0 {
			res.MemTrace = append(res.MemTrace, r.accesses...)
		}
	}
	res.Steps = m.steps
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
	res := &StreamResult{
		Dump: trace.NewMemDump(pageSize),
	}
	writtenPages := make(map[uint64]bool)
	dumpWritten := func() {
		for page := range writtenPages {
			res.Dump.Pages[page] = m.Mem.PageBytes(uint32(page))
		}
	}

	rec := &stepRecord{}
	tracing := false
	entryDepth := 0

	for !m.halted {
		if m.steps >= maxSteps {
			return nil, fmt.Errorf("vm: %s exceeded %d steps during trace run", m.Prog.Name, maxSteps)
		}
		if !tracing && m.eip == opts.FilterEntry {
			tracing = true
			entryDepth = m.callDepth
			res.FilterCalls++
		}
		var r *stepRecord
		if tracing {
			rec.reset()
			r = rec
		}
		if err := m.step(r); err != nil {
			return nil, err
		}
		if r != nil {
			di := trace.DynInst{
				Seq:     res.Insts,
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
			if err := sink.Emit(di); err != nil {
				return nil, err
			}
			res.Insts++
			if opts.MaxTraceInsts > 0 && res.Insts > opts.MaxTraceInsts {
				return nil, fmt.Errorf("vm: trace exceeded %d instructions", opts.MaxTraceInsts)
			}
			if res.Insts == fpTruncateAfter && faultpoint.Enabled(fpTruncateTrace) {
				return nil, fmt.Errorf("vm: trace capture aborted after %d records (injected fault %s)", res.Insts, fpTruncateTrace)
			}
			// Memory dump: read pages are captured eagerly (before any later
			// write can disturb them), written pages at filter exit.
			for _, acc := range r.accesses {
				page := acc.Addr &^ uint64(pageSize-1)
				if acc.Write {
					writtenPages[page] = true
				} else if _, ok := res.Dump.Pages[page]; !ok {
					res.Dump.Pages[page] = m.Mem.PageBytes(uint32(page))
				}
			}
			if tracing && m.callDepth < entryDepth {
				tracing = false
				dumpWritten()
			}
		}
	}
	dumpWritten()
	res.Steps = m.steps
	return res, nil
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

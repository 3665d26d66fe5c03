package vm

import (
	"reflect"
	"testing"

	"helium/internal/isa"
	"helium/internal/trace"
)

// fuzzEntry is where fuzzed programs are laid out; the value itself is
// arbitrary (hostile branch targets leave it on purpose).
const fuzzEntry uint32 = 0x00401000

// fuzzOperand decodes four bytes into an operand, deliberately including
// encodings no assembler would emit: out-of-range registers, zero and odd
// memory widths, invalid kinds.  The machine must fault, not panic.
func fuzzOperand(b []byte) isa.Operand {
	switch b[0] % 5 {
	case 0:
		return isa.RegOp(isa.Reg(b[1]))
	case 1:
		return isa.ImmOp(int64(int8(b[1])) << (b[2] % 24))
	case 2:
		return isa.Mem(isa.Reg(b[1]), int32(int8(b[2]))*257, []int{1, 2, 4, 8}[b[3]%4])
	case 3:
		return isa.MemOp(isa.Reg(b[1]%32), isa.Reg(b[2]%32), int32(1<<(b[3]%4)),
			int32(int8(b[3])), []int{1, 2, 4, 8}[b[1]%4])
	default:
		// Raw operand: arbitrary kind, arbitrary width (0..8).
		return isa.Operand{Kind: isa.OperandKind(b[1] % 4), Reg: isa.Reg(b[2]),
			Base: isa.Reg(b[3]), Width: int(b[2] % 9)}
	}
}

// fuzzProgram decodes a byte string into a hostile program: every 10-byte
// group is one instruction whose opcode, operands and branch target all
// come straight from the fuzzer.  Targets mostly stay inside the program
// so control flow actually happens; one encoding escapes it to exercise
// the no-instruction-at-eip fault.
func fuzzProgram(data []byte) *isa.Program {
	const instBytes = 10
	n := len(data) / instBytes
	if n == 0 {
		return nil
	}
	if n > 512 {
		n = 512
	}
	p := &isa.Program{Name: "fuzz", Entry: fuzzEntry}
	for i := 0; i < n; i++ {
		b := data[i*instBytes : (i+1)*instBytes]
		target := fuzzEntry + uint32(b[9]%byte(n))*4
		if b[9] == 0xff {
			target = fuzzEntry - 4 // branch out of the program
		}
		p.Insts = append(p.Insts, isa.Inst{
			Addr:   fuzzEntry + uint32(i)*4,
			Op:     isa.Opcode(int(b[0]) % isa.NumOpcodes),
			Dst:    fuzzOperand(b[1:5]),
			Src:    fuzzOperand(b[5:9]),
			Src2:   isa.ImmOp(int64(b[9] % 8)),
			Target: target,
		})
	}
	p.BuildIndex()
	return p
}

// FuzzVM feeds arbitrary instruction streams to the emulator under every
// instrumentation mode.  The contract is narrow and absolute: bounded
// runs return — with a structured fault or a clean halt — and never
// panic, whatever the bytes decode to.  The batch trace must also hold
// exactly the records the streaming tracer emitted, copied at Emit time:
// the tracer reuses its record buffers, so any aliasing shows up here.
func FuzzVM(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		if p == nil {
			return
		}
		const budget = 10_000

		m := NewMachine(p)
		_ = m.Run(budget)
		if m.Steps() > budget {
			t.Fatalf("run overshot its step budget: %d > %d", m.Steps(), budget)
		}

		m.Reset()
		_, _ = m.RunCoverage(CoverageOptions{MaxSteps: budget})

		opts := TraceOptions{MaxSteps: budget, FilterEntry: p.Entry, MaxTraceInsts: budget}
		m.Reset()
		var want []trace.DynInst
		kept := &trace.InstTrace{}
		_, serr := m.RunTraceStream(opts, trace.SinkFunc(func(di trace.DynInst) error {
			want = append(want, deepCopy(di))
			return kept.Emit(di)
		}))
		sameRecords(t, "InstTrace fed by the stream", p, kept, want)

		m.Reset()
		res, err := m.RunTrace(opts)
		if (err == nil) != (serr == nil) {
			t.Fatalf("RunTrace error %v, RunTraceStream error %v", err, serr)
		}
		if err == nil {
			sameRecords(t, "RunTrace", p, res.Trace, want)
		}

		// A capturing coverage run with nothing excluded must capture
		// exactly what a trace run at the captured entry streams.
		m.Reset()
		cov, err := m.RunCoverage(CoverageOptions{MaxSteps: budget, ExcludeBlocks: map[uint32]bool{}, Capture: true, MaxTraceInsts: budget})
		if err != nil || cov.Capture == nil {
			return
		}
		opts.FilterEntry = cov.Capture.Entry
		m.Reset()
		want = want[:0]
		sr, serr := m.RunTraceStream(opts, trace.SinkFunc(func(di trace.DynInst) error {
			want = append(want, deepCopy(di))
			return nil
		}))
		sameCapture(t, p, cov.Capture, sr, serr, want)
	})
}

// sameCapture demands that a capture equals the trace run streaming want
// at its entry: the same error, or the same records, dump and counts.
func sameCapture(t *testing.T, p *isa.Program, c *Capture, sr *StreamResult, serr error, want []trace.DynInst) {
	t.Helper()
	if (c.Err == nil) != (serr == nil) || c.Err != nil && c.Err.Error() != serr.Error() {
		t.Fatalf("capture at %#x: error %v, trace run error %v", c.Entry, c.Err, serr)
	}
	if serr != nil {
		if c.Trace != nil {
			t.Fatalf("capture at %#x failed with %v but kept a trace", c.Entry, c.Err)
		}
		return
	}
	sameRecords(t, "capture", p, c.Trace.Trace, want)
	if !reflect.DeepEqual(c.Trace.Dump, sr.Dump) {
		t.Fatalf("capture at %#x: dump of %d pages, trace run dumped %d", c.Entry, len(c.Trace.Dump.Pages), len(sr.Dump.Pages))
	}
	if c.Trace.FilterCalls != sr.FilterCalls || c.Trace.Steps != sr.Steps || c.Trace.Trace.Len() != sr.Insts {
		t.Fatalf("capture at %#x: %d filter calls, %d steps, %d records; trace run %d, %d, %d",
			c.Entry, c.Trace.FilterCalls, c.Trace.Steps, c.Trace.Trace.Len(), sr.FilterCalls, sr.Steps, sr.Insts)
	}
}

// sameRecords demands that tr holds exactly the records of want, apart
// from the Def links only the trace fills in, and that every Def names the
// last earlier record that wrote any byte of its ref.  The expected links
// come from replaying the records into a plain byte-to-writer map, which
// keeps the check linear in the trace so the fuzzer's throughput holds.
func sameRecords(t *testing.T, what string, p *isa.Program, tr *trace.InstTrace, want []trace.DynInst) {
	t.Helper()
	if tr.Len() != len(want) {
		t.Fatalf("%s kept %d records, the stream emitted %d", what, tr.Len(), len(want))
	}
	writer := map[uint64]int32{}
	for i := range want {
		got := stored(tr, p, i)
		forEachRef(&got, func(r *trace.Ref) {
			var def int32
			if r.Space != trace.SpaceImm && r.Space != trace.SpaceNone {
				for b := uint64(0); b < uint64(r.Width); b++ {
					def = max(def, writer[r.Addr+b])
				}
			}
			if r.Def != def {
				t.Fatalf("%s record %d ref %v: Def = %d, want %d", what, i, *r, r.Def, def)
			}
			r.Def = 0
		})
		for _, ef := range got.Effects {
			if d := ef.Dst; d.Space != trace.SpaceImm && d.Space != trace.SpaceNone {
				for b := uint64(0); b < uint64(d.Width); b++ {
					writer[d.Addr+b] = int32(i) + 1
				}
			}
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s record %d:\n got %+v\nwant %+v", what, i, got, want[i])
		}
	}
}

// forEachRef calls fn on every source and address ref of di.
func forEachRef(di *trace.DynInst, fn func(*trace.Ref)) {
	for e := range di.Effects {
		for s := range di.Effects[e].Srcs {
			fn(&di.Effects[e].Srcs[s])
		}
	}
	for a := range di.AddrRefs {
		fn(&di.AddrRefs[a])
	}
}

package lift_test

import (
	"strings"
	"testing"

	"helium/internal/isa"
	"helium/internal/lift"
	"helium/internal/trace"
)

// Synthetic single-sample traces: one output byte at outBase, one known
// input byte at inBase, so rejection paths and flag lifting can be
// exercised without building a whole legacy binary.
const (
	synthInBase  = 0x4000
	synthOutBase = 0x5000
)

func synthBufs() *lift.Buffers {
	return &lift.Buffers{
		In:  lift.InputDesc{Base: synthInBase, Stride: 16, Channels: 1},
		Out: lift.OutputDesc{Base: synthOutBase, Stride: 1, RowBytes: 1, Rows: 1, Channels: 1},
	}
}

func memRef(addr uint64, width uint8, val uint64) trace.Ref {
	return trace.Ref{Space: trace.SpaceMem, Addr: addr, Width: width, Val: val}
}

func regRef(r isa.Reg, width uint8, val uint64) trace.Ref {
	return trace.Ref{Space: trace.SpaceReg, Addr: trace.RegAddr(r), Width: width, Val: val}
}

func immRef(v int64) trace.Ref {
	return trace.Ref{Space: trace.SpaceImm, Width: 4, Val: uint64(v)}
}

func flagsRef() trace.Ref {
	return trace.Ref{Space: trace.SpaceFlags, Addr: trace.FlagsAddr, Width: 4}
}

func synthTrace(insts []trace.DynInst) *trace.InstTrace {
	tr := &trace.InstTrace{}
	for i, di := range insts {
		di.Seq = i
		tr.Emit(di)
	}
	return tr
}

// extractErr runs extraction over a synthetic trace and returns the error
// text (failing the test on success).
func extractErr(t *testing.T, insts []trace.DynInst) string {
	t.Helper()
	_, err := lift.ExtractWorkers(synthTrace(insts), &isa.Program{}, synthBufs(), 1)
	if err == nil {
		t.Fatal("extraction of an unliftable trace succeeded")
	}
	return err.Error()
}

// TestExtractRejectsFlagCarrying pins the flag-carrying rejection: the
// error names the offending instruction and its address and points at the
// nearest supported pattern.
func TestExtractRejectsFlagCarrying(t *testing.T) {
	msg := extractErr(t, []trace.DynInst{{
		Addr: 0x401234, Op: isa.ADC,
		Effects: []trace.Effect{{
			Dst: memRef(synthOutBase, 1, 3),
			Op:  trace.OpAdd,
			// Three operands: the carry flag rides along, which a value
			// slice cannot reconstruct.
			Srcs: []trace.Ref{immRef(1), immRef(2), flagsRef()},
		}},
	}})
	for _, want := range []string{"adc", "0x401234", "carry flag", "plain add/sub"} {
		if !strings.Contains(msg, want) {
			t.Errorf("flag-carrying rejection %q does not mention %q", msg, want)
		}
	}
}

// TestExtractRejectsPartialWrite pins the partial-write rejection: the
// error names the writer, its address, and the supported alternative.
func TestExtractRejectsPartialWrite(t *testing.T) {
	msg := extractErr(t, []trace.DynInst{
		{
			// Writes only the low two bytes of EAX...
			Addr: 0x401100, Op: isa.MOV,
			Effects: []trace.Effect{{
				Dst:  regRef(isa.AX, 2, 7),
				Op:   trace.OpIdentity,
				Srcs: []trace.Ref{immRef(7)},
			}},
		},
		{
			// ...which the store then reads back at full width.
			Addr: 0x401108, Op: isa.MOV,
			Effects: []trace.Effect{{
				Dst:  memRef(synthOutBase, 1, 7),
				Op:   trace.OpIdentity,
				Srcs: []trace.Ref{regRef(isa.EAX, 4, 7)},
			}},
		},
	})
	for _, want := range []string{"mov", "0x401100", "partial-write slicing is unsupported", "stored width"} {
		if !strings.Contains(msg, want) {
			t.Errorf("partial-write rejection %q does not mention %q", msg, want)
		}
	}
}

// TestExtractRejectsSignOverflowBranch pins the guard rejection for
// condition codes a value slice cannot reconstruct (js after cmp needs
// the sign of the subtraction including overflow).
func TestExtractRejectsSignOverflowBranch(t *testing.T) {
	msg := extractErr(t, []trace.DynInst{
		{
			Addr: 0x401200, Op: isa.MOVZX,
			Effects: []trace.Effect{{
				Dst:  regRef(isa.EAX, 4, 9),
				Op:   trace.OpZExt,
				Srcs: []trace.Ref{memRef(synthInBase, 1, 9)},
			}},
		},
		{
			Addr: 0x401208, Op: isa.CMP, Width: 4,
			Effects: []trace.Effect{{
				Dst:  flagsRef(),
				Op:   trace.OpCmp,
				Srcs: []trace.Ref{regRef(isa.EAX, 4, 9), immRef(5)},
			}},
		},
		{
			Addr: 0x401210, Op: isa.JS, Taken: true,
			Effects: []trace.Effect{{
				Dst:  trace.Ref{Space: trace.SpaceNone},
				Op:   trace.OpBranch,
				Srcs: []trace.Ref{flagsRef()},
			}},
		},
		{
			Addr: 0x401218, Op: isa.MOV,
			Effects: []trace.Effect{{
				Dst:  memRef(synthOutBase, 1, 1),
				Op:   trace.OpIdentity,
				Srcs: []trace.Ref{immRef(1)},
			}},
		},
	})
	for _, want := range []string{"js", "cmp", "0x401208", "sign and overflow"} {
		if !strings.Contains(msg, want) {
			t.Errorf("sign/overflow guard rejection %q does not mention %q", msg, want)
		}
	}
}

// TestExtractLiftsSetcc checks the setcc path: a materialized flag
// condition lifts to the IR comparison itself.
func TestExtractLiftsSetcc(t *testing.T) {
	trees, err := lift.ExtractWorkers(synthTrace([]trace.DynInst{
		{
			Addr: 0x401300, Op: isa.MOVZX,
			Effects: []trace.Effect{{
				Dst:  regRef(isa.EAX, 4, 9),
				Op:   trace.OpZExt,
				Srcs: []trace.Ref{memRef(synthInBase, 1, 9)},
			}},
		},
		{
			Addr: 0x401308, Op: isa.CMP, Width: 4,
			Effects: []trace.Effect{{
				Dst:  flagsRef(),
				Op:   trace.OpCmp,
				Srcs: []trace.Ref{regRef(isa.EAX, 4, 9), immRef(5)},
			}},
		},
		{
			Addr: 0x401310, Op: isa.SETB,
			Effects: []trace.Effect{{
				Dst:  regRef(isa.BL, 1, 0),
				Op:   trace.OpSelectSet,
				Srcs: []trace.Ref{flagsRef()},
			}},
		},
		{
			Addr: 0x401318, Op: isa.MOV,
			Effects: []trace.Effect{{
				Dst:  memRef(synthOutBase, 1, 0),
				Op:   trace.OpIdentity,
				Srcs: []trace.Ref{regRef(isa.BL, 1, 0)},
			}},
		},
	}), &isa.Program{}, synthBufs(), 1)
	if err != nil {
		t.Fatalf("ExtractWorkers: %v", err)
	}
	got := lift.Canonicalize(trees[0].Expr).String()
	if want := "(in(x, y) <u 5)"; got != want {
		t.Errorf("setcc lifted to %s, want %s", got, want)
	}
}

package isa_test

import (
	"fmt"
	"strings"
	"testing"

	"helium/internal/asm"
	"helium/internal/isa"
)

// TestRegViews pins where every general purpose register view sits inside
// its 32-bit register: the sub-register traffic (AL/AH/AX inside EAX) the
// trace and the extractor resolve byte by byte.
func TestRegViews(t *testing.T) {
	full := []isa.Reg{isa.EAX, isa.ECX, isa.EDX, isa.EBX, isa.ESP, isa.EBP, isa.ESI, isa.EDI}
	words := []isa.Reg{isa.AX, isa.CX, isa.DX, isa.BX, isa.SP, isa.BP, isa.SI, isa.DI}
	lows := []isa.Reg{isa.AL, isa.CL, isa.DL, isa.BL}
	highs := []isa.Reg{isa.AH, isa.CH, isa.DH, isa.BH}
	type view struct {
		full          isa.Reg
		offset, width int
	}
	want := map[isa.Reg]view{}
	for i, r := range full {
		want[r] = view{r, 0, 4}
		want[words[i]] = view{r, 0, 2}
	}
	for i := range lows {
		want[lows[i]] = view{full[i], 0, 1}
		want[highs[i]] = view{full[i], 1, 1}
	}
	gp := 0
	for r := isa.Reg(0); int(r) < isa.NumRegs; r++ {
		if !r.IsGP() {
			continue
		}
		gp++
		w, ok := want[r]
		if !ok {
			t.Errorf("%v is general purpose but has no expected view", r)
			continue
		}
		if got := (view{r.Full(), r.Offset(), r.Width()}); got != w {
			t.Errorf("%v: (Full, Offset, Width) = (%v, %d, %d), want (%v, %d, %d)",
				r, got.full, got.offset, got.width, w.full, w.offset, w.width)
		}
		if r.Offset()+r.Width() > r.Full().Width() {
			t.Errorf("%v: bytes [%d,%d) overrun %v", r, r.Offset(), r.Offset()+r.Width(), r.Full())
		}
	}
	if gp != len(want) {
		t.Errorf("%d general purpose registers, want %d", gp, len(want))
	}

	// The non-GP registers are their own full register.
	for _, c := range []struct {
		r     isa.Reg
		width int
	}{{isa.RegNone, 0}, {isa.EFLAGS, 4}, {isa.F0, 8}, {isa.F7, 8}} {
		if c.r.Full() != c.r || c.r.Offset() != 0 || c.r.Width() != c.width {
			t.Errorf("%v: (Full, Offset, Width) = (%v, %d, %d), want (%v, 0, %d)",
				c.r, c.r.Full(), c.r.Offset(), c.r.Width(), c.r, c.width)
		}
	}
}

// TestNamesDistinct checks that every defined register and opcode has its
// own non-empty spelling, and that out-of-range values fall back to a
// numbered one instead of aliasing a real name.
func TestNamesDistinct(t *testing.T) {
	seen := map[string]string{}
	check := func(what, name, fallback string) {
		t.Helper()
		if name == "" || strings.HasPrefix(name, fallback) {
			t.Errorf("%s has no name (got %q)", what, name)
			return
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("%s and %s are both spelled %q", prev, what, name)
		}
		seen[name] = what
	}
	for r := isa.Reg(0); int(r) < isa.NumRegs; r++ {
		check(fmt.Sprintf("reg %d", uint8(r)), r.String(), "reg(")
	}
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		check(fmt.Sprintf("opcode %d", uint8(op)), op.String(), "op(")
	}
	if got, want := isa.Reg(isa.NumRegs).String(), fmt.Sprintf("reg(%d)", isa.NumRegs); got != want {
		t.Errorf("out-of-range register spelled %q, want %q", got, want)
	}
	if got, want := isa.Opcode(isa.NumOpcodes).String(), fmt.Sprintf("op(%d)", isa.NumOpcodes); got != want {
		t.Errorf("out-of-range opcode spelled %q, want %q", got, want)
	}
}

// TestOpcodePredicatesNest pins the control-flow classification the
// leader computation and the VM rely on: every conditional jump is a
// jump, every jump ends a block, and call/ret end blocks without being
// jumps.
func TestOpcodePredicatesNest(t *testing.T) {
	var cond, jumps, branches int
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		if op.IsCondJump() {
			cond++
			if !op.IsJump() {
				t.Errorf("%v is a conditional jump but not a jump", op)
			}
			if !op.ReadsFlags() {
				t.Errorf("%v is a conditional jump but reads no flags", op)
			}
		}
		if op.IsJump() {
			jumps++
			if !op.IsBranch() {
				t.Errorf("%v is a jump but not a branch", op)
			}
		}
		if op.IsBranch() {
			branches++
		}
	}
	if isa.JMP.IsCondJump() || !isa.JMP.IsJump() {
		t.Error("jmp must be an unconditional jump")
	}
	for _, op := range []isa.Opcode{isa.CALL, isa.RET} {
		if op.IsJump() || !op.IsBranch() {
			t.Errorf("%v must end a block without being a jump", op)
		}
	}
	// JZ..JNS, plus JMP, plus CALL and RET.
	if cond != 12 || jumps != 13 || branches != 15 {
		t.Errorf("%d conditional jumps, %d jumps, %d branches; want 12, 13, 15", cond, jumps, branches)
	}
}

// TestLeaders checks the basic block leaders of a small well-formed
// program: the entry, every in-program branch or call target, and every
// instruction after a control transfer (an imported call included).
func TestLeaders(t *testing.T) {
	b := asm.New("leaders")
	b.Label("main")
	b.Mov(isa.RegOp(isa.ECX), isa.ImmOp(3)) // 0: entry
	b.Label("loop")
	b.Dec(isa.RegOp(isa.ECX))               // 1: jnz target
	b.Jcc(isa.JNZ, "loop")                  // 2
	b.Call("helper")                        // 3: after jnz
	b.Cmp(isa.RegOp(isa.EAX), isa.ImmOp(0)) // 4: after call
	b.Jcc(isa.JZ, "done")                   // 5
	b.Add(isa.RegOp(isa.EAX), isa.ImmOp(1)) // 6: after jz
	b.Label("done")
	b.Ret() // 7: jz target
	b.Label("helper")
	b.Mov(isa.RegOp(isa.EAX), isa.RegOp(isa.ECX)) // 8: after ret, call target
	b.CallSym("sqrt")                             // 9
	b.Ret()                                       // 10: after the imported call
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 11 {
		t.Fatalf("program has %d instructions, want 11", len(p.Insts))
	}
	if p.Entry != p.Insts[0].Addr {
		t.Fatalf("entry %#x, want the main label at %#x", p.Entry, p.Insts[0].Addr)
	}

	leaderIdx := []int{0, 1, 3, 4, 6, 7, 8, 10}
	want := map[uint32]bool{}
	for _, i := range leaderIdx {
		want[p.Insts[i].Addr] = true
	}
	leaders := p.Leaders()
	for addr := range leaders {
		if !want[addr] {
			t.Errorf("unexpected leader %#x", addr)
		}
	}
	for addr := range want {
		if !leaders[addr] {
			t.Errorf("missing leader %#x", addr)
		}
	}

	// Each instruction's block starts at the nearest leader at or before it.
	lead := 0
	for i, in := range p.Insts {
		if want[in.Addr] {
			lead = i
		}
		if got := p.BlockLeader(leaders, in.Addr); got != p.Insts[lead].Addr {
			t.Errorf("BlockLeader(inst %d at %#x) = %#x, want %#x", i, in.Addr, got, p.Insts[lead].Addr)
		}
	}
	// An address that holds no instruction is its own leader.
	stray := p.Insts[len(p.Insts)-1].Addr + 0x100
	if got := p.BlockLeader(leaders, stray); got != stray {
		t.Errorf("BlockLeader(%#x) = %#x, want the address itself", stray, got)
	}
}

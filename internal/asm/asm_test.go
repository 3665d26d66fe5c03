package asm

import (
	"strings"
	"testing"

	"helium/internal/isa"
)

// sampleBuilder assembles a small two-function program with forward and
// backward branches, a call, an imported call and every operand form, so
// that instruction lengths vary.
func sampleBuilder() *Builder {
	b := New("sample")
	b.Label("helper")
	b.Mov(isa.RegOp(isa.EAX), Arg(0))
	b.Ret()
	b.Label("main")
	b.Prologue(8)
	b.Mov(isa.RegOp(isa.ECX), isa.ImmOp(3))
	b.Label("loop")
	b.Lea(isa.EDX, isa.MemOp(isa.ESI, isa.ECX, 4, 16, 4))
	b.Call("helper")
	b.Dec(isa.RegOp(isa.ECX))
	b.Jcc(isa.JNZ, "loop")
	b.Jmp("done")
	b.Nop()
	b.Label("done")
	b.Fld(Local(1))
	b.CallSym("sqrt")
	b.Epilogue()
	return b
}

// TestBuildLayout checks the Program invariants the VM's dispatch relies
// on: instructions start at CodeBase, addresses strictly increase and each
// instruction starts where the previous one's encoding ends.
func TestBuildLayout(t *testing.T) {
	p, err := sampleBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "sample" {
		t.Errorf("Name = %q, want sample", p.Name)
	}
	if got := p.Insts[0].Addr; got != CodeBase {
		t.Errorf("first instruction at %#x, want CodeBase %#x", got, CodeBase)
	}
	for i := 1; i < len(p.Insts); i++ {
		prev, in := p.Insts[i-1], p.Insts[i]
		if in.Addr <= prev.Addr {
			t.Fatalf("inst %d at %#x does not follow inst %d at %#x", i, in.Addr, i-1, prev.Addr)
		}
		if want := prev.Addr + instLen(prev); in.Addr != want {
			t.Errorf("inst %d at %#x, want %#x (previous %v is %d bytes)", i, in.Addr, want, prev.Op, instLen(prev))
		}
	}
	for i, in := range p.Insts {
		if idx, ok := p.Lookup(in.Addr); !ok || idx != i {
			t.Errorf("Lookup(%#x) = (%d, %v), want (%d, true)", in.Addr, idx, ok, i)
		}
	}
}

// TestBuildLabels checks that every branch and call names the address of
// the instruction its label precedes, that LabelAddr agrees, and that the
// main label sets the entry point.
func TestBuildLabels(t *testing.T) {
	b := sampleBuilder()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Instruction index each label precedes, counted in sampleBuilder
	// (Prologue(8) is three instructions).
	want := map[string]int{"helper": 0, "main": 2, "loop": 6, "done": 12}
	for label, idx := range want {
		got, ok := LabelAddr(b, p, label)
		if !ok || got != p.Insts[idx].Addr {
			t.Errorf("LabelAddr(%q) = (%#x, %v), want (%#x, true)", label, got, ok, p.Insts[idx].Addr)
		}
	}
	if _, ok := LabelAddr(b, p, "nowhere"); ok {
		t.Error("LabelAddr found an undefined label")
	}
	targets := map[isa.Opcode]string{isa.CALL: "helper", isa.JNZ: "loop", isa.JMP: "done"}
	for _, in := range p.Insts {
		label, ok := targets[in.Op]
		if !ok || in.Sym != "" {
			continue
		}
		if in.Target != p.Insts[want[label]].Addr {
			t.Errorf("%v at %#x targets %#x, want %q at %#x", in.Op, in.Addr, in.Target, label, p.Insts[want[label]].Addr)
		}
	}
	if p.Entry != p.Insts[want["main"]].Addr {
		t.Errorf("Entry = %#x, want main at %#x", p.Entry, p.Insts[want["main"]].Addr)
	}

	// Without a main label the program starts at its first instruction.
	nb := New("nomain")
	nb.Nop()
	nb.Ret()
	np, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if np.Entry != np.Insts[0].Addr {
		t.Errorf("Entry without main = %#x, want the first instruction %#x", np.Entry, np.Insts[0].Addr)
	}
}

// TestBuildErrors checks that an undefined label, an empty program and the
// recorded builder errors fail Build with their messages.
func TestBuildErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(b *Builder)
		want  string
	}{
		{"undefined label", func(b *Builder) { b.Jmp("nowhere"); b.Ret() }, `undefined label "nowhere"`},
		{"empty program", func(*Builder) {}, "has no instructions"},
		{"duplicate label", func(b *Builder) { b.Label("x"); b.Nop(); b.Label("x"); b.Ret() }, `duplicate label "x"`},
		{"not a conditional jump", func(b *Builder) { b.Jcc(isa.JMP, "x"); b.Label("x"); b.Ret() }, "not a conditional jump"},
		{"label past the end", func(b *Builder) { b.Jmp("end"); b.Label("end") }, "past end of program"},
	} {
		b := New(tc.name)
		tc.build(b)
		p, err := b.Build()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Build = (%v, %v), want an error containing %q", tc.name, p, err, tc.want)
		}
	}
}

package vm

import (
	"math/rand"
	"strings"
	"testing"

	"helium/internal/isa"
)

// TestDispatchMatchesAddressStepping runs random control-flow programs
// with hostile layouts (duplicate and unsorted addresses, an address 0,
// targets outside the program) and checks the machine's resolved-index
// dispatch against stepping by address: look the instruction up at eip,
// fall through to the address of the next instruction in layout order
// (halting when that is 0 or there is none), branch to the target.
func TestDispatchMatchesAddressStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := []uint32{0, 0x10, 0x14, 0x18, 0x20, 0x24}
	ops := []isa.Opcode{isa.NOP, isa.NOP, isa.JMP, isa.JNZ, isa.JZ, isa.RET}
	for prog := 0; prog < 2000; prog++ {
		p := &isa.Program{Name: "dispatch", Entry: addrs[1+rng.Intn(len(addrs)-1)]}
		for i := rng.Intn(8) + 1; i > 0; i-- {
			p.Insts = append(p.Insts, isa.Inst{
				Addr:   addrs[rng.Intn(len(addrs))],
				Op:     ops[rng.Intn(len(ops))],
				Target: addrs[rng.Intn(len(addrs))] + uint32(rng.Intn(2))*0x100,
			})
		}
		p.BuildIndex()

		m := NewMachine(p)
		eip, halted := p.Entry, false
		for step := 0; step < 40 && !halted; step++ {
			err := m.step(nil)
			idx, ok := p.Lookup(eip)
			if !ok {
				if err == nil || !strings.Contains(err.Error(), "no instruction at eip") || m.EIP() != eip {
					t.Fatalf("program %d step %d: eip %#x is outside the program, got err %v at %#x\n%s", prog, step, eip, err, m.EIP(), p.Disassemble())
				}
				break
			}
			if err != nil {
				t.Fatalf("program %d step %d: %v\n%s", prog, step, err, p.Disassemble())
			}
			in := p.Insts[idx]
			switch {
			case in.Op == isa.RET:
				halted = true
			case in.Op == isa.JMP || in.Op == isa.JNZ: // ZF stays clear: always taken
				eip = in.Target
			default:
				eip = 0
				if idx+1 < len(p.Insts) {
					eip = p.Insts[idx+1].Addr
				}
				halted = eip == 0
			}
			if m.Halted() != halted || (!halted && m.EIP() != eip) {
				t.Fatalf("program %d step %d: machine at %#x (halted %v), want %#x (halted %v)\n%s",
					prog, step, m.EIP(), m.Halted(), eip, halted, p.Disassemble())
			}
		}
	}
}

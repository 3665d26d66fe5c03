package trace

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"helium/internal/isa"
)

// refIndex is the straightforward write index: every written byte maps to
// the ordered list of sequence numbers that wrote it.  The trace's compact
// index must answer every query exactly as this one does.
type refIndex map[uint64][]int

func newRefIndex(t *InstTrace) refIndex {
	idx := refIndex{}
	for s := 0; s < t.Len(); s++ {
		di := t.At(s)
		for _, ef := range di.Effects {
			d := ef.Dst
			if d.Space == SpaceImm || d.Space == SpaceNone {
				continue
			}
			for b := uint64(0); b < uint64(d.Width); b++ {
				idx[d.Addr+b] = append(idx[d.Addr+b], di.Seq)
			}
		}
	}
	return idx
}

func (idx refIndex) lastWriteBefore(seq int, addr uint64, width uint8) (int, bool) {
	best := -1
	for b := uint64(0); b < uint64(width); b++ {
		ws := idx[addr+b]
		if i := sort.SearchInts(ws, seq); i > 0 && ws[i-1] > best {
			best = ws[i-1]
		}
	}
	return best, best >= 0
}

// randomWrite picks a destination from a small pool so that addresses are
// rewritten many times and partial views overlap: byte, word and dword
// views of the same register, the flags, float registers, 1/2/4/8-byte
// memory writes to a few hot slots, and addresses outside both the
// register table and 32-bit memory.
func randomWrite(rng *rand.Rand) Ref {
	regs := []isa.Reg{isa.EAX, isa.AX, isa.AL, isa.AH, isa.ECX, isa.CL, isa.CH, isa.ESP, isa.F0, isa.F7}
	switch rng.Intn(8) {
	case 0, 1, 2:
		r := regs[rng.Intn(len(regs))]
		return Ref{Space: SpaceReg, Addr: RegAddr(r), Width: uint8(r.Width())}
	case 3:
		return Ref{Space: SpaceFlags, Addr: FlagsAddr, Width: 4}
	case 4, 5:
		hot := []uint64{0x1000, 0x1002, 0x1003, 0x20010, 0x0ffeffc, 0xfffffff8}
		w := []uint8{1, 2, 4, 8}[rng.Intn(4)]
		return Ref{Space: SpaceMem, Addr: hot[rng.Intn(len(hot))] + uint64(rng.Intn(3)), Width: w}
	case 6:
		return Ref{Space: SpaceMem, Addr: uint64(rng.Intn(64)), Width: []uint8{1, 2, 4, 8}[rng.Intn(4)]}
	default:
		// Outside the register table and above 32-bit memory: only a
		// hand-built trace can name these.
		odd := []Ref{
			{Space: SpaceReg, Addr: FlagsAddr + 8, Width: 4},
			{Space: SpaceMem, Addr: 1<<40 + 3, Width: 2},
			{Space: SpaceImm, Width: 4},
			{Space: SpaceNone, Addr: 0x1000, Width: 4},
		}
		return odd[rng.Intn(len(odd))]
	}
}

// TestWriteIndexMatchesReference builds random traces and compares
// LastWriteBefore with the reference index: walked backwards one byte at a
// time from the end of the trace it must list every writer of every probed
// byte, and random ranges at random points must get the same answer.
func TestWriteIndexMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := &InstTrace{}
		n := rng.Intn(3000) + 1
		for s := 0; s < n; s++ {
			di := DynInst{Seq: s}
			for e := rng.Intn(4); e > 0; e-- {
				di.Effects = append(di.Effects, Effect{Dst: randomWrite(rng), Op: OpIdentity})
			}
			tr.Emit(di)
		}
		tr.BuildWriteIndex()
		ref := newRefIndex(tr)

		// Every written byte, its neighbours and a few never-written ones.
		probe := map[uint64]bool{0x5000: true, RegAddr(isa.EDI): true, 1 << 41: true}
		for a := range ref {
			probe[a], probe[a-1], probe[a+1] = true, true, true
		}
		for a := range probe {
			// An instruction with two effects on the byte is one writer.
			want := slices.Compact(slices.Clone(ref[a]))
			var got []int
			// The bound stops a walk that fails to move backwards.
			for seq, ok := tr.LastWriteBefore(tr.Len(), a, 1); ok && len(got) <= len(want); seq, ok = tr.LastWriteBefore(seq, a, 1) {
				got = append(got, seq)
			}
			slices.Reverse(got)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: writers of %#x = %v, want %v", seed, a, got, want)
			}
		}
		for q := 0; q < 4000; q++ {
			w := randomWrite(rng)
			width := w.Width
			if rng.Intn(4) == 0 {
				width = uint8(rng.Intn(9))
			}
			seq := rng.Intn(n+2) - 1
			gw, gok := tr.LastWriteBefore(seq, w.Addr, width)
			ww, wok := ref.lastWriteBefore(seq, w.Addr, width)
			if gok != wok || (gok && gw != ww) {
				t.Fatalf("seed %d: LastWriteBefore(%d, %#x, %d) = (%d,%v), want (%d,%v)", seed, seq, w.Addr, width, gw, gok, ww, wok)
			}
		}
	}
}

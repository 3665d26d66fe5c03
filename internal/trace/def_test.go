package trace

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"helium/internal/isa"
)

// refIndex is the straightforward write index: every written byte maps to
// the ordered list of sequence numbers that wrote it.  Every Def link and
// every FinalWriter answer must match what it says.
type refIndex map[uint64][]int

func newRefIndex(t *InstTrace) refIndex {
	idx := refIndex{}
	for s := 0; s < t.Len(); s++ {
		for _, ef := range t.Effects(t.At(s)) {
			d := ef.Dst
			if d.Space == SpaceImm || d.Space == SpaceNone {
				continue
			}
			for b := uint64(0); b < uint64(d.Width); b++ {
				idx[d.Addr+b] = append(idx[d.Addr+b], s)
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

// wantDef is the Def the reference index gives a ref of record seq.
func (idx refIndex) wantDef(seq int, r Ref) int32 {
	if r.Space == SpaceImm || r.Space == SpaceNone {
		return 0
	}
	w, ok := idx.lastWriteBefore(seq, r.Addr, r.Width)
	if !ok {
		return 0
	}
	return int32(w) + 1
}

// randomRef picks a location from a small pool so that addresses are
// rewritten many times and partial views overlap: byte, word and dword
// views of the same register, the flags, float registers, 1/2/4/8-byte
// memory accesses to a few hot slots (one straddling two shadow pages, one
// at the top of 32-bit memory), and addresses outside both the register
// table and 32-bit memory.
func randomRef(rng *rand.Rand) Ref {
	regs := []isa.Reg{isa.EAX, isa.AX, isa.AL, isa.AH, isa.ECX, isa.CL, isa.CH, isa.ESP, isa.F0, isa.F7}
	switch rng.Intn(8) {
	case 0, 1, 2:
		r := regs[rng.Intn(len(regs))]
		return Ref{Space: SpaceReg, Addr: RegAddr(r), Width: uint8(r.Width())}
	case 3:
		return Ref{Space: SpaceFlags, Addr: FlagsAddr, Width: 4}
	case 4, 5:
		hot := []uint64{0x1000, 0x1002, 0x1003, 0x1ffe, 0x20010, 0x0ffeffc, 0xfffffff8}
		w := []uint8{1, 2, 4, 8}[rng.Intn(4)]
		return Ref{Space: SpaceMem, Addr: hot[rng.Intn(len(hot))] + uint64(rng.Intn(3)), Width: w}
	case 6:
		return Ref{Space: SpaceMem, Addr: uint64(rng.Intn(64)), Width: []uint8{1, 2, 4, 8}[rng.Intn(4)]}
	default:
		// Outside the register table and above 32-bit memory: only a
		// hand-built trace can name these.
		odd := []Ref{
			{Space: SpaceReg, Addr: FlagsAddr + 6, Width: 4},
			{Space: SpaceMem, Addr: 1<<40 + 3, Width: 2},
			{Space: SpaceMem, Addr: RegSpaceBase - 2, Width: 4},
			{Space: SpaceImm, Width: 4},
			{Space: SpaceNone, Addr: 0x1000, Width: 4},
		}
		return odd[rng.Intn(len(odd))]
	}
}

// randomRefs returns up to max random refs.
func randomRefs(rng *rand.Rand, max int) []Ref {
	var refs []Ref
	for k := rng.Intn(max + 1); k > 0; k-- {
		refs = append(refs, randomRef(rng))
	}
	return refs
}

// TestDefsMatchReference builds random traces whose records read and
// write overlapping registers, flags and memory, and checks every source
// and address ref's Def against the reference index, then FinalWriter
// for every probed byte and for random ranges.
func TestDefsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := &InstTrace{}
		n := rng.Intn(3000) + 1
		for s := 0; s < n; s++ {
			di := DynInst{Seq: s, AddrRefs: randomRefs(rng, 2)}
			for e := rng.Intn(4); e > 0; e-- {
				di.Effects = append(di.Effects, Effect{Dst: randomRef(rng), Op: OpAdd, Srcs: randomRefs(rng, 3)})
			}
			if err := tr.Emit(di); err != nil {
				t.Fatal(err)
			}
		}
		ref := newRefIndex(tr)

		for s := 0; s < n; s++ {
			di := tr.At(s)
			check := func(what string, r Ref) {
				if want := ref.wantDef(s, r); r.Def != want {
					t.Fatalf("seed %d: record %d %s %v: Def = %d, want %d", seed, s, what, r, r.Def, want)
				}
			}
			for _, r := range tr.AddrRefs(di) {
				check("address ref", r)
			}
			for _, ef := range tr.Effects(di) {
				for _, r := range tr.Srcs(&ef) {
					check("source", r)
				}
			}
		}

		// Every written byte, its neighbours and a few never-written ones.
		probe := map[uint64]bool{0x5000: true, RegAddr(isa.EDI): true, 1 << 41: true}
		for a := range ref {
			probe[a], probe[a-1], probe[a+1] = true, true, true
		}
		for a := range probe {
			gw, gok := tr.FinalWriter(a, 1)
			ww, wok := ref.lastWriteBefore(n, a, 1)
			if gok != wok || (gok && gw != ww) {
				t.Fatalf("seed %d: FinalWriter(%#x, 1) = (%d,%v), want (%d,%v)", seed, a, gw, gok, ww, wok)
			}
		}
		for q := 0; q < 2000; q++ {
			r := randomRef(rng)
			width := r.Width
			if rng.Intn(4) == 0 {
				width = uint8(rng.Intn(9))
			}
			gw, gok := tr.FinalWriter(r.Addr, width)
			ww, wok := ref.lastWriteBefore(n, r.Addr, width)
			if gok != wok || (gok && gw != ww) {
				t.Fatalf("seed %d: FinalWriter(%#x, %d) = (%d,%v), want (%d,%v)", seed, r.Addr, width, gw, gok, ww, wok)
			}
		}
	}
}

// TestDefLinks pins Def and FinalWriter on a hand-built trace: the latest
// writer of a partially overwritten range wins, a record's own writes are
// not its sources' definitions, and unwritten ranges have none.
func TestDefLinks(t *testing.T) {
	mem := func(addr uint64, width uint8) Ref { return Ref{Space: SpaceMem, Addr: addr, Width: width} }
	tr := &InstTrace{}
	for i, di := range []DynInst{
		// seq 0 reads and writes [100,4); seq 1 reads and writes [102,2);
		// seq 2 writes [200,1) from [200,1).
		{Seq: 0, Effects: []Effect{{Dst: mem(100, 4), Op: OpAdd, Srcs: []Ref{mem(100, 4), {Space: SpaceImm, Width: 4}}}}},
		{Seq: 1, Effects: []Effect{{Dst: mem(102, 2), Op: OpAdd, Srcs: []Ref{mem(102, 2)}}}},
		{Seq: 2, Effects: []Effect{{Dst: mem(200, 1), Op: OpIdentity, Srcs: []Ref{mem(200, 1)}}}},
		// seq 3 only reads.
		{Seq: 3, AddrRefs: []Ref{mem(100, 1)}, Effects: []Effect{{Op: OpCmp, Srcs: []Ref{mem(100, 4), mem(300, 4)}}}},
	} {
		if err := tr.Emit(di); err != nil {
			t.Fatalf("Emit %d: %v", i, err)
		}
	}
	defs := func(seq int) []int32 {
		di := tr.At(seq)
		var out []int32
		for _, r := range tr.AddrRefs(di) {
			out = append(out, r.Def)
		}
		for _, ef := range tr.Effects(di) {
			for _, r := range tr.Srcs(&ef) {
				out = append(out, r.Def)
			}
		}
		return out
	}
	for _, tc := range []struct {
		seq  int
		want []int32
		why  string
	}{
		{0, []int32{0, 0}, "nothing precedes seq 0, and immediates have no definition"},
		{1, []int32{1}, "seq 1 reads [102,2) before its own write: the writer is seq 0"},
		{2, []int32{0}, "byte 200 has no writer before seq 2"},
		{3, []int32{1, 2, 0}, "byte 100 is seq 0's; [100,4) was last touched by seq 1; [300,4) is unwritten"},
	} {
		got := defs(tc.seq)
		if len(got) != len(tc.want) {
			t.Fatalf("seq %d: %d refs, want %d", tc.seq, len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("seq %d ref %d: Def = %d, want %d (%s)", tc.seq, i, got[i], tc.want[i], tc.why)
			}
		}
	}
	for _, tc := range []struct {
		addr  uint64
		width uint8
		want  int
		ok    bool
	}{
		{100, 1, 0, true},
		{100, 4, 1, true}, // the partially overwritten range reports the latest writer
		{200, 1, 2, true},
		{300, 4, 0, false},
	} {
		if w, ok := tr.FinalWriter(tc.addr, tc.width); ok != tc.ok || (ok && w != tc.want) {
			t.Errorf("FinalWriter(%d, %d) = (%d,%v), want (%d,%v)", tc.addr, tc.width, w, ok, tc.want, tc.ok)
		}
	}
}

// TestFinalWriterSeesLaterEmit checks that FinalWriter follows the trace
// as it grows.
func TestFinalWriterSeesLaterEmit(t *testing.T) {
	tr := &InstTrace{}
	w := func(seq int, addr uint64) DynInst {
		return DynInst{Seq: seq, Effects: []Effect{{
			Dst: Ref{Space: SpaceMem, Addr: addr, Width: 1}, Op: OpIdentity,
		}}}
	}
	tr.Emit(w(0, 10))
	if got, ok := tr.FinalWriter(10, 1); !ok || got != 0 {
		t.Errorf("FinalWriter = (%d,%v), want (0,true)", got, ok)
	}
	tr.Emit(w(1, 10))
	if got, ok := tr.FinalWriter(10, 1); !ok || got != 1 {
		t.Errorf("after a second Emit, FinalWriter = (%d,%v), want (1,true)", got, ok)
	}
}

// TestFinalWriterConcurrentReads queries one finished trace from several
// goroutines at once, as extraction's workers do; under -race it fails if
// a lookup writes any shared state.
func TestFinalWriterConcurrentReads(t *testing.T) {
	tr := &InstTrace{}
	for s := 0; s < 64; s++ {
		tr.Emit(DynInst{Seq: s, Effects: []Effect{{Dst: Ref{Space: SpaceMem, Addr: uint64(s%8) * 0x1000, Width: 4}, Op: OpIdentity}}})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a := uint64((i+g)%8) * 0x1000
				if w, ok := tr.FinalWriter(a, 4); !ok || w%8 != int(a/0x1000) {
					t.Errorf("FinalWriter(%#x, 4) = (%d,%v)", a, w, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

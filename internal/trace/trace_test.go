package trace

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"helium/internal/isa"
)

func TestRegAddrSubRegisters(t *testing.T) {
	// Full registers occupy 8-byte slots in the unified space.
	if RegAddr(isa.EAX)+8 > RegAddr(isa.ECX) {
		t.Error("full registers overlap in the unified space")
	}
	// 16-bit and low-byte views alias the low bytes of the full register.
	if RegAddr(isa.AX) != RegAddr(isa.EAX) {
		t.Error("AX does not alias the low bytes of EAX")
	}
	if RegAddr(isa.AL) != RegAddr(isa.EAX) {
		t.Error("AL does not alias the low byte of EAX")
	}
	// High-byte views sit one byte above.
	if RegAddr(isa.AH) != RegAddr(isa.EAX)+1 {
		t.Error("AH does not sit one byte above EAX")
	}
	if RegAddr(isa.BH) != RegAddr(isa.EBX)+1 {
		t.Error("BH does not sit one byte above EBX")
	}
	// Register space is disjoint from memory space.
	if IsRegAddr(0xffffffff) {
		t.Error("top of memory space misclassified as register space")
	}
	if !IsRegAddr(RegAddr(isa.EDI)) {
		t.Error("register address not classified as register space")
	}
	if FlagsAddr < RegAddr(isa.F7)+8 {
		t.Error("flags overlap the floating point registers")
	}
}

func TestRefOverlapLogic(t *testing.T) {
	eax := Ref{Space: SpaceReg, Addr: RegAddr(isa.EAX), Width: 4}
	al := Ref{Space: SpaceReg, Addr: RegAddr(isa.AL), Width: 1}
	ah := Ref{Space: SpaceReg, Addr: RegAddr(isa.AH), Width: 1}
	ax := Ref{Space: SpaceReg, Addr: RegAddr(isa.AX), Width: 2}
	ebx := Ref{Space: SpaceReg, Addr: RegAddr(isa.EBX), Width: 4}

	if !eax.Overlaps(al) || !al.Overlaps(eax) {
		t.Error("EAX and AL must overlap")
	}
	if !eax.Overlaps(ah) {
		t.Error("EAX and AH must overlap")
	}
	if al.Overlaps(ah) {
		t.Error("AL and AH must not overlap")
	}
	if !ax.Overlaps(ah) {
		t.Error("AX covers AH")
	}
	if eax.Overlaps(ebx) {
		t.Error("EAX and EBX must not overlap")
	}
	if !eax.Contains(al) || !eax.Contains(ah) || !eax.Contains(ax) {
		t.Error("EAX contains its sub-register views")
	}
	if al.Contains(eax) {
		t.Error("AL cannot contain EAX")
	}
	if !eax.Contains(eax) {
		t.Error("a ref contains itself")
	}

	imm := Ref{Space: SpaceImm, Val: 5}
	if imm.Overlaps(eax) || eax.Overlaps(imm) || eax.Contains(imm) {
		t.Error("immediates have no location and never overlap")
	}

	// Byte-range overlap across memory refs.
	m1 := Ref{Space: SpaceMem, Addr: 0x1000, Width: 4}
	m2 := Ref{Space: SpaceMem, Addr: 0x1003, Width: 4}
	m3 := Ref{Space: SpaceMem, Addr: 0x1004, Width: 4}
	if !m1.Overlaps(m2) {
		t.Error("[0x1000,4) and [0x1003,4) overlap")
	}
	if m1.Overlaps(m3) {
		t.Error("[0x1000,4) and [0x1004,4) are adjacent, not overlapping")
	}
}

// TestRefSize pins Ref at 24 bytes: Def lives in what was padding, so
// linking every operand to its definition costs the trace no memory.
func TestRefSize(t *testing.T) {
	if got := unsafe.Sizeof(Ref{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Ref{}) = %d, want 24", got)
	}
}

// TestStoredTypesHoldNoPointers pins the trace's storage as pointer-free:
// no field of a stored record, effect or ref, however deeply nested, is a
// pointer, slice, string, map, interface, channel or function, so the
// garbage collector neither scans nor write-barriers a trace.
func TestStoredTypesHoldNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		default:
			t.Errorf("%s is a %v: stored trace types must hold no pointers", path, typ.Kind())
		}
	}
	for _, v := range []any{Record{}, StoredEffect{}, Ref{}} {
		typ := reflect.TypeOf(v)
		check(typ.Name(), typ)
	}
}

// TestStoredSizes pins a stored record and a stored effect at 32 bytes at
// most: half a cache line each.
func TestStoredSizes(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got > 32 {
		t.Errorf("unsafe.Sizeof(Record{}) = %d, want at most 32", got)
	}
	if got := unsafe.Sizeof(StoredEffect{}); got > 32 {
		t.Errorf("unsafe.Sizeof(StoredEffect{}) = %d, want at most 32", got)
	}
}

// TestStoredRecordsRoundTrip emits random records, enough for every
// column to cross several chunk boundaries, and reads each one back
// through the accessors: every field, effect, source and address ref must
// be what was emitted, apart from the Def links the trace fills in.
func TestStoredRecordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := &InstTrace{}
	var want []DynInst
	for s := 0; s < 3*colChunk; s++ {
		di := DynInst{
			Seq: s, Addr: rng.Uint32(), Op: isa.Opcode(rng.Intn(isa.NumOpcodes)), Width: uint8(rng.Intn(9)),
			MemAddr: rng.Uint64(), HasMem: rng.Intn(2) == 0, Taken: rng.Intn(2) == 0,
			AddrRefs: randomRefs(rng, 3),
		}
		for e := rng.Intn(5); e > 0; e-- {
			di.Effects = append(di.Effects, Effect{Dst: randomRef(rng), Op: ExprOp(rng.Intn(int(OpSelectSet) + 1)), Srcs: randomRefs(rng, 4)})
		}
		if err := tr.Emit(di); err != nil {
			t.Fatal(err)
		}
		want = append(want, di)
	}
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	noDef := func(refs []Ref) []Ref {
		out := make([]Ref, 0, len(refs))
		for _, r := range refs {
			r.Def = 0
			out = append(out, r)
		}
		return out
	}
	for s, w := range want {
		r := tr.At(s)
		if r.Addr != w.Addr || r.Op != w.Op || r.Width != w.Width || r.MemAddr != w.MemAddr || r.HasMem != w.HasMem || r.Taken != w.Taken {
			t.Fatalf("record %d = %+v, want %+v", s, *r, w)
		}
		if got := noDef(tr.AddrRefs(r)); !reflect.DeepEqual(got, noDef(w.AddrRefs)) {
			t.Fatalf("record %d address refs = %v, want %v", s, got, w.AddrRefs)
		}
		effs := tr.Effects(r)
		if len(effs) != len(w.Effects) {
			t.Fatalf("record %d has %d effects, want %d", s, len(effs), len(w.Effects))
		}
		for i := range effs {
			ef, we := &effs[i], w.Effects[i]
			if ef.Dst != we.Dst || ef.Op != we.Op {
				t.Fatalf("record %d effect %d = %v %v, want %v %v", s, i, ef.Op, ef.Dst, we.Op, we.Dst)
			}
			if got := noDef(tr.Srcs(ef)); !reflect.DeepEqual(got, noDef(we.Srcs)) {
				t.Fatalf("record %d effect %d sources = %v, want %v", s, i, got, we.Srcs)
			}
		}
	}
}

func TestMemDump(t *testing.T) {
	d := NewMemDump(4096)
	page := make([]byte, 4096)
	copy(page[16:], []byte{1, 2, 3, 4, 5})
	d.Pages[0x1000] = page

	if b, ok := d.Byte(0x1010); !ok || b != 1 {
		t.Errorf("Byte(0x1010) = (%d,%v)", b, ok)
	}
	if _, ok := d.Byte(0x3000); ok {
		t.Error("byte in undumped page must be missing")
	}
	if got, ok := d.Bytes(0x1010, 5); !ok || got[4] != 5 {
		t.Errorf("Bytes = (%v,%v)", got, ok)
	}
	if _, ok := d.Bytes(0x1ffe, 4); ok {
		t.Error("range crossing into an undumped page must fail")
	}
	hits := d.Find([]byte{2, 3, 4})
	if len(hits) != 1 || hits[0] != 0x1011 {
		t.Errorf("Find = %#x, want [0x1011]", hits)
	}
	if d.Size() != 4096 {
		t.Errorf("Size = %d", d.Size())
	}
}

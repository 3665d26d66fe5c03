package trace

import (
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

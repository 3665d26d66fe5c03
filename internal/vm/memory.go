// Package vm emulates the x86-like ISA defined in internal/isa and provides
// the instrumentation Helium needs: basic-block coverage, memory tracing,
// detailed dynamic instruction traces with resolved operand locations, and
// page-granularity memory dumps.
//
// It plays the role DynamoRIO plays for the original system (paper section
// 2): the analyses never look at the emulator itself, only at the captured
// artifacts defined in internal/trace.
package vm

import (
	"encoding/binary"
	"fmt"
)

// pageSize is the granularity of the sparse memory map and of memory dumps.
const pageSize = 4096

// Memory is a sparse, page-based 32-bit address space.
type Memory struct {
	pages map[uint32]*[pageSize]byte
	// lastBase and lastPage cache the most recently used mapped page:
	// consecutive accesses mostly stay on one page (a stack frame, an image
	// row), so they skip the map.
	lastBase uint32
	lastPage *[pageSize]byte
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	base := addr &^ (pageSize - 1)
	if m.lastPage != nil && base == m.lastBase {
		return m.lastPage
	}
	p, ok := m.pages[base]
	if !ok {
		if !create {
			return nil
		}
		p = new([pageSize]byte)
		m.pages[base] = p
	}
	m.lastBase, m.lastPage = base, p
	return p
}

// LoadByte returns the byte at addr; unmapped memory reads as zero.
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// StoreByte stores a byte at addr, mapping the page if necessary.
func (m *Memory) StoreByte(addr uint32, v byte) {
	p := m.page(addr, true)
	p[addr&(pageSize-1)] = v
}

// inPage reports whether a width-byte access at addr is a power-of-two
// width up to 8 that stays inside one page, which Read and Write serve
// from that page alone.
func inPage(addr uint32, width int) bool {
	switch width {
	case 1, 2, 4, 8:
		return int(addr&(pageSize-1))+width <= pageSize
	}
	return false
}

// Read returns width bytes starting at addr as a little-endian unsigned
// integer.  Width must be 1, 2, 4 or 8.
func (m *Memory) Read(addr uint32, width int) uint64 {
	if inPage(addr, width) {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		b := p[addr&(pageSize-1):]
		switch width {
		case 1:
			return uint64(b[0])
		case 2:
			return uint64(binary.LittleEndian.Uint16(b))
		case 4:
			return uint64(binary.LittleEndian.Uint32(b))
		}
		return binary.LittleEndian.Uint64(b)
	}
	var v uint64
	for i := 0; i < width; i++ {
		v |= uint64(m.LoadByte(addr+uint32(i))) << (8 * i)
	}
	return v
}

// Write stores width bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint32, width int, v uint64) {
	if inPage(addr, width) {
		b := m.page(addr, true)[addr&(pageSize-1):]
		switch width {
		case 1:
			b[0] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(b, uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(b, uint32(v))
		default:
			binary.LittleEndian.PutUint64(b, v)
		}
		return
	}
	for i := 0; i < width; i++ {
		m.StoreByte(addr+uint32(i), byte(v>>(8*i)))
	}
}

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.LoadByte(addr + uint32(i))
	}
	return out
}

// WriteBytes copies data into memory starting at addr.
func (m *Memory) WriteBytes(addr uint32, data []byte) {
	for i, b := range data {
		m.StoreByte(addr+uint32(i), b)
	}
}

// PageBytes returns a copy of the page containing addr.
func (m *Memory) PageBytes(addr uint32) []byte {
	out := make([]byte, pageSize)
	if p := m.page(addr, false); p != nil {
		copy(out, p[:])
	}
	return out
}

// MappedPages returns the number of mapped pages, for diagnostics.
func (m *Memory) MappedPages() int { return len(m.pages) }

// String summarises the memory map.
func (m *Memory) String() string {
	return fmt.Sprintf("memory{%d pages}", len(m.pages))
}

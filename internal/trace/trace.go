// Package trace defines the dynamically captured artifacts the Helium
// analyses consume: basic-block coverage records, memory access traces,
// full dynamic instruction traces and page-granularity memory dumps.
//
// These mirror the data the original system collects with DynamoRIO clients
// (paper sections 3.1 and 4.1).  All analyses downstream of the VM operate
// purely on these records; nothing else about the emulator leaks out.
package trace

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"helium/internal/isa"
)

// Space identifies the kind of location a Ref denotes.  Helium maps
// registers into a unified address space so that partial register reads and
// writes can be handled with the same byte-granularity overlap logic as
// memory (paper section 4.5); Addr below is always a unified address.
type Space uint8

// Location spaces.
const (
	SpaceNone  Space = iota
	SpaceMem         // an absolute memory address
	SpaceReg         // a register byte range mapped into the unified space
	SpaceFlags       // the flags register
	SpaceImm         // an immediate constant (no location)
)

// Unified address space layout.  Memory occupies the low 2^32 addresses;
// registers and flags are mapped above it.
const (
	// RegSpaceBase is the unified address of the first register byte.
	RegSpaceBase uint64 = 1 << 32
	// FlagsAddr is the unified address of the flags register.
	FlagsAddr uint64 = RegSpaceBase + uint64(isa.NumRegs)*8
)

// RegAddr returns the unified address of the first byte of register r,
// accounting for sub-register views (AH maps one byte above EAX).
func RegAddr(r isa.Reg) uint64 {
	return RegSpaceBase + uint64(r.Full())*8 + uint64(r.Offset())
}

// IsRegAddr reports whether a unified address refers to register space.
func IsRegAddr(addr uint64) bool { return addr >= RegSpaceBase }

// Ref is a single resolved operand reference in a dynamic instruction: a
// byte range in the unified address space together with the value observed
// there, or an immediate.
type Ref struct {
	// Addr is the unified address of the first byte (unused for SpaceImm).
	Addr uint64
	// Val is the integer value read or written (zero-extended), or the
	// immediate value for SpaceImm.  Float references hold the raw bits of
	// their value: float32 bits at width 4, float64 bits otherwise.
	Val   uint64
	Space Space
	// Width is the width of the reference in bytes.
	Width uint8
	// Float marks references to floating point data.
	Float bool
}

// FVal decodes the floating point value of a float reference from its bits.
// A 4-byte float store therefore reports the float32-rounded value it
// stored, not the wider value it was rounded from.
func (r Ref) FVal() float64 {
	if r.Width == 4 {
		return float64(math.Float32frombits(uint32(r.Val)))
	}
	return math.Float64frombits(r.Val)
}

// Overlaps reports whether the byte ranges of r and other intersect.
func (r Ref) Overlaps(other Ref) bool {
	if r.Space == SpaceImm || other.Space == SpaceImm {
		return false
	}
	return r.Addr < other.Addr+uint64(other.Width) && other.Addr < r.Addr+uint64(r.Width)
}

// Contains reports whether r fully contains other's byte range.
func (r Ref) Contains(other Ref) bool {
	if r.Space == SpaceImm || other.Space == SpaceImm {
		return false
	}
	return r.Addr <= other.Addr && other.Addr+uint64(other.Width) <= r.Addr+uint64(r.Width)
}

// String renders the reference for debugging.
func (r Ref) String() string {
	switch r.Space {
	case SpaceImm:
		return fmt.Sprintf("imm:%d", int64(r.Val))
	case SpaceFlags:
		return "flags"
	case SpaceReg:
		return fmt.Sprintf("reg@%#x/%d=%d", r.Addr, r.Width, r.Val)
	case SpaceMem:
		return fmt.Sprintf("mem@%#x/%d=%d", r.Addr, r.Width, r.Val)
	}
	return "none"
}

// MemAccess is one entry of the lightweight memory trace collected during
// code localization (paper section 3.1): the static instruction address,
// the absolute address touched, the access width and the direction.
type MemAccess struct {
	InstAddr uint32
	Addr     uint64
	Width    uint8
	Write    bool
}

// ExprOp is the semantic operation of a single effect.  The backward
// analysis turns effects directly into expression tree nodes, so ExprOp is
// deliberately at the level of the lifted expression language rather than
// the ISA: instruction selection details (two-address forms, lea tricks,
// partial registers) are already erased by the tracer.
type ExprOp uint8

// Effect operations.
const (
	OpNone ExprOp = iota
	OpIdentity
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpMulHi // high half of a widening unsigned multiply (the EDX result of MUL)
	OpAnd
	OpOr
	OpXor
	OpNot
	OpNeg
	OpShl
	OpShr // logical shift right
	OpSar // arithmetic shift right
	OpZExt
	OpSExt
	OpLea  // srcs = [base, index, scale, disp]; expands to base+index*scale+disp
	OpCmp  // flag producer: srcs = [a, b]
	OpTest // flag producer: srcs = [a, b]
	OpBranch
	OpCall    // external call; Sym on the DynInst names the function
	OpIntToFP // integer to floating point conversion
	OpFPToInt // floating point to integer conversion (round)
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpSelectSet // setcc: srcs = [flags]
)

var exprOpNames = map[ExprOp]string{
	OpNone: "none", OpIdentity: "id", OpAdd: "+", OpSub: "-", OpMul: "*",
	OpDiv: "/", OpMod: "%", OpMulHi: "*hi", OpAnd: "&", OpOr: "|", OpXor: "^", OpNot: "~",
	OpNeg: "neg", OpShl: "<<", OpShr: ">>", OpSar: ">>a", OpZExt: "zext",
	OpSExt: "sext", OpLea: "lea", OpCmp: "cmp", OpTest: "test",
	OpBranch: "branch", OpCall: "call", OpIntToFP: "i2f", OpFPToInt: "f2i",
	OpFAdd: "+f", OpFSub: "-f", OpFMul: "*f", OpFDiv: "/f", OpSelectSet: "setcc",
}

// String returns a compact spelling of the operation.
func (op ExprOp) String() string {
	if s, ok := exprOpNames[op]; ok {
		return s
	}
	return fmt.Sprintf("exprop(%d)", uint8(op))
}

// Effect is one architectural assignment performed by a dynamic
// instruction: Dst receives Op applied to Srcs.  An instruction may have
// several effects (a result register, the flags register, a stack pointer
// update); keeping them separate lets the analyses reason about each
// assignment independently of x86 instruction packaging.
type Effect struct {
	Dst  Ref
	Srcs []Ref
	Op   ExprOp
}

// DynInst is one entry of the detailed dynamic instruction trace collected
// during expression extraction (paper section 4.1).
type DynInst struct {
	// Seq is the position of the record in the trace.
	Seq int
	// Effects are the architectural assignments the instruction performed.
	Effects []Effect
	// AddrRefs are the register references used to form memory operand
	// addresses (base and index registers with their observed values).  The
	// forward analysis uses them to flag indirect buffer accesses and the
	// backward analysis uses them to expand address expressions for table
	// lookups (paper sections 4.6 and 4.7).
	AddrRefs []Ref
	// MemAddr is the absolute address of the memory operand, if any.
	MemAddr uint64
	// Sym is the imported symbol for external calls.
	Sym string
	// Addr is the static instruction address.
	Addr uint32
	// Op is the ISA operation executed.
	Op isa.Opcode
	// Width is the operation width in bytes.
	Width uint8
	// HasMem reports whether the instruction had a memory operand.
	HasMem bool
	// Taken records the outcome of conditional jumps.
	Taken bool
}

// Sink consumes dynamic instruction records as the tracer produces them.
// Streaming consumers (on-line analyses, filters, serializers) implement
// Sink directly; batch consumers collect into an InstTrace, which is itself
// a Sink.  The tracer reuses the buffers behind di's Effects (and their
// Srcs) and AddrRefs for the next instruction, so Emit must not retain di's
// slices past the call unless it copies them.
type Sink interface {
	Emit(di DynInst) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(di DynInst) error

// Emit calls f(di).
func (f SinkFunc) Emit(di DynInst) error { return f(di) }

// Storage granularity of an InstTrace.  Records live in fixed-size chunks so
// that a growing trace never copies what it already holds; effects and refs
// are packed into arena chunks the records' slices point into.
const (
	chunkBits  = 10
	chunkSize  = 1 << chunkBits
	arenaChunk = 1 << 13
)

// InstTrace is a captured instruction trace together with the write index
// needed by the backward analysis.  Records are addressed by sequence
// number through At; the trace owns deep copies of everything emitted.
type InstTrace struct {
	chunks  [][]DynInst
	n       int
	effects arena[Effect]
	refs    arena[Ref]

	// idx is the write index; nil until built and after every Emit.
	idx *writeIndex
}

// arena hands out capped sub-slices of large shared chunks, so storing a
// record's effects and refs costs no allocation of its own.  A full chunk
// is abandoned, not grown: the slices already handed out keep it alive.
type arena[T any] struct {
	cur []T
}

// copyOf returns an arena-owned copy of src (nil when src is empty).
func (a *arena[T]) copyOf(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < len(src) {
		a.cur = make([]T, 0, max(arenaChunk, len(src)))
	}
	start := len(a.cur)
	a.cur = append(a.cur, src...)
	return a.cur[start:len(a.cur):len(a.cur)]
}

// Len returns the number of records in the trace.
func (t *InstTrace) Len() int { return t.n }

// At returns the record with sequence number seq, 0 <= seq < Len().  The
// record belongs to the trace: callers may read it but not modify it.
func (t *InstTrace) At(seq int) *DynInst {
	if uint(seq) >= uint(t.n) {
		panic(fmt.Sprintf("trace: record %d out of range [0, %d)", seq, t.n))
	}
	return t.at(seq)
}

func (t *InstTrace) at(seq int) *DynInst {
	return &t.chunks[seq>>chunkBits][seq&(chunkSize-1)]
}

// Emit appends a deep copy of a record, making InstTrace the
// batch-collecting Sink.  The write index is invalidated; call
// BuildWriteIndex again after the trace is complete.
func (t *InstTrace) Emit(di DynInst) error {
	if t.n&(chunkSize-1) == 0 {
		t.chunks = append(t.chunks, make([]DynInst, chunkSize))
	}
	effects := t.effects.copyOf(di.Effects)
	for i := range effects {
		effects[i].Srcs = t.refs.copyOf(effects[i].Srcs)
	}
	di.Effects = effects
	di.AddrRefs = t.refs.copyOf(di.AddrRefs)
	*t.at(t.n) = di
	t.n++
	t.idx = nil
	return nil
}

// BuildWriteIndex constructs the per-byte write index used by
// LastWriteBefore.  It must be called once after the trace is
// complete.
func (t *InstTrace) BuildWriteIndex() {
	t.idx = buildWriteIndex(t)
}

// EnsureWriteIndex builds the write index only if it has not been built
// since the last Emit.  Call it before sharing the trace across
// goroutines: the index itself is read-only once built, but the lazy
// first build is not.
func (t *InstTrace) EnsureWriteIndex() {
	if t.idx == nil {
		t.BuildWriteIndex()
	}
}

// LastWriteBefore returns the sequence number of the most recent instruction
// before seq that wrote any byte in [addr, addr+width), and whether one
// exists.  When several bytes were last written by different instructions
// the latest of them is returned; the backward analysis then discovers the
// partial overlap while matching widths.
func (t *InstTrace) LastWriteBefore(seq int, addr uint64, width uint8) (int, bool) {
	t.EnsureWriteIndex()
	best := -1
	for b := uint64(0); b < uint64(width); b++ {
		best = max(best, t.idx.lastBefore(seq, addr+b))
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// regSlots is the number of unified addresses from RegSpaceBase up to and
// including the flags register, the register part of the write index.
const regSlots = FlagsAddr - RegSpaceBase + 8

// writeIndex maps every written byte of the unified address space to the
// ordered sequence numbers that wrote it.
//
//   - Register and flags bytes, a few hundred addresses rewritten by nearly
//     every instruction, use a fixed table: the writers of slot k are
//     regSeqs[regStart[k]:regStart[k+1]].
//   - Memory bytes use one sorted array of addr<<32|seq keys, so the
//     writers of an address are a contiguous run found by binary search
//     however often it was rewritten (stack slots are rewritten hundreds of
//     thousands of times).
//   - Any other address (only reachable from hand-built traces) falls back
//     to a map.
//
// Sequence numbers are stored in 32 bits; a trace is far smaller than that.
type writeIndex struct {
	regStart []int32
	regSeqs  []int32
	mem      []uint64
	other    map[uint64][]int
}

// forEachWrittenByte calls fn for every byte every effect of the trace
// wrote, in trace order.
func forEachWrittenByte(t *InstTrace, fn func(a uint64, seq int)) {
	for s := 0; s < t.n; s++ {
		di := t.at(s)
		for e := range di.Effects {
			d := &di.Effects[e].Dst
			if d.Space == SpaceImm || d.Space == SpaceNone {
				continue
			}
			for a := d.Addr; a < d.Addr+uint64(d.Width); a++ {
				fn(a, di.Seq)
			}
		}
	}
}

func buildWriteIndex(t *InstTrace) *writeIndex {
	idx := &writeIndex{regStart: make([]int32, regSlots+1)}
	nMem := 0
	// Pass 1 sizes the register table and the memory keys.
	forEachWrittenByte(t, func(a uint64, seq int) {
		switch {
		case a-RegSpaceBase < regSlots:
			idx.regStart[a-RegSpaceBase+1]++
		case a < RegSpaceBase:
			nMem++
		default:
			if idx.other == nil {
				idx.other = make(map[uint64][]int)
			}
			idx.other[a] = append(idx.other[a], seq)
		}
	})
	for k := 1; k < len(idx.regStart); k++ {
		idx.regStart[k] += idx.regStart[k-1]
	}
	idx.regSeqs = make([]int32, idx.regStart[regSlots])
	mem := make([]uint64, 0, nMem)
	fill := append([]int32(nil), idx.regStart[:regSlots]...)
	// Pass 2 fills them, still in trace order.
	forEachWrittenByte(t, func(a uint64, seq int) {
		switch {
		case a-RegSpaceBase < regSlots:
			k := a - RegSpaceBase
			idx.regSeqs[fill[k]] = int32(seq)
			fill[k]++
		case a < RegSpaceBase:
			mem = append(mem, a<<32|uint64(seq))
		}
	})
	// Keys are addr<<32|seq, so sorting them orders by address and keeps
	// trace order within an address.
	slices.Sort(mem)
	idx.mem = mem
	return idx
}

// lastBefore returns the last writer of byte a strictly before seq, or -1.
func (idx *writeIndex) lastBefore(seq int, a uint64) int {
	if seq <= 0 {
		return -1
	}
	switch {
	case a-RegSpaceBase < regSlots:
		k := a - RegSpaceBase
		ws := idx.regSeqs[idx.regStart[k]:idx.regStart[k+1]]
		i, _ := slices.BinarySearch(ws, int32(min(seq, math.MaxInt32)))
		if i > 0 {
			return int(ws[i-1])
		}
	case a < RegSpaceBase:
		i, _ := slices.BinarySearch(idx.mem, a<<32|uint64(min(seq, math.MaxUint32)))
		if i > 0 && idx.mem[i-1]>>32 == a {
			return int(uint32(idx.mem[i-1]))
		}
	default:
		ws := idx.other[a]
		if i := sort.SearchInts(ws, seq); i > 0 {
			return ws[i-1]
		}
	}
	return -1
}

// MemDump is a page-granularity dump of the memory touched by candidate
// instructions.  Read pages are captured eagerly, written pages at filter
// function exit (paper section 4.1).
type MemDump struct {
	// Pages maps page-aligned addresses to page contents.
	Pages map[uint64][]byte
	// PageSize is the dump granularity in bytes.
	PageSize uint64
}

// NewMemDump returns an empty dump with the given page size.
func NewMemDump(pageSize uint64) *MemDump {
	return &MemDump{Pages: make(map[uint64][]byte), PageSize: pageSize}
}

// Size returns the total number of bytes captured.
func (d *MemDump) Size() int {
	return len(d.Pages) * int(d.PageSize)
}

// Byte returns the byte at addr and whether the page containing it was
// dumped.
func (d *MemDump) Byte(addr uint64) (byte, bool) {
	page := addr &^ (d.PageSize - 1)
	p, ok := d.Pages[page]
	if !ok {
		return 0, false
	}
	return p[addr-page], true
}

// Bytes copies n bytes starting at addr out of the dump.  The second result
// is false if any byte falls outside the dumped pages.
func (d *MemDump) Bytes(addr uint64, n int) ([]byte, bool) {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		b, ok := d.Byte(addr + uint64(i))
		if !ok {
			return nil, false
		}
		out[i] = b
	}
	return out, true
}

// Find searches the dump for the byte pattern and returns the addresses at
// which it occurs, in increasing order.  Helium uses this to locate known
// input and output data when inferring buffer dimensions (paper section
// 4.3).
func (d *MemDump) Find(pattern []byte) []uint64 {
	if len(pattern) == 0 {
		return nil
	}
	pages := make([]uint64, 0, len(d.Pages))
	for p := range d.Pages {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	var hits []uint64
	for _, page := range pages {
		data := d.Pages[page]
		for off := 0; off < len(data); off++ {
			addr := page + uint64(off)
			ok := true
			for i := 0; i < len(pattern); i++ {
				b, have := d.Byte(addr + uint64(i))
				if !have || b != pattern[i] {
					ok = false
					break
				}
			}
			if ok {
				hits = append(hits, addr)
			}
		}
	}
	return hits
}

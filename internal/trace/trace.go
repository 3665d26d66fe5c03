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
	// Def links a source or address reference to the value's definition:
	// one more than the sequence number of the last record before this
	// one that wrote any byte of the range, or 0 when no earlier record
	// did.  InstTrace.Emit fills it in its own copy; the tracer leaves it
	// zero.  When several bytes were last written by different records
	// the latest of them is named, and the backward analysis discovers
	// the partial overlap while matching widths.
	Def int32
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

// Storage of an InstTrace.  Records, effects and refs live in separate
// columns of fixed-size chunks of pointer-free values, so a growing trace
// never copies what it already holds and the garbage collector never scans
// it.  A record names its effects and address refs, and an effect its
// sources, by index and count into the columns.
const (
	colBits  = 12
	colChunk = 1 << colBits

	// maxColumn is the largest column length at which Emit still accepts a
	// record: one record reserves at most 256 runs of at most 255 values,
	// each of which may skip to a fresh chunk, so uint32 indices never
	// wrap.
	maxColumn = math.MaxUint32 - 256*(colChunk+255)
)

// Record is the stored form of a DynInst.  Its sequence number is its
// position in the trace, and the imported symbol of an external call is
// the program's: the instruction at Addr carries it.  Its effects and
// address refs are read through the trace's Effects and AddrRefs.
type Record struct {
	// MemAddr is the absolute address of the memory operand, if any.
	MemAddr uint64
	// Addr is the static instruction address.
	Addr uint32
	// effects and addrRefs index the record's first effect and first
	// address ref in the trace's columns; nEffects and nAddrRefs count
	// them.
	effects, addrRefs   uint32
	nEffects, nAddrRefs uint8
	// Op is the ISA operation executed.
	Op isa.Opcode
	// Width is the operation width in bytes.
	Width uint8
	// HasMem reports whether the instruction had a memory operand.
	HasMem bool
	// Taken records the outcome of conditional jumps.
	Taken bool
}

// StoredEffect is the stored form of an Effect; its sources are read
// through the trace's Srcs.
type StoredEffect struct {
	Dst   Ref
	srcs  uint32
	nSrcs uint8
	Op    ExprOp
}

// column is an append-only sequence of values kept in chunks of colChunk.
type column[T any] struct {
	chunks [][]T
	n      int
}

// reserve appends k zero values as one contiguous run, all in one chunk,
// and returns the index of the run and the run itself for the caller to
// fill.  A run that does not fit in the rest of the current chunk starts
// the next one, leaving the rest unused.
func (c *column[T]) reserve(k int) (uint32, []T) {
	if k == 0 {
		return 0, nil
	}
	if off := c.n & (colChunk - 1); off+k > colChunk {
		c.n += colChunk - off
	}
	if c.n>>colBits == len(c.chunks) {
		c.chunks = append(c.chunks, make([]T, colChunk))
	}
	start := c.n
	c.n += k
	off := start & (colChunk - 1)
	return uint32(start), c.chunks[start>>colBits][off : off+k : off+k]
}

// run returns the k values stored from index start on.
func (c *column[T]) run(start uint32, k uint8) []T {
	if k == 0 {
		return nil
	}
	off := int(start & (colChunk - 1))
	return c.chunks[start>>colBits][off : off+int(k) : off+int(k)]
}

// InstTrace is a captured instruction trace with every operand linked to
// its definition.  Records are addressed by sequence number through At;
// the trace owns copies of everything emitted.
type InstTrace struct {
	recs    column[Record]
	effects column[StoredEffect]
	refs    column[Ref]

	// last holds the def of every written byte's latest writer so far.
	last shadow
}

// Len returns the number of records in the trace.
func (t *InstTrace) Len() int { return t.recs.n }

// At returns the record with sequence number seq, 0 <= seq < Len().  The
// record belongs to the trace: callers may read it but not modify it.
func (t *InstTrace) At(seq int) *Record {
	if uint(seq) >= uint(t.recs.n) {
		panic(fmt.Sprintf("trace: record %d out of range [0, %d)", seq, t.recs.n))
	}
	return &t.recs.chunks[seq>>colBits][seq&(colChunk-1)]
}

// Effects returns the effects of a record of the trace, in emission order.
func (t *InstTrace) Effects(r *Record) []StoredEffect {
	return t.effects.run(r.effects, r.nEffects)
}

// Srcs returns the source refs of an effect of the trace.
func (t *InstTrace) Srcs(e *StoredEffect) []Ref { return t.refs.run(e.srcs, e.nSrcs) }

// AddrRefs returns the address refs of a record of the trace.
func (t *InstTrace) AddrRefs(r *Record) []Ref { return t.refs.run(r.addrRefs, r.nAddrRefs) }

// Emit appends a copy of a record, making InstTrace the batch-collecting
// Sink.  The copy's source and address refs get their Def links, resolved
// before the record's own writes are applied, so a ref that the same
// record also writes (push and pop's ESP, add [m], r) links to the
// previous writer.  The record is stored at sequence number Len(); its
// Seq and Sym are not stored.
func (t *InstTrace) Emit(di DynInst) error {
	if t.recs.n == math.MaxInt32 {
		return fmt.Errorf("trace: more than %d records", math.MaxInt32)
	}
	if t.effects.n > maxColumn || t.refs.n > maxColumn {
		return fmt.Errorf("trace: more than %d effects or refs", maxColumn)
	}
	if len(di.Effects) > math.MaxUint8 || len(di.AddrRefs) > math.MaxUint8 {
		return fmt.Errorf("trace: record at %#x has %d effects and %d address refs, over %d", di.Addr, len(di.Effects), len(di.AddrRefs), math.MaxUint8)
	}
	for i := range di.Effects {
		if n := len(di.Effects[i].Srcs); n > math.MaxUint8 {
			return fmt.Errorf("trace: effect at %#x has %d sources, over %d", di.Addr, n, math.MaxUint8)
		}
	}
	effIdx, effects := t.effects.reserve(len(di.Effects))
	for i := range di.Effects {
		ef := &di.Effects[i]
		srcIdx, srcs := t.refs.reserve(len(ef.Srcs))
		copy(srcs, ef.Srcs)
		t.link(srcs)
		effects[i] = StoredEffect{Dst: ef.Dst, srcs: srcIdx, nSrcs: uint8(len(srcs)), Op: ef.Op}
	}
	refIdx, addrRefs := t.refs.reserve(len(di.AddrRefs))
	copy(addrRefs, di.AddrRefs)
	t.link(addrRefs)
	def := int32(t.recs.n + 1)
	for i := range effects {
		if d := &effects[i].Dst; d.Space != SpaceImm && d.Space != SpaceNone {
			t.last.set(d.Addr, d.Width, def)
		}
	}
	_, rec := t.recs.reserve(1)
	rec[0] = Record{
		MemAddr:   di.MemAddr,
		Addr:      di.Addr,
		effects:   effIdx,
		addrRefs:  refIdx,
		Op:        di.Op,
		Width:     di.Width,
		nEffects:  uint8(len(effects)),
		nAddrRefs: uint8(len(addrRefs)),
		HasMem:    di.HasMem,
		Taken:     di.Taken,
	}
	return nil
}

// link sets the Def of every located ref to its latest writer so far.
func (t *InstTrace) link(refs []Ref) {
	for i := range refs {
		if r := &refs[i]; r.Space != SpaceImm && r.Space != SpaceNone {
			r.Def = t.last.get(r.Addr, r.Width)
		}
	}
}

// FinalWriter returns the sequence number of the last record in the trace
// that wrote any byte in [addr, addr+width), and whether one exists; the
// latest writer wins when several wrote parts of the range.  It only reads
// the trace, so a finished trace may be queried from many goroutines.
func (t *InstTrace) FinalWriter(addr uint64, width uint8) (int, bool) {
	def := t.last.get(addr, width)
	return int(def) - 1, def > 0
}

// regSlots is the number of unified addresses from RegSpaceBase up to and
// including the flags register.
const regSlots = FlagsAddr - RegSpaceBase + 8

// Shadow memory geometry: a 32-bit memory address splits into a top index,
// a middle index and an offset into a page of defs.
const (
	shadowPageBits = 12
	shadowMidBits  = 10
	shadowTopBits  = 32 - shadowMidBits - shadowPageBits
)

type (
	shadowPage [1 << shadowPageBits]int32
	shadowMid  [1 << shadowMidBits]*shadowPage
)

// shadow maps every byte of the unified address space to the def (sequence
// number plus one) of the last record that wrote it, 0 for never.
//
//   - Register and flags bytes, a few hundred addresses rewritten by nearly
//     every instruction, use a fixed table.
//   - 32-bit memory uses a three-level radix table whose pages are
//     allocated on first write, so a lookup is three indexed loads.
//   - Any other address (only reachable from hand-built traces) uses a
//     map.
type shadow struct {
	reg   [regSlots]int32
	mem   [1 << shadowTopBits]*shadowMid
	other map[uint64]int32
}

// memPage returns the page holding memory address a, or nil when no byte of
// it was written.
func (s *shadow) memPage(a uint64) *shadowPage {
	mid := s.mem[a>>(shadowMidBits+shadowPageBits)]
	if mid == nil {
		return nil
	}
	return mid[a>>shadowPageBits&(1<<shadowMidBits-1)]
}

// get returns the latest def over the width bytes starting at addr.  It
// walks the range in runs that share one table (register slots, a memory
// page, or a single other address); byte addresses wrap as uint64
// arithmetic does.
func (s *shadow) get(addr uint64, width uint8) int32 {
	var best int32
	for a, n := addr, uint64(width); n > 0; {
		run := runLen(a, n)
		switch {
		case a-RegSpaceBase < regSlots:
			best = latest(best, s.reg[a-RegSpaceBase:][:run])
		case a < RegSpaceBase:
			if pg := s.memPage(a); pg != nil {
				best = latest(best, pg[a&(1<<shadowPageBits-1):][:run])
			}
		default:
			best = max(best, s.other[a])
		}
		a, n = a+run, n-run
	}
	return best
}

// set records def as the last writer of the width bytes starting at addr.
func (s *shadow) set(addr uint64, width uint8, def int32) {
	for a, n := addr, uint64(width); n > 0; {
		run := runLen(a, n)
		switch {
		case a-RegSpaceBase < regSlots:
			fill(s.reg[a-RegSpaceBase:][:run], def)
		case a < RegSpaceBase:
			mid := &s.mem[a>>(shadowMidBits+shadowPageBits)]
			if *mid == nil {
				*mid = new(shadowMid)
			}
			pg := &(*mid)[a>>shadowPageBits&(1<<shadowMidBits-1)]
			if *pg == nil {
				*pg = new(shadowPage)
			}
			fill((*pg)[a&(1<<shadowPageBits-1):][:run], def)
		default:
			if s.other == nil {
				s.other = make(map[uint64]int32)
			}
			s.other[a] = def
		}
		a, n = a+run, n-run
	}
}

// runLen returns how many of the n bytes starting at a share a's table:
// the rest of the register slots, the rest of a's memory page, or the one
// other address.
func runLen(a, n uint64) uint64 {
	switch {
	case a-RegSpaceBase < regSlots:
		return min(n, regSlots-(a-RegSpaceBase))
	case a < RegSpaceBase:
		return min(n, 1<<shadowPageBits-a&(1<<shadowPageBits-1))
	}
	return 1
}

func latest(best int32, defs []int32) int32 {
	for _, d := range defs {
		best = max(best, d)
	}
	return best
}

func fill(defs []int32, def int32) {
	for i := range defs {
		defs[i] = def
	}
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

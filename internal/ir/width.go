// Width inference over register programs.  The lifter's interval analysis
// (Bounds, in interval.go) proves facts about expression trees; this pass
// proves the corresponding facts about the lowered program: a conservative
// unsigned upper bound for the value stored in every register.  From those
// bounds the compiler picks the narrowest lane width — 8, 16 or 32 bits —
// in which the whole program can execute exactly, which both the
// generic row executor (lanes.go) and the Go source backend
// (codegen.go) exploit: narrower lanes quarter or halve the row-buffer
// traffic and let generated code compute in uint8/uint16/uint32.
//
// Soundness: every register bound `hi[r]` satisfies "the value stored in r
// by the row executor at 64-bit lanes is always <= hi[r]".  If every bound
// (including the pooled constants) fits below 2^B, then B-bit arithmetic
// reproduces the 64-bit execution bit for bit:
//
//   - for ops whose masking distributes over truncation (add, sub, mul,
//     bitwise ops, shifts left, negate, not, zero-extension), the B-bit
//     result is the low B bits of the 64-bit stored value, which IS the
//     stored value because it fits;
//   - for the value-exact ops (shr, div, mod, extract, table, select,
//     loads), all operands are exact so the result is exact;
//   - the signed ops (min, max, sar, sext) are executed by sign-extending
//     the exact operand value in 64-bit space (lanes.go reuses sx), so
//     they are exact by construction.
//
// Programs containing floating point stay at 64 bits: float values are
// full IEEE-754 bit patterns.
package ir

import (
	"math"
	"math/bits"
)

// widthInfo is the outcome of the width-inference pass.
type widthInfo struct {
	// laneBits is 8, 16 or 32 when every register provably fits that many
	// bits and every instruction is lane-executable; 64 otherwise.
	laneBits int
	// hi[r] is the conservative unsigned upper bound of register r's
	// stored value (post-mask); constants hold their exact value.
	hi []uint64
}

func satAdd(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		return math.MaxUint64
	}
	return s
}

func satMul(a, b uint64) uint64 {
	h, l := bits.Mul64(a, b)
	if h != 0 {
		return math.MaxUint64
	}
	return l
}

// bitBound is the smallest all-ones value >= a: the tight upper bound for
// OR/XOR combinations of values <= a.
func bitBound(a uint64) uint64 {
	if a == math.MaxUint64 {
		return a
	}
	return 1<<bits.Len64(a) - 1
}

// signedWidthOK reports whether hi provably has the sign bit clear when
// interpreted at the signed width encoded by the sign-extension shift sh
// (sh 56/48/32 = 8/16/32-bit signed, sh 0 = 64-bit signed).
func signedWidthOK(hi uint64, sh uint8) bool {
	return hi <= math.MaxUint64>>(sh+1)
}

// tableBound scans a lookup table for its maximum element value.
func tableBound(table []byte, elem int) uint64 {
	var m uint64
	for off := 0; off+elem <= len(table); off += elem {
		var v uint64
		for i := 0; i < elem; i++ {
			v |= uint64(table[off+i]) << (8 * i)
		}
		m = max(m, v)
	}
	return m
}

// inferWidths runs the interval pass over a lowered program.  Must be
// called after finalize has stamped masks and shifts.
func inferWidths(p *Program) widthInfo {
	info := widthInfo{hi: make([]uint64, p.numRegs)}
	hi := info.hi
	for i, c := range p.consts {
		hi[i] = c
	}

	laneOK := true // all live instructions executable in narrow lanes
	for i := range p.insts {
		in := &p.insts[i]
		if in.dead {
			// Skipped by every executor: its value constrains nothing.
			continue
		}
		a := func() uint64 { return hi[in.a] }
		b := func() uint64 { return hi[in.b] }
		var h uint64
		switch in.op {
		case OpLoad:
			h = 255
		case opSumTaps:
			h = uint64(in.val)
			h = satAdd(h, satMul(255, uint64(len(in.taps))))
			for _, r := range in.args {
				h = satAdd(h, hi[r])
			}
			h = min(h, in.mask)
		case opMulN:
			h = 1
			for _, r := range in.args {
				h = satMul(h, hi[r])
			}
			h = min(h, in.mask)
		case opAndN:
			h = in.mask
			for _, r := range in.args {
				h = min(h, hi[r])
			}
		case opOrN, opXorN:
			h = 0
			for _, r := range in.args {
				h = max(h, hi[r])
			}
			h = min(bitBound(h), in.mask)
		case opMinN:
			// With every operand provably nonnegative at the compare
			// width, the minimum is <= the smallest operand bound.
			h = in.mask
			allPos := true
			for _, r := range in.args {
				if !signedWidthOK(hi[r], in.sh) {
					allPos = false
				}
				h = min(h, hi[r])
			}
			if !allPos {
				h = in.mask
			}
		case opMaxN:
			h = 0
			allPos := true
			for _, r := range in.args {
				if !signedWidthOK(hi[r], in.sh) {
					allPos = false
				}
				h = max(h, hi[r])
			}
			if allPos {
				h = min(h, in.mask)
			} else {
				h = in.mask
			}
		case OpSub, OpNot, OpNeg, OpShl:
			h = in.mask
		case OpMulHi:
			h = min(in.mask, (min(a(), 0xffffffff)*min(b(), 0xffffffff))>>32)
		case OpDiv, OpMod:
			h = min(a(), in.mask)
		case opDivShift:
			h = min(a(), in.mask) >> uint(in.val)
		case opDivMagic:
			h = min(a(), in.mask) / in.dcon
		case opModShift, opModMagic:
			h = min(in.dcon-1, min(a(), in.mask))
		case OpShr:
			h = min(a(), in.mask)
		case OpSar:
			if signedWidthOK(a(), in.sh) {
				h = min(a(), in.mask)
			} else {
				h = in.mask
			}
		case OpZExt:
			h = min(a(), in.mask) // mask is the srcWidth mask
		case OpSExt:
			if signedWidthOK(a(), in.sh) {
				h = min(a(), in.mask)
			} else {
				h = in.mask
			}
		case OpExtract:
			h = min(a()>>(8*uint(in.val)), in.mask)
		case OpSelect:
			h = max(b(), hi[in.c])
		case OpCmpEq, OpCmpNe, OpCmpLtS, OpCmpLeS, OpCmpLtU, OpCmpLeU:
			h = 1
		case OpTable:
			h = tableBound(in.table, in.elem)
		case OpTableIn:
			// The stage-input table is bound at evaluation time, so only
			// the element width bounds its values.
			h = widthMask(in.elem)
		default:
			// Floating point and anything unrecognized: full bit patterns,
			// not lane-executable.
			h = math.MaxUint64
			laneOK = false
		}
		hi[in.dst] = h
	}

	info.laneBits = 64
	if laneOK && !p.rootFloat {
		// Only registers live execution actually READS bound the lane
		// width: the root and the operands of executing instructions.
		// That covers every live result (each is someone's operand, or
		// the root), while excluding dead pool constants (fold
		// leftovers) and the never-read results of instructions kept
		// only for their fault checks.
		refd := make([]bool, p.numRegs)
		refd[p.root] = true
		for i := range p.insts {
			in := &p.insts[i]
			if in.dead {
				continue
			}
			for _, r := range operands(in) {
				refd[r] = true
			}
		}
		top := uint64(0)
		for r, h := range hi {
			if refd[r] {
				top = max(top, h)
			}
		}
		switch {
		case top <= math.MaxUint8:
			info.laneBits = 8
		case top <= math.MaxUint16:
			info.laneBits = 16
		case top <= math.MaxUint32:
			info.laneBits = 32
		}
	}
	return info
}

// LaneBits reports the inferred execution width of the program in bits: 8,
// 16 or 32 when the width-inference pass proved every intermediate value
// fits (and the row executor will run in that lane type), 64 otherwise.
func (p *Program) LaneBits() int { return p.width.laneBits }

// Row execution of register programs.  One generic executor,
// laneState[T].runRow, interprets every compiled program: each instruction
// processes one output row of samples before the next dispatches, so the
// interpretive dispatch cost is paid once per instruction per row rather
// than once per node per sample.  The lane type T is the narrowest width
// the width-inference pass proved: 8, 16 or 32 bits when every register
// fits, 64 bits otherwise (always for programs with floating point, whose
// registers hold IEEE-754 bit patterns).  Narrow lanes shrink the row
// register file by 8x/4x/2x, which keeps more of a row's registers inside
// L1 and moves 2-8x more samples per cache line through the hot loops.
// Every instantiation is bit-exact with 64-bit execution — see width.go for
// the soundness argument — including error positions and messages.
//
// A row reads its input at a constant x stride.  Integral index maps give
// the stride directly; a fractional map x' = floor((num*x+off)/den) splits
// each output row into den residue classes, because the samples
// x = r + den*j of class r read input column Apply(r) + num*j: one row at
// stride num per class (see Executor.Eval).
package ir

import "math"

// lane is the set of register types the row executor specializes over.
type lane interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// rowExec is one channel program's row-execution engine bound to a source,
// instantiated at the program's lane width.
type rowExec interface {
	// runRow evaluates output samples x in [0, width) of channel c at
	// input row y, xbase being the input-x of output sample 0.
	runRow(xbase, y, c, width int) (int, error)
	// storeRow narrows the result row to bytes: dst[x*step] = uint8(res[x])
	// for x in [0, n).
	storeRow(dst []byte, step, n int)
}

// newRowExec picks the row executor for a program: the narrowest lane the
// width pass proved.
func newRowExec(p *Program, bd *binding, rowWidth int) rowExec {
	switch p.width.laneBits {
	case 8:
		return newLaneState[uint8](p, bd, rowWidth)
	case 16:
		return newLaneState[uint16](p, bd, rowWidth)
	case 32:
		return newLaneState[uint32](p, bd, rowWidth)
	}
	return newLaneState[uint64](p, bd, rowWidth)
}

// laneState is a program's execution state for one bound source:
// precomputed tap offsets for the bound geometry plus a row register file
// in the lane type (constants splatted).
type laneState[T lane] struct {
	p       *Program
	bd      *binding
	offs    []int
	tapOffs [][]int
	rows    [][]T
	argRows [][]T
}

func newLaneState[T lane](p *Program, bd *binding, rowWidth int) *laneState[T] {
	st := &laneState[T]{
		p:       p,
		bd:      bd,
		offs:    make([]int, len(p.insts)),
		tapOffs: make([][]int, len(p.insts)),
	}
	for i := range p.insts {
		in := &p.insts[i]
		if bd.pix != nil {
			switch in.op {
			case OpLoad:
				st.offs[i] = bd.flatOff(in.dx, in.dy, in.dc)
			case opSumTaps:
				offs := make([]int, len(in.taps))
				for j, t := range in.taps {
					offs[j] = bd.flatOff(t.dx, t.dy, t.dc)
				}
				st.tapOffs[i] = offs
			}
		}
	}
	st.rows = make([][]T, p.numRegs)
	backing := make([]T, p.numRegs*rowWidth)
	for r := range st.rows {
		st.rows[r] = backing[r*rowWidth : (r+1)*rowWidth]
	}
	for ci, cv := range p.consts {
		row := st.rows[ci]
		for x := range row {
			row[x] = T(cv)
		}
	}
	st.argRows = make([][]T, 0, 8)
	return st
}

func (st *laneState[T]) storeRow(dst []byte, step, n int) {
	res := st.rows[st.p.root]
	for x := 0; x < n; x++ {
		dst[x*step] = uint8(res[x])
	}
}

// gatherArgs collects the operand rows of an n-ary instruction, sliced to
// the active width, into the reusable scratch list.
func (st *laneState[T]) gatherArgs(in *pinst, n int) {
	as := st.argRows[:0]
	for _, r := range in.args {
		as = append(as, st.rows[r][:n])
	}
	st.argRows = as
}

// runRow executes the program vectorized over one output row: every
// instruction processes samples x in [0, width) of channel c at input row
// y before the next instruction dispatches.  xbase is the input-x of
// output sample 0; consecutive samples advance bd.xstep input pixels.
//
// Error semantics reproduce per-sample evaluation exactly: when an
// instruction faults at some x the row narrows to [0, x) for the remaining
// instructions, so the reported fault is the one an x-ascending per-sample
// loop would have hit first.  Returns the failing x (-1 if none).
//
// The float cases convert through uint64; the width pass keeps every
// program containing one at 64-bit lanes, so narrow instantiations never
// reach them.
func (st *laneState[T]) runRow(xbase, y, c, width int) (int, error) {
	p, bd := st.p, st.bd
	n := width
	errX := -1
	var firstErr error
	fail := func(x int, err error) {
		errX, firstErr = x, err
		n = x
	}
	pos0 := 0
	if bd.pix != nil {
		pos0 = bd.base + y*bd.stride + xbase*bd.pixStep + c*bd.chanStep
	}
	// Consecutive output samples read xstep pixels apart; tap offsets stay
	// unscaled (they are deltas around each mapped position).
	xs := bd.xstep
	ps := bd.pixStep * xs
	rows := st.rows
	for i := range p.insts {
		if n == 0 {
			break
		}
		in := &p.insts[i]
		if in.dead {
			continue
		}
		d := rows[in.dst][:n]
		switch in.op {
		case OpLoad:
			if bd.pix != nil {
				off := pos0 + st.offs[i]
				lo, hi := off, off+(n-1)*ps
				if lo >= 0 && hi < len(bd.pix) {
					pix := bd.pix
					for x := range d {
						d[x] = T(pix[off+x*ps])
					}
				} else {
					for x := range d {
						idx := off + x*ps
						if uint(idx) >= uint(len(bd.pix)) {
							fail(x, errLoad(xbase+x*xs+int(in.dx), y+int(in.dy), c+int(in.dc)))
							break
						}
						d[x] = T(bd.pix[idx])
					}
				}
			} else {
				src := bd.src
				for x := range d {
					d[x] = T(src.Sample(xbase+x*xs+int(in.dx), y+int(in.dy), c+int(in.dc)))
				}
			}
		case opSumTaps:
			bias := T(uint64(in.val))
			mask := T(in.mask)
			if bd.pix != nil {
				pix := bd.pix
				safe := true
				for _, off := range st.tapOffs[i] {
					lo, hi := pos0+off, pos0+off+(n-1)*ps
					if lo < 0 || hi >= len(pix) {
						safe = false
						break
					}
				}
				if safe {
					for x := range d {
						s := bias
						base := pos0 + x*ps
						for _, off := range st.tapOffs[i] {
							s += T(pix[base+off])
						}
						d[x] = s
					}
				} else {
					for x := range d {
						s := bias
						base := pos0 + x*ps
						bad := false
						for _, off := range st.tapOffs[i] {
							idx := base + off
							if uint(idx) >= uint(len(pix)) {
								fail(x, errLoad(xbase+x*xs, y, c))
								bad = true
								break
							}
							s += T(pix[idx])
						}
						if bad {
							break
						}
						d[x] = s
					}
				}
			} else {
				src := bd.src
				for x := range d {
					s := bias
					for _, t := range in.taps {
						s += T(src.Sample(xbase+x*xs+int(t.dx), y+int(t.dy), c+int(t.dc)))
					}
					d[x] = s
				}
			}
			d = rows[in.dst][:n] // n may have shrunk
			for _, r := range in.args {
				a := rows[r][:n]
				for x := range d {
					d[x] += a[x]
				}
			}
			for x := range d {
				d[x] &= mask
			}
		case opMulN:
			st.gatherArgs(in, n)
			as := st.argRows
			a0 := as[0]
			for x := range d {
				d[x] = a0[x]
			}
			for _, a := range as[1:] {
				for x := range d {
					d[x] *= a[x]
				}
			}
			mask := T(in.mask)
			for x := range d {
				d[x] &= mask
			}
		case opAndN:
			st.gatherArgs(in, n)
			as := st.argRows
			a0 := as[0]
			for x := range d {
				d[x] = a0[x]
			}
			for _, a := range as[1:] {
				for x := range d {
					d[x] &= a[x]
				}
			}
			mask := T(in.mask)
			for x := range d {
				d[x] &= mask
			}
		case opOrN:
			st.gatherArgs(in, n)
			as := st.argRows
			a0 := as[0]
			for x := range d {
				d[x] = a0[x]
			}
			for _, a := range as[1:] {
				for x := range d {
					d[x] |= a[x]
				}
			}
			mask := T(in.mask)
			for x := range d {
				d[x] &= mask
			}
		case opXorN:
			st.gatherArgs(in, n)
			as := st.argRows
			a0 := as[0]
			for x := range d {
				d[x] = a0[x]
			}
			for _, a := range as[1:] {
				for x := range d {
					d[x] ^= a[x]
				}
			}
			mask := T(in.mask)
			for x := range d {
				d[x] &= mask
			}
		case opMinN:
			st.gatherArgs(in, n)
			as := st.argRows
			sh, mask := in.sh, in.mask
			a0 := as[0]
			for x := range d {
				s := sx(uint64(a0[x]), sh)
				for _, a := range as[1:] {
					if v := sx(uint64(a[x]), sh); v < s {
						s = v
					}
				}
				d[x] = T(uint64(s) & mask)
			}
		case opMaxN:
			st.gatherArgs(in, n)
			as := st.argRows
			sh, mask := in.sh, in.mask
			a0 := as[0]
			for x := range d {
				s := sx(uint64(a0[x]), sh)
				for _, a := range as[1:] {
					if v := sx(uint64(a[x]), sh); v > s {
						s = v
					}
				}
				d[x] = T(uint64(s) & mask)
			}
		case OpSub:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = (a[x] - b[x]) & mask
			}
		case OpMulHi:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := in.mask
			for x := range d {
				d[x] = T((uint64(a[x]) & 0xffffffff) * (uint64(b[x]) & 0xffffffff) >> 32 & mask)
			}
		case OpDiv:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				dv := b[x] & mask
				if dv == 0 {
					fail(x, errDivZero())
					break
				}
				d[x] = (a[x] & mask) / dv
			}
		case OpMod:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				dv := b[x] & mask
				if dv == 0 {
					fail(x, errModZero())
					break
				}
				d[x] = (a[x] & mask) % dv
			}
		case opDivShift:
			a := rows[in.a][:n]
			mask, s := T(in.mask), uint(in.val)
			for x := range d {
				d[x] = (a[x] & mask) >> s
			}
		case opDivMagic:
			a := rows[in.a][:n]
			mask, m := in.mask, in.magic
			for x := range d {
				d[x] = T(mulHi64(uint64(a[x])&mask, m))
			}
		case opModShift:
			a := rows[in.a][:n]
			mask, dm := T(in.mask), T(in.dcon-1)
			for x := range d {
				d[x] = a[x] & mask & dm
			}
		case opModMagic:
			a := rows[in.a][:n]
			mask, m, dc := in.mask, in.magic, in.dcon
			for x := range d {
				v := uint64(a[x]) & mask
				d[x] = T(v - mulHi64(v, m)*dc)
			}
		case OpNot:
			a := rows[in.a][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = ^a[x] & mask
			}
		case OpNeg:
			a := rows[in.a][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = -a[x] & mask
			}
		case OpShl:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = a[x] << (b[x] & 31) & mask
			}
		case OpShr:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = (a[x] & mask) >> (b[x] & 31)
			}
		case OpSar:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask, sh := in.mask, in.sh
			for x := range d {
				d[x] = T(uint64(sx(uint64(a[x]), sh)>>(uint64(b[x])&31)) & mask)
			}
		case OpZExt:
			a := rows[in.a][:n]
			mask := T(in.mask) // the srcWidth mask
			for x := range d {
				d[x] = a[x] & mask
			}
		case OpSExt:
			a := rows[in.a][:n]
			mask, sh := in.mask, in.sh
			for x := range d {
				d[x] = T(uint64(sx(uint64(a[x]), sh)) & mask)
			}
		case OpExtract:
			a := rows[in.a][:n]
			mask, s := T(in.mask), 8*uint(in.val)
			for x := range d {
				d[x] = a[x] >> s & mask
			}
		case OpSelect:
			cond, bv, cv := rows[in.a][:n], rows[in.b][:n], rows[in.c][:n]
			for x := range d {
				if cond[x] != 0 {
					d[x] = bv[x]
				} else {
					d[x] = cv[x]
				}
			}
		case OpCmpEq:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = T(b2u(a[x]&mask == b[x]&mask))
			}
		case OpCmpNe:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = T(b2u(a[x]&mask != b[x]&mask))
			}
		case OpCmpLtS:
			a, b := rows[in.a][:n], rows[in.b][:n]
			sh := in.sh
			for x := range d {
				d[x] = T(b2u(sx(uint64(a[x]), sh) < sx(uint64(b[x]), sh)))
			}
		case OpCmpLeS:
			a, b := rows[in.a][:n], rows[in.b][:n]
			sh := in.sh
			for x := range d {
				d[x] = T(b2u(sx(uint64(a[x]), sh) <= sx(uint64(b[x]), sh)))
			}
		case OpCmpLtU:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = T(b2u(a[x]&mask < b[x]&mask))
			}
		case OpCmpLeU:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = T(b2u(a[x]&mask <= b[x]&mask))
			}
		case OpTable:
			a := rows[in.a][:n]
			for x := range d {
				v, err := tableAt(in.table, in.elem, int64(a[x]))
				if err != nil {
					fail(x, err)
					break
				}
				d[x] = T(v)
			}
		case OpTableIn:
			a := rows[in.a][:n]
			for x := range d {
				v, err := tableAt(bd.tbl, in.elem, int64(a[x]))
				if err != nil {
					fail(x, err)
					break
				}
				d[x] = T(v)
			}
		case OpIntToFP:
			a := rows[in.a][:n]
			sh := in.sh
			for x := range d {
				d[x] = T(math.Float64bits(float64(sx(uint64(a[x]), sh))))
			}
		case OpFPToInt:
			a := rows[in.a][:n]
			mask := in.mask
			for x := range d {
				d[x] = T(uint64(int64(math.RoundToEven(math.Float64frombits(uint64(a[x]))))) & mask)
			}
		case OpFAdd:
			a, b := rows[in.a][:n], rows[in.b][:n]
			for x := range d {
				d[x] = T(math.Float64bits(math.Float64frombits(uint64(a[x])) + math.Float64frombits(uint64(b[x]))))
			}
		case OpFSub:
			a, b := rows[in.a][:n], rows[in.b][:n]
			for x := range d {
				d[x] = T(math.Float64bits(math.Float64frombits(uint64(a[x])) - math.Float64frombits(uint64(b[x]))))
			}
		case OpFMul:
			a, b := rows[in.a][:n], rows[in.b][:n]
			for x := range d {
				d[x] = T(math.Float64bits(math.Float64frombits(uint64(a[x])) * math.Float64frombits(uint64(b[x]))))
			}
		case OpFDiv:
			a, b := rows[in.a][:n], rows[in.b][:n]
			for x := range d {
				d[x] = T(math.Float64bits(math.Float64frombits(uint64(a[x])) / math.Float64frombits(uint64(b[x]))))
			}
		case OpCall:
			a := rows[in.a][:n]
			fn := in.fn
			for x := range d {
				d[x] = T(math.Float64bits(fn(math.Float64frombits(uint64(a[x])))))
			}
		default:
			return 0, errUnexecutable(in.op)
		}
	}
	return errX, firstErr
}

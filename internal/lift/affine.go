// Affine index-map recovery.  A resize loop defeats the translation-based
// unifier: its per-output trees are identical stencils rooted at input
// pixels that move faster (downsample) or slower (upsample) than the
// output coordinate, so the output-relative load offsets differ from
// sample to sample and the trees refuse to collapse.  The refit here
// re-extracts the trees with absolute input coordinates, rebases each
// sample's loads to its own top-left tap, demands that the rebased trees
// are identical, and fits one rational map per axis — input = (a*x+b)/c —
// through the observed tap bases.  Any index arithmetic that is not
// affine in the output coordinate (x*x, data-dependent gather) leaves
// residuals no (a, b, c) explains and is rejected.
package lift

import (
	"fmt"

	"helium/internal/ir"
	"helium/internal/isa"
	"helium/internal/trace"
)

// Affine fit search bounds: strides (numerators) up to maxAffineNum and
// divisors up to maxAffineDen cover every realistic resize ratio while
// keeping the exhaustive fit trivial.
const (
	maxAffineNum = 32
	maxAffineDen = 8
)

// liftAffine retries one stage as an affine-map stencil after the
// translation-based unifier failed.  It returns a kernel with Origin
// (0, 0) whose MapX/MapY carry the fitted index maps and whose load
// offsets are relative to each output pixel's mapped input base.
func liftAffine(name string, tr *trace.InstTrace, prog *isa.Program, bufs *Buffers) (*ir.Kernel, error) {
	trees, err := extractTrees(tr, prog, bufs, 0, true)
	if err != nil {
		return nil, fmt.Errorf("absolute re-extraction: %w", err)
	}
	out := bufs.Out
	w, h, channels := out.Width(), out.Rows, out.Channels
	t := newExprTable()
	if testHookTable != nil {
		defer testHookTable("affine", t)
	}

	// Rebase every sample's loads to its own minimal tap (a shifted copy:
	// the extracted nodes are interned and shared) and record the per-axis
	// bases; the rebased trees must be one tree per channel.
	reps := make([]*ir.Expr, channels)
	bx := make([]int, w)
	by := make([]int, h)
	seenX := make([]bool, w)
	seenY := make([]bool, h)
	for i := range trees {
		st := &trees[i]
		if len(st.Guards) > 0 {
			return nil, fmt.Errorf("sample (%d,%d) is branch-predicated; the affine refit handles unguarded kernels only", st.X, st.Y)
		}
		minX, minY, any := 0, 0, false
		visitLoads(st.Expr, func(l *ir.Expr) {
			if !any {
				minX, minY, any = l.DX, l.DY, true
				return
			}
			minX, minY = min(minX, l.DX), min(minY, l.DY)
		})
		if !any {
			return nil, fmt.Errorf("sample (%d,%d) reads no input pixels", st.X, st.Y)
		}
		canon := t.canon(t.shift(t.adopt(st.Expr), minX, minY))
		if reps[st.C] == nil {
			reps[st.C] = canon
		} else if !t.sameKey(reps[st.C], canon) {
			return nil, fmt.Errorf("channel %d trees do not differ by a pure translation: sample (%d,%d) computes %s, others %s",
				st.C, st.X, st.Y, canon, reps[st.C])
		}
		// The tap base must separate: the same input column for every
		// output pixel in an output column, and likewise for rows.
		if seenX[st.X] && bx[st.X] != minX {
			return nil, fmt.Errorf("output column %d reads input columns %d and %d; the index map must depend on x alone", st.X, bx[st.X], minX)
		}
		if seenY[st.Y] && by[st.Y] != minY {
			return nil, fmt.Errorf("output row %d reads input rows %d and %d; the index map must depend on y alone", st.Y, by[st.Y], minY)
		}
		bx[st.X], seenX[st.X] = minX, true
		by[st.Y], seenY[st.Y] = minY, true
	}
	for c, r := range reps {
		if r == nil {
			return nil, fmt.Errorf("channel %d produced no samples", c)
		}
		reps[c] = r.Clone() // detached from the refit's table
	}

	mx, err := fitAxisMap(bx)
	if err != nil {
		return nil, fmt.Errorf("x axis: %w", err)
	}
	my, err := fitAxisMap(by)
	if err != nil {
		return nil, fmt.Errorf("y axis: %w", err)
	}
	return &ir.Kernel{
		Name:      name,
		OutWidth:  w,
		OutHeight: h,
		Channels:  channels,
		MapX:      mx,
		MapY:      my,
		Trees:     reps,
	}, nil
}

// fitAxisMap finds the rational map input = (num*x+off)/den reproducing
// the observed per-output-coordinate tap bases.  Evenly spaced bases fit
// exactly with den 1; otherwise (an upsample's repeating bases) a bounded
// search over den in [2, maxAffineDen] and num in [0, maxAffineNum] tries
// every offset that places base 0 correctly.
func fitAxisMap(b []int) (ir.AxisMap, error) {
	if len(b) == 1 {
		return ir.AxisMap{Num: 1, Den: 1, Off: b[0]}, nil
	}
	d := b[1] - b[0]
	even := true
	for x := 1; x < len(b); x++ {
		if b[x]-b[x-1] != d {
			even = false
			break
		}
	}
	if even {
		if d < 0 {
			return ir.AxisMap{}, fmt.Errorf("tap bases decrease (stride %d); mirrored index maps are not supported", d)
		}
		return ir.AxisMap{Num: d, Den: 1, Off: b[0]}, nil
	}
	for den := 2; den <= maxAffineDen; den++ {
		for num := 0; num <= maxAffineNum; num++ {
			// floor(off/den) must equal b[0], which pins off to one
			// den-sized window.
			for off := b[0] * den; off < (b[0]+1)*den; off++ {
				m := ir.AxisMap{Num: num, Den: den, Off: off}
				ok := true
				for x := range b {
					if m.Apply(x) != b[x] {
						ok = false
						break
					}
				}
				if ok {
					return m, nil
				}
			}
		}
	}
	return ir.AxisMap{}, fmt.Errorf("tap bases %v do not fit an affine map (a*x+b)/c; index arithmetic is not affine in the output coordinate", clipInts(b, 12))
}

// clipInts truncates a slice for error messages.
func clipInts(b []int, n int) []int {
	if len(b) <= n {
		return b
	}
	return b[:n]
}

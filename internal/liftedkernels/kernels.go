// Code generated by "helium gen"; DO NOT EDIT.

package liftedkernels

import (
	"fmt"
	"math"
)

var tab0 = [256]byte{
	0x30, 0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x3b, 0x3c, 0x3d, 0x3e, 0x3f,
	0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4a, 0x4b, 0x4c, 0x4d, 0x4e, 0x4f,
	0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x5b, 0x5c, 0x5d, 0x5e, 0x5f,
	0x60, 0x61, 0x62, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x6b, 0x6c, 0x6d, 0x6e, 0x6f,
	0x70, 0x71, 0x72, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7a, 0x7b, 0x7c, 0x7d, 0x7e, 0x7f,
	0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x8b, 0x8c, 0x8d, 0x8e, 0x8f,
	0x90, 0x91, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0x9b, 0x9c, 0x9d, 0x9e, 0x9f,
	0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf,
	0xb0, 0xb1, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xbb, 0xbc, 0xbd, 0xbe, 0xbf,
	0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xcb, 0xcc, 0xcd, 0xce, 0xcf,
	0xd0, 0xd1, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xdb, 0xdc, 0xdd, 0xde, 0xdf,
	0xe0, 0xe1, 0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xeb, 0xec, 0xed, 0xee, 0xef,
	0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xfe, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

// blur2p is the lifted 2-stage stencil pipeline
//
//	// blur2p#0: 40x26x1
//
//	out(x, y, c) = ((in(x-1, y) + in(x, y) + in(x+1, y) + 1) / 3)
//
//	// blur2p#1: 40x24x1
//
//	out(x, y, c) = ((in(x, y-1) + in(x, y) + in(x, y+1) + 1) / 3)
func init() {
	register(&Kernel{
		Name:          "blur2p",
		Channels:      1,
		DefaultWidth:  40,
		DefaultHeight: 24,
		Stages: []StageSpec{
			{Channels: 1, OriginX: 0, OriginY: -1, DW: 0, DH: 2, MinDY: -1, MaxDY: -1, MinDX: -1, MaxDX: 1,
				LaneBits: []int{16},
				Rows:     []RowFunc{rowBlur2pS0C0},
			},
			{Channels: 1, OriginX: 0, OriginY: 1, DW: 0, DH: 0, MinDY: 0, MaxDY: 2, MinDX: 0, MaxDX: 0,
				LaneBits: []int{16},
				Rows:     []RowFunc{rowBlur2pS1C0},
			},
		},
		FusedStrip: fusedBlur2p,
		Sched:      ScheduleSpec{Fusion: "slidingWindow", WindowRows: 0},
	})
}

// rowBlur2pS0C0 renders channel 0 rows in 16-bit lanes (2 instructions, 3 taps).
func rowBlur2pS0C0(dst []byte, step int, img *Image, y, xbase, n int) (int, error) {
	pix := img.Pix
	ps := img.PixStep
	pos0 := img.Base + y*img.Stride + xbase*ps + 0*img.ChanStep
	o0 := -1 * ps
	o1 := 0
	o2 := 1 * ps
	if n > 0 && spanIn(pos0+o0, pos0+o0+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o1, pos0+o1+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o2, pos0+o2+(n-1)*ps, len(pix)) {
		if ps == 1 && step == 1 {
			s0 := pix[pos0+o0 : pos0+o0+n : pos0+o0+n]
			s1 := pix[pos0+o1 : pos0+o1+n : pos0+o1+n]
			s2 := pix[pos0+o2 : pos0+o2+n : pos0+o2+n]
			d := dst[:n:n]
			x := 0
			// bce:begin
			for len(s0) >= 8 && len(s1) >= 8 && len(s2) >= 8 && len(d) >= 8 {
				{
					v0 := (1 + uint16(s0[0]) + uint16(s1[0]) + uint16(s2[0]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[0] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[1]) + uint16(s1[1]) + uint16(s2[1]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[1] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[2]) + uint16(s1[2]) + uint16(s2[2]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[2] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[3]) + uint16(s1[3]) + uint16(s2[3]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[3] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[4]) + uint16(s1[4]) + uint16(s2[4]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[4] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[5]) + uint16(s1[5]) + uint16(s2[5]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[5] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[6]) + uint16(s1[6]) + uint16(s2[6]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[6] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[7]) + uint16(s1[7]) + uint16(s2[7]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[7] = uint8(v1)
				}
				s0, s1, s2, d = s0[8:], s1[8:], s2[8:], d[8:]
				x += 8
			}
			for len(s0) > 0 && len(s1) > 0 && len(s2) > 0 && len(d) > 0 {
				v0 := (1 + uint16(s0[0]) + uint16(s1[0]) + uint16(s2[0]))
				v1 := uint16(uint64(v0) * 0x55555556 >> 32)
				d[0] = uint8(v1)
				s0, s1, s2, d = s0[1:], s1[1:], s2[1:], d[1:]
				x++
			}
			// bce:end
			return -1, nil
		}
		for x := 0; x < n; x++ {
			p := pos0 + x*ps
			v0 := (1 + uint16(pix[p+o0]) + uint16(pix[p+o1]) + uint16(pix[p+o2]))
			v1 := uint16(uint64(v0) * 0x55555556 >> 32)
			dst[x*step] = uint8(v1)
		}
		return -1, nil
	}
	for x := 0; x < n; x++ {
		p := pos0 + x*ps
		i0_0 := p + o0
		if uint(i0_0) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		i0_1 := p + o1
		if uint(i0_1) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		i0_2 := p + o2
		if uint(i0_2) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		v0 := (1 + uint16(pix[i0_0]) + uint16(pix[i0_1]) + uint16(pix[i0_2]))
		v1 := uint16(uint64(v0) * 0x55555556 >> 32)
		dst[x*step] = uint8(v1)
	}
	return -1, nil
}

// rowBlur2pS1C0 renders channel 0 rows in 16-bit lanes (2 instructions, 3 taps).
func rowBlur2pS1C0(dst []byte, step int, img *Image, y, xbase, n int) (int, error) {
	pix := img.Pix
	ps := img.PixStep
	pos0 := img.Base + y*img.Stride + xbase*ps + 0*img.ChanStep
	o0 := -1 * img.Stride
	o1 := 0
	o2 := 1 * img.Stride
	if n > 0 && spanIn(pos0+o0, pos0+o0+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o1, pos0+o1+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o2, pos0+o2+(n-1)*ps, len(pix)) {
		if ps == 1 && step == 1 {
			s0 := pix[pos0+o0 : pos0+o0+n : pos0+o0+n]
			s1 := pix[pos0+o1 : pos0+o1+n : pos0+o1+n]
			s2 := pix[pos0+o2 : pos0+o2+n : pos0+o2+n]
			d := dst[:n:n]
			x := 0
			// bce:begin
			for len(s0) >= 8 && len(s1) >= 8 && len(s2) >= 8 && len(d) >= 8 {
				{
					v0 := (1 + uint16(s0[0]) + uint16(s1[0]) + uint16(s2[0]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[0] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[1]) + uint16(s1[1]) + uint16(s2[1]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[1] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[2]) + uint16(s1[2]) + uint16(s2[2]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[2] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[3]) + uint16(s1[3]) + uint16(s2[3]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[3] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[4]) + uint16(s1[4]) + uint16(s2[4]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[4] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[5]) + uint16(s1[5]) + uint16(s2[5]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[5] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[6]) + uint16(s1[6]) + uint16(s2[6]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[6] = uint8(v1)
				}
				{
					v0 := (1 + uint16(s0[7]) + uint16(s1[7]) + uint16(s2[7]))
					v1 := uint16(uint64(v0) * 0x55555556 >> 32)
					d[7] = uint8(v1)
				}
				s0, s1, s2, d = s0[8:], s1[8:], s2[8:], d[8:]
				x += 8
			}
			for len(s0) > 0 && len(s1) > 0 && len(s2) > 0 && len(d) > 0 {
				v0 := (1 + uint16(s0[0]) + uint16(s1[0]) + uint16(s2[0]))
				v1 := uint16(uint64(v0) * 0x55555556 >> 32)
				d[0] = uint8(v1)
				s0, s1, s2, d = s0[1:], s1[1:], s2[1:], d[1:]
				x++
			}
			// bce:end
			return -1, nil
		}
		for x := 0; x < n; x++ {
			p := pos0 + x*ps
			v0 := (1 + uint16(pix[p+o0]) + uint16(pix[p+o1]) + uint16(pix[p+o2]))
			v1 := uint16(uint64(v0) * 0x55555556 >> 32)
			dst[x*step] = uint8(v1)
		}
		return -1, nil
	}
	for x := 0; x < n; x++ {
		p := pos0 + x*ps
		i0_0 := p + o0
		if uint(i0_0) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		i0_1 := p + o1
		if uint(i0_1) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		i0_2 := p + o2
		if uint(i0_2) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		v0 := (1 + uint16(pix[i0_0]) + uint16(pix[i0_1]) + uint16(pix[i0_2]))
		v1 := uint16(uint64(v0) * 0x55555556 >> 32)
		dst[x*step] = uint8(v1)
	}
	return -1, nil
}

// fusedBlur2p streams stage 0 through a 3-row ring sized by stage 1's
// literal row footprint [0,2] — the baked sliding-window body.
func fusedBlur2p(sc *Scratch, img *Image, out []byte, ws, hs []int, errs []*rowErr) {
	const maxDY = 2
	const ringRows = 3
	w0, w1 := ws[0], ws[1]
	h0, h1 := hs[0], hs[1]
	ring := sc.buf(0, ringRows*w0)
	rim := sc.img(0)
	*rim = Image{Pix: ring, Stride: w0, PixStep: 1, Tbl: img.Tbl}
	yBase, cur := 0, 0
	produce := func(y int) bool {
		ph := y - yBase
		if ph >= ringRows {
			copy(ring, ring[w0:ringRows*w0])
			yBase++
			rim.Base = -yBase * w0
			ph = y - yBase
		}
		x, err := rowBlur2pS0C0(ring[ph*w0:], 1, img, y+-1, 0, w0)
		if err != nil {
			errs[0] = &rowErr{y: y, x: x, c: 0, err: err}
			return false
		}
		return true
	}
	for y := 0; y < h1; y++ {
		for top := y + maxDY; cur <= top && cur < h0; cur++ {
			if !produce(cur) {
				return
			}
		}
		x, err := rowBlur2pS1C0(out[y*w1:], 1, rim, y+1, 0, w1)
		if err != nil {
			errs[1] = &rowErr{y: y, x: x, c: 0, err: err}
			break
		}
	}
	// Drain: the materializing chain computes every producer row, so a
	// fault above the consumed range must still surface.
	for ; cur < h0; cur++ {
		if !produce(cur) {
			return
		}
	}
}

// boxblur3 is the lifted stencil
//
//	// boxblur3: 40x24x1
//
//	out(x, y, c) = ((in(x-1, y-1) + in(x-1, y) + in(x-1, y+1) + in(x, y-1) + in(x, y) + in(x, y+1) + in(x+1, y-1) + in(x+1, y) + in(x+1, y+1) + 4) / 9)
func init() {
	register(&Kernel{
		Name:          "boxblur3",
		Channels:      1,
		OriginX:       0,
		OriginY:       0,
		DefaultWidth:  40,
		DefaultHeight: 24,
		LaneBits:      []int{16},
		Rows:          []RowFunc{rowBoxblur3C0},
	})
}

// rowBoxblur3C0 renders channel 0 rows in 16-bit lanes (2 instructions, 9 taps).
func rowBoxblur3C0(dst []byte, step int, img *Image, y, xbase, n int) (int, error) {
	pix := img.Pix
	ps := img.PixStep
	pos0 := img.Base + y*img.Stride + xbase*ps + 0*img.ChanStep
	o0 := -1*img.Stride + -1*ps
	o1 := -1 * ps
	o2 := 1*img.Stride + -1*ps
	o3 := -1 * img.Stride
	o4 := 0
	o5 := 1 * img.Stride
	o6 := -1*img.Stride + 1*ps
	o7 := 1 * ps
	o8 := 1*img.Stride + 1*ps
	if n > 0 && spanIn(pos0+o0, pos0+o0+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o1, pos0+o1+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o2, pos0+o2+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o3, pos0+o3+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o4, pos0+o4+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o5, pos0+o5+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o6, pos0+o6+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o7, pos0+o7+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o8, pos0+o8+(n-1)*ps, len(pix)) {
		if ps == 1 && step == 1 {
			s0 := pix[pos0+o0 : pos0+o0+n : pos0+o0+n]
			s1 := pix[pos0+o1 : pos0+o1+n : pos0+o1+n]
			s2 := pix[pos0+o2 : pos0+o2+n : pos0+o2+n]
			s3 := pix[pos0+o3 : pos0+o3+n : pos0+o3+n]
			s4 := pix[pos0+o4 : pos0+o4+n : pos0+o4+n]
			s5 := pix[pos0+o5 : pos0+o5+n : pos0+o5+n]
			s6 := pix[pos0+o6 : pos0+o6+n : pos0+o6+n]
			s7 := pix[pos0+o7 : pos0+o7+n : pos0+o7+n]
			s8 := pix[pos0+o8 : pos0+o8+n : pos0+o8+n]
			d := dst[:n:n]
			x := 0
			// bce:begin
			for len(s0) >= 8 && len(s1) >= 8 && len(s2) >= 8 && len(s3) >= 8 && len(s4) >= 8 && len(s5) >= 8 && len(s6) >= 8 && len(s7) >= 8 && len(s8) >= 8 && len(d) >= 8 {
				{
					v0 := (4 + uint16(s0[0]) + uint16(s1[0]) + uint16(s2[0]) + uint16(s3[0]) + uint16(s4[0]) + uint16(s5[0]) + uint16(s6[0]) + uint16(s7[0]) + uint16(s8[0]))
					v1 := uint16(uint64(v0) * 0x1c71c71d >> 32)
					d[0] = uint8(v1)
				}
				{
					v0 := (4 + uint16(s0[1]) + uint16(s1[1]) + uint16(s2[1]) + uint16(s3[1]) + uint16(s4[1]) + uint16(s5[1]) + uint16(s6[1]) + uint16(s7[1]) + uint16(s8[1]))
					v1 := uint16(uint64(v0) * 0x1c71c71d >> 32)
					d[1] = uint8(v1)
				}
				{
					v0 := (4 + uint16(s0[2]) + uint16(s1[2]) + uint16(s2[2]) + uint16(s3[2]) + uint16(s4[2]) + uint16(s5[2]) + uint16(s6[2]) + uint16(s7[2]) + uint16(s8[2]))
					v1 := uint16(uint64(v0) * 0x1c71c71d >> 32)
					d[2] = uint8(v1)
				}
				{
					v0 := (4 + uint16(s0[3]) + uint16(s1[3]) + uint16(s2[3]) + uint16(s3[3]) + uint16(s4[3]) + uint16(s5[3]) + uint16(s6[3]) + uint16(s7[3]) + uint16(s8[3]))
					v1 := uint16(uint64(v0) * 0x1c71c71d >> 32)
					d[3] = uint8(v1)
				}
				{
					v0 := (4 + uint16(s0[4]) + uint16(s1[4]) + uint16(s2[4]) + uint16(s3[4]) + uint16(s4[4]) + uint16(s5[4]) + uint16(s6[4]) + uint16(s7[4]) + uint16(s8[4]))
					v1 := uint16(uint64(v0) * 0x1c71c71d >> 32)
					d[4] = uint8(v1)
				}
				{
					v0 := (4 + uint16(s0[5]) + uint16(s1[5]) + uint16(s2[5]) + uint16(s3[5]) + uint16(s4[5]) + uint16(s5[5]) + uint16(s6[5]) + uint16(s7[5]) + uint16(s8[5]))
					v1 := uint16(uint64(v0) * 0x1c71c71d >> 32)
					d[5] = uint8(v1)
				}
				{
					v0 := (4 + uint16(s0[6]) + uint16(s1[6]) + uint16(s2[6]) + uint16(s3[6]) + uint16(s4[6]) + uint16(s5[6]) + uint16(s6[6]) + uint16(s7[6]) + uint16(s8[6]))
					v1 := uint16(uint64(v0) * 0x1c71c71d >> 32)
					d[6] = uint8(v1)
				}
				{
					v0 := (4 + uint16(s0[7]) + uint16(s1[7]) + uint16(s2[7]) + uint16(s3[7]) + uint16(s4[7]) + uint16(s5[7]) + uint16(s6[7]) + uint16(s7[7]) + uint16(s8[7]))
					v1 := uint16(uint64(v0) * 0x1c71c71d >> 32)
					d[7] = uint8(v1)
				}
				s0, s1, s2, s3, s4, s5, s6, s7, s8, d = s0[8:], s1[8:], s2[8:], s3[8:], s4[8:], s5[8:], s6[8:], s7[8:], s8[8:], d[8:]
				x += 8
			}
			for len(s0) > 0 && len(s1) > 0 && len(s2) > 0 && len(s3) > 0 && len(s4) > 0 && len(s5) > 0 && len(s6) > 0 && len(s7) > 0 && len(s8) > 0 && len(d) > 0 {
				v0 := (4 + uint16(s0[0]) + uint16(s1[0]) + uint16(s2[0]) + uint16(s3[0]) + uint16(s4[0]) + uint16(s5[0]) + uint16(s6[0]) + uint16(s7[0]) + uint16(s8[0]))
				v1 := uint16(uint64(v0) * 0x1c71c71d >> 32)
				d[0] = uint8(v1)
				s0, s1, s2, s3, s4, s5, s6, s7, s8, d = s0[1:], s1[1:], s2[1:], s3[1:], s4[1:], s5[1:], s6[1:], s7[1:], s8[1:], d[1:]
				x++
			}
			// bce:end
			return -1, nil
		}
		for x := 0; x < n; x++ {
			p := pos0 + x*ps
			v0 := (4 + uint16(pix[p+o0]) + uint16(pix[p+o1]) + uint16(pix[p+o2]) + uint16(pix[p+o3]) + uint16(pix[p+o4]) + uint16(pix[p+o5]) + uint16(pix[p+o6]) + uint16(pix[p+o7]) + uint16(pix[p+o8]))
			v1 := uint16(uint64(v0) * 0x1c71c71d >> 32)
			dst[x*step] = uint8(v1)
		}
		return -1, nil
	}
	for x := 0; x < n; x++ {
		p := pos0 + x*ps
		i0_0 := p + o0
		if uint(i0_0) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		i0_1 := p + o1
		if uint(i0_1) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		i0_2 := p + o2
		if uint(i0_2) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		i0_3 := p + o3
		if uint(i0_3) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		i0_4 := p + o4
		if uint(i0_4) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		i0_5 := p + o5
		if uint(i0_5) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		i0_6 := p + o6
		if uint(i0_6) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		i0_7 := p + o7
		if uint(i0_7) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		i0_8 := p + o8
		if uint(i0_8) >= uint(len(pix)) {
			return x, errLoad(xbase+x, y, 0)
		}
		v0 := (4 + uint16(pix[i0_0]) + uint16(pix[i0_1]) + uint16(pix[i0_2]) + uint16(pix[i0_3]) + uint16(pix[i0_4]) + uint16(pix[i0_5]) + uint16(pix[i0_6]) + uint16(pix[i0_7]) + uint16(pix[i0_8]))
		v1 := uint16(uint64(v0) * 0x1c71c71d >> 32)
		dst[x*step] = uint8(v1)
	}
	return -1, nil
}

// brighten is the lifted stencil
//
//	// brighten: 40x24x1
//
//	out(x, y, c) = lut[in(x, y)]
func init() {
	register(&Kernel{
		Name:          "brighten",
		Channels:      1,
		OriginX:       0,
		OriginY:       0,
		DefaultWidth:  40,
		DefaultHeight: 24,
		LaneBits:      []int{8},
		Rows:          []RowFunc{rowBrightenC0},
	})
}

// rowBrightenC0 renders channel 0 rows in 8-bit lanes (2 instructions, 1 taps).
func rowBrightenC0(dst []byte, step int, img *Image, y, xbase, n int) (int, error) {
	pix := img.Pix
	ps := img.PixStep
	pos0 := img.Base + y*img.Stride + xbase*ps + 0*img.ChanStep
	o0 := 0
	if n > 0 && spanIn(pos0+o0, pos0+o0+(n-1)*ps, len(pix)) {
		if ps == 1 && step == 1 {
			s0 := pix[pos0+o0 : pos0+o0+n : pos0+o0+n]
			d := dst[:n:n]
			x := 0
			// bce:begin
			for len(s0) >= 8 && len(d) >= 8 {
				{
					v0 := uint8(s0[0])
					v1 := uint8(tab0[v0])
					d[0] = uint8(v1)
				}
				{
					v0 := uint8(s0[1])
					v1 := uint8(tab0[v0])
					d[1] = uint8(v1)
				}
				{
					v0 := uint8(s0[2])
					v1 := uint8(tab0[v0])
					d[2] = uint8(v1)
				}
				{
					v0 := uint8(s0[3])
					v1 := uint8(tab0[v0])
					d[3] = uint8(v1)
				}
				{
					v0 := uint8(s0[4])
					v1 := uint8(tab0[v0])
					d[4] = uint8(v1)
				}
				{
					v0 := uint8(s0[5])
					v1 := uint8(tab0[v0])
					d[5] = uint8(v1)
				}
				{
					v0 := uint8(s0[6])
					v1 := uint8(tab0[v0])
					d[6] = uint8(v1)
				}
				{
					v0 := uint8(s0[7])
					v1 := uint8(tab0[v0])
					d[7] = uint8(v1)
				}
				s0, d = s0[8:], d[8:]
				x += 8
			}
			for len(s0) > 0 && len(d) > 0 {
				v0 := uint8(s0[0])
				v1 := uint8(tab0[v0])
				d[0] = uint8(v1)
				s0, d = s0[1:], d[1:]
				x++
			}
			// bce:end
			return -1, nil
		}
		for x := 0; x < n; x++ {
			p := pos0 + x*ps
			v0 := uint8(pix[p+o0])
			v1 := uint8(tab0[v0])
			dst[x*step] = uint8(v1)
		}
		return -1, nil
	}
	for x := 0; x < n; x++ {
		p := pos0 + x*ps
		i0 := p + o0
		if uint(i0) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(0), y+(0), 0)
		}
		v0 := uint8(pix[i0])
		v1 := uint8(tab0[v0])
		dst[x*step] = uint8(v1)
	}
	return -1, nil
}

// clampsharp is the lifted stencil
//
//	// clampsharp: 40x24x1
//
//	out(x, y, c) = min(max((((((in(x, y) * 5) - in(x-1, y)) - in(x+1, y)) - in(x, y-1)) - in(x, y+1)), 0), 255)
func init() {
	register(&Kernel{
		Name:          "clampsharp",
		Channels:      1,
		OriginX:       0,
		OriginY:       0,
		DefaultWidth:  40,
		DefaultHeight: 24,
		LaneBits:      []int{32},
		Rows:          []RowFunc{rowClampsharpC0},
		Tuned:         tunedClampsharp,
		Sched:         ScheduleSpec{Fusion: "materialize", WindowRows: 0, Stages: []StageSched{{TileW: 256, TileH: 32}}},
	})
}

// rowClampsharpC0 renders channel 0 rows in 32-bit lanes (12 instructions, 5 taps).
func rowClampsharpC0(dst []byte, step int, img *Image, y, xbase, n int) (int, error) {
	pix := img.Pix
	ps := img.PixStep
	pos0 := img.Base + y*img.Stride + xbase*ps + 0*img.ChanStep
	o0 := 0
	o1 := -1 * ps
	o2 := 1 * ps
	o3 := -1 * img.Stride
	o4 := 1 * img.Stride
	if n > 0 && spanIn(pos0+o0, pos0+o0+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o1, pos0+o1+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o2, pos0+o2+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o3, pos0+o3+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o4, pos0+o4+(n-1)*ps, len(pix)) {
		if ps == 1 && step == 1 {
			s0 := pix[pos0+o0 : pos0+o0+n : pos0+o0+n]
			s1 := pix[pos0+o1 : pos0+o1+n : pos0+o1+n]
			s2 := pix[pos0+o2 : pos0+o2+n : pos0+o2+n]
			s3 := pix[pos0+o3 : pos0+o3+n : pos0+o3+n]
			s4 := pix[pos0+o4 : pos0+o4+n : pos0+o4+n]
			d := dst[:n:n]
			x := 0
			// bce:begin
			for len(s0) >= 8 && len(s1) >= 8 && len(s2) >= 8 && len(s3) >= 8 && len(s4) >= 8 && len(d) >= 8 {
				{
					v0 := uint32(s0[0])
					v1 := (v0 * 5)
					v2 := uint32(s1[0])
					v3 := (v1 - v2)
					v4 := uint32(s2[0])
					v5 := (v3 - v4)
					v6 := uint32(s3[0])
					v7 := (v5 - v6)
					v8 := uint32(s4[0])
					v9 := (v7 - v8)
					v10 := uint32(max(int32(v9), int32(0)))
					v11 := uint32(min(int32(v10), int32(255)))
					d[0] = uint8(v11)
				}
				{
					v0 := uint32(s0[1])
					v1 := (v0 * 5)
					v2 := uint32(s1[1])
					v3 := (v1 - v2)
					v4 := uint32(s2[1])
					v5 := (v3 - v4)
					v6 := uint32(s3[1])
					v7 := (v5 - v6)
					v8 := uint32(s4[1])
					v9 := (v7 - v8)
					v10 := uint32(max(int32(v9), int32(0)))
					v11 := uint32(min(int32(v10), int32(255)))
					d[1] = uint8(v11)
				}
				{
					v0 := uint32(s0[2])
					v1 := (v0 * 5)
					v2 := uint32(s1[2])
					v3 := (v1 - v2)
					v4 := uint32(s2[2])
					v5 := (v3 - v4)
					v6 := uint32(s3[2])
					v7 := (v5 - v6)
					v8 := uint32(s4[2])
					v9 := (v7 - v8)
					v10 := uint32(max(int32(v9), int32(0)))
					v11 := uint32(min(int32(v10), int32(255)))
					d[2] = uint8(v11)
				}
				{
					v0 := uint32(s0[3])
					v1 := (v0 * 5)
					v2 := uint32(s1[3])
					v3 := (v1 - v2)
					v4 := uint32(s2[3])
					v5 := (v3 - v4)
					v6 := uint32(s3[3])
					v7 := (v5 - v6)
					v8 := uint32(s4[3])
					v9 := (v7 - v8)
					v10 := uint32(max(int32(v9), int32(0)))
					v11 := uint32(min(int32(v10), int32(255)))
					d[3] = uint8(v11)
				}
				{
					v0 := uint32(s0[4])
					v1 := (v0 * 5)
					v2 := uint32(s1[4])
					v3 := (v1 - v2)
					v4 := uint32(s2[4])
					v5 := (v3 - v4)
					v6 := uint32(s3[4])
					v7 := (v5 - v6)
					v8 := uint32(s4[4])
					v9 := (v7 - v8)
					v10 := uint32(max(int32(v9), int32(0)))
					v11 := uint32(min(int32(v10), int32(255)))
					d[4] = uint8(v11)
				}
				{
					v0 := uint32(s0[5])
					v1 := (v0 * 5)
					v2 := uint32(s1[5])
					v3 := (v1 - v2)
					v4 := uint32(s2[5])
					v5 := (v3 - v4)
					v6 := uint32(s3[5])
					v7 := (v5 - v6)
					v8 := uint32(s4[5])
					v9 := (v7 - v8)
					v10 := uint32(max(int32(v9), int32(0)))
					v11 := uint32(min(int32(v10), int32(255)))
					d[5] = uint8(v11)
				}
				{
					v0 := uint32(s0[6])
					v1 := (v0 * 5)
					v2 := uint32(s1[6])
					v3 := (v1 - v2)
					v4 := uint32(s2[6])
					v5 := (v3 - v4)
					v6 := uint32(s3[6])
					v7 := (v5 - v6)
					v8 := uint32(s4[6])
					v9 := (v7 - v8)
					v10 := uint32(max(int32(v9), int32(0)))
					v11 := uint32(min(int32(v10), int32(255)))
					d[6] = uint8(v11)
				}
				{
					v0 := uint32(s0[7])
					v1 := (v0 * 5)
					v2 := uint32(s1[7])
					v3 := (v1 - v2)
					v4 := uint32(s2[7])
					v5 := (v3 - v4)
					v6 := uint32(s3[7])
					v7 := (v5 - v6)
					v8 := uint32(s4[7])
					v9 := (v7 - v8)
					v10 := uint32(max(int32(v9), int32(0)))
					v11 := uint32(min(int32(v10), int32(255)))
					d[7] = uint8(v11)
				}
				s0, s1, s2, s3, s4, d = s0[8:], s1[8:], s2[8:], s3[8:], s4[8:], d[8:]
				x += 8
			}
			for len(s0) > 0 && len(s1) > 0 && len(s2) > 0 && len(s3) > 0 && len(s4) > 0 && len(d) > 0 {
				v0 := uint32(s0[0])
				v1 := (v0 * 5)
				v2 := uint32(s1[0])
				v3 := (v1 - v2)
				v4 := uint32(s2[0])
				v5 := (v3 - v4)
				v6 := uint32(s3[0])
				v7 := (v5 - v6)
				v8 := uint32(s4[0])
				v9 := (v7 - v8)
				v10 := uint32(max(int32(v9), int32(0)))
				v11 := uint32(min(int32(v10), int32(255)))
				d[0] = uint8(v11)
				s0, s1, s2, s3, s4, d = s0[1:], s1[1:], s2[1:], s3[1:], s4[1:], d[1:]
				x++
			}
			// bce:end
			return -1, nil
		}
		for x := 0; x < n; x++ {
			p := pos0 + x*ps
			v0 := uint32(pix[p+o0])
			v1 := (v0 * 5)
			v2 := uint32(pix[p+o1])
			v3 := (v1 - v2)
			v4 := uint32(pix[p+o2])
			v5 := (v3 - v4)
			v6 := uint32(pix[p+o3])
			v7 := (v5 - v6)
			v8 := uint32(pix[p+o4])
			v9 := (v7 - v8)
			v10 := uint32(max(int32(v9), int32(0)))
			v11 := uint32(min(int32(v10), int32(255)))
			dst[x*step] = uint8(v11)
		}
		return -1, nil
	}
	for x := 0; x < n; x++ {
		p := pos0 + x*ps
		i0 := p + o0
		if uint(i0) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(0), y+(0), 0)
		}
		v0 := uint32(pix[i0])
		v1 := (v0 * 5)
		i2 := p + o1
		if uint(i2) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(-1), y+(0), 0)
		}
		v2 := uint32(pix[i2])
		v3 := (v1 - v2)
		i4 := p + o2
		if uint(i4) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(1), y+(0), 0)
		}
		v4 := uint32(pix[i4])
		v5 := (v3 - v4)
		i6 := p + o3
		if uint(i6) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(0), y+(-1), 0)
		}
		v6 := uint32(pix[i6])
		v7 := (v5 - v6)
		i8 := p + o4
		if uint(i8) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(0), y+(1), 0)
		}
		v8 := uint32(pix[i8])
		v9 := (v7 - v8)
		v10 := uint32(max(int32(v9), int32(0)))
		v11 := uint32(min(int32(v10), int32(255)))
		dst[x*step] = uint8(v11)
	}
	return -1, nil
}

// tunedClampsharp renders through the tuned 256x32 tile blocking baked in as
// literal loop bounds (the embedded schedule's fast path).
func tunedClampsharp(sc *Scratch, img *Image, outW, outH int) ([]byte, error) {
	const tileW, tileH = 256, 32
	out := sc.outBuf(outW * outH * 1)
	var first *rowErr
	for ty := 0; ty < outH; ty += tileH {
		th := outH - ty
		if th > tileH {
			th = tileH
		}
		for tx := 0; tx < outW; tx += tileW {
			tw := outW - tx
			if tw > tileW {
				tw = tileW
			}
			for y := ty; y < ty+th; y++ {
				x, err := rowClampsharpC0(out[(y*outW+tx)*1:], 1, img, y+0, 0+tx, tw)
				if err != nil {
					e := &rowErr{y: y, x: x + tx, c: 0, err: err}
					if first == nil || e.before(first) {
						first = e
					}
					break
				}
			}
		}
	}
	if first != nil {
		return nil, fmt.Errorf("ir: kernel clampsharp at (%d,%d,%d): %w", first.x, first.y, first.c, first.err)
	}
	return out, nil
}

// downsample2x is the lifted stencil
//
//	// downsample2x: 20x12x1
//
//	// index map: x' = 2*x, y' = 2*y
//
//	out(x, y, c) = byte0(((in(x, y) + in(x, y+1) + in(x+1, y) + in(x+1, y+1) + 2) >> 2))
func init() {
	register(&Kernel{
		Name:          "downsample2x",
		Channels:      1,
		OriginX:       0,
		OriginY:       0,
		DefaultWidth:  20,
		DefaultHeight: 12,
		LaneBits:      []int{16},
		Rows:          []RowFunc{rowDownsample2xC0},
		Tuned:         tunedDownsample2x,
		Sched:         ScheduleSpec{Fusion: "materialize", WindowRows: 0, Stages: []StageSched{{TileW: 128, TileH: 16}}},
	})
}

// rowDownsample2xC0 renders channel 0 rows in 16-bit lanes (3 instructions, 4 taps).
func rowDownsample2xC0(dst []byte, step int, img *Image, y, xbase, n int) (int, error) {
	y = 2 * y
	xbase = 2 * xbase
	pix := img.Pix
	ps := img.PixStep
	pos0 := img.Base + y*img.Stride + xbase*ps + 0*img.ChanStep
	o0 := 0
	o1 := 1 * img.Stride
	o2 := 1 * ps
	o3 := 1*img.Stride + 1*ps
	if n > 0 && spanIn(pos0+o0, pos0+o0+(n-1)*2*ps, len(pix)) &&
		spanIn(pos0+o1, pos0+o1+(n-1)*2*ps, len(pix)) &&
		spanIn(pos0+o2, pos0+o2+(n-1)*2*ps, len(pix)) &&
		spanIn(pos0+o3, pos0+o3+(n-1)*2*ps, len(pix)) {
		if ps == 1 && step == 1 {
			sp := (n-1)*2 + 1
			s0 := pix[pos0+o0 : pos0+o0+sp : pos0+o0+sp]
			s1 := pix[pos0+o1 : pos0+o1+sp : pos0+o1+sp]
			s2 := pix[pos0+o2 : pos0+o2+sp : pos0+o2+sp]
			s3 := pix[pos0+o3 : pos0+o3+sp : pos0+o3+sp]
			d := dst[:n:n]
			x := 0
			// bce:begin
			for len(s0) >= 16 && len(s1) >= 16 && len(s2) >= 16 && len(s3) >= 16 && len(d) >= 8 {
				{
					v0 := (2 + uint16(s0[0]) + uint16(s1[0]) + uint16(s2[0]) + uint16(s3[0]))
					v1 := (v0) >> (2 & 31)
					v2 := v1 >> 0 & 255
					d[0] = uint8(v2)
				}
				{
					v0 := (2 + uint16(s0[2]) + uint16(s1[2]) + uint16(s2[2]) + uint16(s3[2]))
					v1 := (v0) >> (2 & 31)
					v2 := v1 >> 0 & 255
					d[1] = uint8(v2)
				}
				{
					v0 := (2 + uint16(s0[4]) + uint16(s1[4]) + uint16(s2[4]) + uint16(s3[4]))
					v1 := (v0) >> (2 & 31)
					v2 := v1 >> 0 & 255
					d[2] = uint8(v2)
				}
				{
					v0 := (2 + uint16(s0[6]) + uint16(s1[6]) + uint16(s2[6]) + uint16(s3[6]))
					v1 := (v0) >> (2 & 31)
					v2 := v1 >> 0 & 255
					d[3] = uint8(v2)
				}
				{
					v0 := (2 + uint16(s0[8]) + uint16(s1[8]) + uint16(s2[8]) + uint16(s3[8]))
					v1 := (v0) >> (2 & 31)
					v2 := v1 >> 0 & 255
					d[4] = uint8(v2)
				}
				{
					v0 := (2 + uint16(s0[10]) + uint16(s1[10]) + uint16(s2[10]) + uint16(s3[10]))
					v1 := (v0) >> (2 & 31)
					v2 := v1 >> 0 & 255
					d[5] = uint8(v2)
				}
				{
					v0 := (2 + uint16(s0[12]) + uint16(s1[12]) + uint16(s2[12]) + uint16(s3[12]))
					v1 := (v0) >> (2 & 31)
					v2 := v1 >> 0 & 255
					d[6] = uint8(v2)
				}
				{
					v0 := (2 + uint16(s0[14]) + uint16(s1[14]) + uint16(s2[14]) + uint16(s3[14]))
					v1 := (v0) >> (2 & 31)
					v2 := v1 >> 0 & 255
					d[7] = uint8(v2)
				}
				s0, s1, s2, s3, d = s0[16:], s1[16:], s2[16:], s3[16:], d[8:]
				x += 8
			}
			// bce:end
			for ; x < n; x++ {
				p := pos0 + x*2*ps
				v0 := (2 + uint16(pix[p+o0]) + uint16(pix[p+o1]) + uint16(pix[p+o2]) + uint16(pix[p+o3]))
				v1 := (v0) >> (2 & 31)
				v2 := v1 >> 0 & 255
				dst[x*step] = uint8(v2)
			}
			return -1, nil
		}
		for x := 0; x < n; x++ {
			p := pos0 + x*2*ps
			v0 := (2 + uint16(pix[p+o0]) + uint16(pix[p+o1]) + uint16(pix[p+o2]) + uint16(pix[p+o3]))
			v1 := (v0) >> (2 & 31)
			v2 := v1 >> 0 & 255
			dst[x*step] = uint8(v2)
		}
		return -1, nil
	}
	for x := 0; x < n; x++ {
		p := pos0 + x*2*ps
		i0_0 := p + o0
		if uint(i0_0) >= uint(len(pix)) {
			return x, errLoad(xbase+x*2, y, 0)
		}
		i0_1 := p + o1
		if uint(i0_1) >= uint(len(pix)) {
			return x, errLoad(xbase+x*2, y, 0)
		}
		i0_2 := p + o2
		if uint(i0_2) >= uint(len(pix)) {
			return x, errLoad(xbase+x*2, y, 0)
		}
		i0_3 := p + o3
		if uint(i0_3) >= uint(len(pix)) {
			return x, errLoad(xbase+x*2, y, 0)
		}
		v0 := (2 + uint16(pix[i0_0]) + uint16(pix[i0_1]) + uint16(pix[i0_2]) + uint16(pix[i0_3]))
		v1 := (v0) >> (2 & 31)
		v2 := v1 >> 0 & 255
		dst[x*step] = uint8(v2)
	}
	return -1, nil
}

// tunedDownsample2x renders through the tuned 128x16 tile blocking baked in as
// literal loop bounds (the embedded schedule's fast path).
func tunedDownsample2x(sc *Scratch, img *Image, outW, outH int) ([]byte, error) {
	const tileW, tileH = 128, 16
	out := sc.outBuf(outW * outH * 1)
	var first *rowErr
	for ty := 0; ty < outH; ty += tileH {
		th := outH - ty
		if th > tileH {
			th = tileH
		}
		for tx := 0; tx < outW; tx += tileW {
			tw := outW - tx
			if tw > tileW {
				tw = tileW
			}
			for y := ty; y < ty+th; y++ {
				x, err := rowDownsample2xC0(out[(y*outW+tx)*1:], 1, img, y+0, 0+tx, tw)
				if err != nil {
					e := &rowErr{y: y, x: x + tx, c: 0, err: err}
					if first == nil || e.before(first) {
						first = e
					}
					break
				}
			}
		}
	}
	if first != nil {
		return nil, fmt.Errorf("ir: kernel downsample2x at (%d,%d,%d): %w", first.x, first.y, first.c, first.err)
	}
	return out, nil
}

// hist256 is the lifted reduction
//
//	// hist256: 256 bins x 4 byte(s) over a 40x24 domain
//
//	bins(t) = 0
//
//	bins[in(x, y)] += 1
func init() {
	register(&Kernel{
		Name:          "hist256",
		Channels:      1,
		DefaultWidth:  40,
		DefaultHeight: 24,
		LaneBits:      []int{8},
		Red: &ReductionSpec{
			Bins: 256,
			Row:  redHist256,
		},
	})
}

// redHist256 accumulates one input row into the bin table in 8-bit lanes (1 instructions).
func redHist256(bins []uint32, img *Image, y, n int) (int, error) {
	bins = bins[:256:256]
	pix := img.Pix
	ps := img.PixStep
	pos0 := img.Base + y*img.Stride
	const xbase = 0
	o0 := 0
	if n > 0 && spanIn(pos0+o0, pos0+o0+(n-1)*ps, len(pix)) {
		if ps == 1 {
			s0 := pix[pos0+o0 : pos0+o0+n : pos0+o0+n]
			x := 0
			// bce:begin
			for len(s0) >= 8 {
				{
					v0 := uint8(s0[0])
					bins[v0] += 1
				}
				{
					v0 := uint8(s0[1])
					bins[v0] += 1
				}
				{
					v0 := uint8(s0[2])
					bins[v0] += 1
				}
				{
					v0 := uint8(s0[3])
					bins[v0] += 1
				}
				{
					v0 := uint8(s0[4])
					bins[v0] += 1
				}
				{
					v0 := uint8(s0[5])
					bins[v0] += 1
				}
				{
					v0 := uint8(s0[6])
					bins[v0] += 1
				}
				{
					v0 := uint8(s0[7])
					bins[v0] += 1
				}
				s0 = s0[8:]
				x += 8
			}
			for len(s0) > 0 {
				v0 := uint8(s0[0])
				bins[v0] += 1
				s0 = s0[1:]
				x++
			}
			// bce:end
			return -1, nil
		}
		for x := 0; x < n; x++ {
			p := pos0 + x*ps
			v0 := uint8(pix[p+o0])
			bins[v0] += 1
		}
		return -1, nil
	}
	for x := 0; x < n; x++ {
		p := pos0 + x*ps
		i0 := p + o0
		if uint(i0) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(0), y+(0), 0)
		}
		v0 := uint8(pix[i0])
		bins[v0] += 1
	}
	return -1, nil
}

// histeq is the lifted reduction-fed pipeline: the table computes over
// the input, then 1 stencil stage(s) consume it
//
//	// histeq#0: 32 bins x 4 byte(s) over a 40x24 domain
//
//	bins(t) = 0
//
//	bins[(in(x, y) >> 3) .. 31] += 1
//
//	// histeq#1: 40x24x1
//
//	out(x, y, c) = byte0(((tbl[(in(x, y) >> 3)] * 255) / tbl[31]))
func init() {
	register(&Kernel{
		Name:          "histeq",
		Channels:      1,
		DefaultWidth:  40,
		DefaultHeight: 24,
		Stages: []StageSpec{
			{Channels: 1, OriginX: 0, OriginY: 0, DW: 0, DH: 0, MinDY: 0, MaxDY: 0, MinDX: 0, MaxDX: 0,
				LaneBits: []int{32},
				Rows:     []RowFunc{rowHisteqS0C0},
			},
		},
		Red: &ReductionSpec{
			Bins:   32,
			Suffix: true,
			Row:    redHisteq,
		},
		RedFirst: true,
		Sched:    ScheduleSpec{Fusion: "materialize", WindowRows: 0, Stages: []StageSched{{TileW: 128, TileH: 16}}},
	})
}

// rowHisteqS0C0 renders channel 0 rows in 32-bit lanes (7 instructions, 1 taps).
func rowHisteqS0C0(dst []byte, step int, img *Image, y, xbase, n int) (int, error) {
	pix := img.Pix
	ps := img.PixStep
	pos0 := img.Base + y*img.Stride + xbase*ps + 0*img.ChanStep
	tbl := img.Tbl
	o0 := 0
	if n > 0 && spanIn(pos0+o0, pos0+o0+(n-1)*ps, len(pix)) {
		if ps == 1 && step == 1 {
			s0 := pix[pos0+o0 : pos0+o0+n : pos0+o0+n]
			d := dst[:n:n]
			x := 0
			// bce:begin
			for len(s0) >= 8 && len(d) >= 8 {
				{
					v0 := uint32(s0[0])
					v1 := (v0) >> (3 & 31)
					i2 := int64(v1)
					j2 := i2 * 4
					if j2 < 0 || j2 > int64(len(tbl)) {
						return x, errTable(i2, len(tbl)/4)
					}
					t2 := tbl[j2:]
					if len(t2) < 4 {
						return x, errTable(i2, len(tbl)/4)
					}
					v2 := uint32(t2[0]) | uint32(t2[1])<<8 | uint32(t2[2])<<16 | uint32(t2[3])<<24
					v3 := (v2 * 255)
					i4 := int64(31)
					j4 := i4 * 4
					if j4 < 0 || j4 > int64(len(tbl)) {
						return x, errTable(i4, len(tbl)/4)
					}
					t4 := tbl[j4:]
					if len(t4) < 4 {
						return x, errTable(i4, len(tbl)/4)
					}
					v4 := uint32(t4[0]) | uint32(t4[1])<<8 | uint32(t4[2])<<16 | uint32(t4[3])<<24
					d5 := v4
					if d5 == 0 {
						return x, errDivZero()
					}
					v5 := (v3) / d5
					v6 := v5 >> 0 & 255
					d[0] = uint8(v6)
				}
				{
					v0 := uint32(s0[1])
					v1 := (v0) >> (3 & 31)
					i2 := int64(v1)
					j2 := i2 * 4
					if j2 < 0 || j2 > int64(len(tbl)) {
						return x + 1, errTable(i2, len(tbl)/4)
					}
					t2 := tbl[j2:]
					if len(t2) < 4 {
						return x + 1, errTable(i2, len(tbl)/4)
					}
					v2 := uint32(t2[0]) | uint32(t2[1])<<8 | uint32(t2[2])<<16 | uint32(t2[3])<<24
					v3 := (v2 * 255)
					i4 := int64(31)
					j4 := i4 * 4
					if j4 < 0 || j4 > int64(len(tbl)) {
						return x + 1, errTable(i4, len(tbl)/4)
					}
					t4 := tbl[j4:]
					if len(t4) < 4 {
						return x + 1, errTable(i4, len(tbl)/4)
					}
					v4 := uint32(t4[0]) | uint32(t4[1])<<8 | uint32(t4[2])<<16 | uint32(t4[3])<<24
					d5 := v4
					if d5 == 0 {
						return x + 1, errDivZero()
					}
					v5 := (v3) / d5
					v6 := v5 >> 0 & 255
					d[1] = uint8(v6)
				}
				{
					v0 := uint32(s0[2])
					v1 := (v0) >> (3 & 31)
					i2 := int64(v1)
					j2 := i2 * 4
					if j2 < 0 || j2 > int64(len(tbl)) {
						return x + 2, errTable(i2, len(tbl)/4)
					}
					t2 := tbl[j2:]
					if len(t2) < 4 {
						return x + 2, errTable(i2, len(tbl)/4)
					}
					v2 := uint32(t2[0]) | uint32(t2[1])<<8 | uint32(t2[2])<<16 | uint32(t2[3])<<24
					v3 := (v2 * 255)
					i4 := int64(31)
					j4 := i4 * 4
					if j4 < 0 || j4 > int64(len(tbl)) {
						return x + 2, errTable(i4, len(tbl)/4)
					}
					t4 := tbl[j4:]
					if len(t4) < 4 {
						return x + 2, errTable(i4, len(tbl)/4)
					}
					v4 := uint32(t4[0]) | uint32(t4[1])<<8 | uint32(t4[2])<<16 | uint32(t4[3])<<24
					d5 := v4
					if d5 == 0 {
						return x + 2, errDivZero()
					}
					v5 := (v3) / d5
					v6 := v5 >> 0 & 255
					d[2] = uint8(v6)
				}
				{
					v0 := uint32(s0[3])
					v1 := (v0) >> (3 & 31)
					i2 := int64(v1)
					j2 := i2 * 4
					if j2 < 0 || j2 > int64(len(tbl)) {
						return x + 3, errTable(i2, len(tbl)/4)
					}
					t2 := tbl[j2:]
					if len(t2) < 4 {
						return x + 3, errTable(i2, len(tbl)/4)
					}
					v2 := uint32(t2[0]) | uint32(t2[1])<<8 | uint32(t2[2])<<16 | uint32(t2[3])<<24
					v3 := (v2 * 255)
					i4 := int64(31)
					j4 := i4 * 4
					if j4 < 0 || j4 > int64(len(tbl)) {
						return x + 3, errTable(i4, len(tbl)/4)
					}
					t4 := tbl[j4:]
					if len(t4) < 4 {
						return x + 3, errTable(i4, len(tbl)/4)
					}
					v4 := uint32(t4[0]) | uint32(t4[1])<<8 | uint32(t4[2])<<16 | uint32(t4[3])<<24
					d5 := v4
					if d5 == 0 {
						return x + 3, errDivZero()
					}
					v5 := (v3) / d5
					v6 := v5 >> 0 & 255
					d[3] = uint8(v6)
				}
				{
					v0 := uint32(s0[4])
					v1 := (v0) >> (3 & 31)
					i2 := int64(v1)
					j2 := i2 * 4
					if j2 < 0 || j2 > int64(len(tbl)) {
						return x + 4, errTable(i2, len(tbl)/4)
					}
					t2 := tbl[j2:]
					if len(t2) < 4 {
						return x + 4, errTable(i2, len(tbl)/4)
					}
					v2 := uint32(t2[0]) | uint32(t2[1])<<8 | uint32(t2[2])<<16 | uint32(t2[3])<<24
					v3 := (v2 * 255)
					i4 := int64(31)
					j4 := i4 * 4
					if j4 < 0 || j4 > int64(len(tbl)) {
						return x + 4, errTable(i4, len(tbl)/4)
					}
					t4 := tbl[j4:]
					if len(t4) < 4 {
						return x + 4, errTable(i4, len(tbl)/4)
					}
					v4 := uint32(t4[0]) | uint32(t4[1])<<8 | uint32(t4[2])<<16 | uint32(t4[3])<<24
					d5 := v4
					if d5 == 0 {
						return x + 4, errDivZero()
					}
					v5 := (v3) / d5
					v6 := v5 >> 0 & 255
					d[4] = uint8(v6)
				}
				{
					v0 := uint32(s0[5])
					v1 := (v0) >> (3 & 31)
					i2 := int64(v1)
					j2 := i2 * 4
					if j2 < 0 || j2 > int64(len(tbl)) {
						return x + 5, errTable(i2, len(tbl)/4)
					}
					t2 := tbl[j2:]
					if len(t2) < 4 {
						return x + 5, errTable(i2, len(tbl)/4)
					}
					v2 := uint32(t2[0]) | uint32(t2[1])<<8 | uint32(t2[2])<<16 | uint32(t2[3])<<24
					v3 := (v2 * 255)
					i4 := int64(31)
					j4 := i4 * 4
					if j4 < 0 || j4 > int64(len(tbl)) {
						return x + 5, errTable(i4, len(tbl)/4)
					}
					t4 := tbl[j4:]
					if len(t4) < 4 {
						return x + 5, errTable(i4, len(tbl)/4)
					}
					v4 := uint32(t4[0]) | uint32(t4[1])<<8 | uint32(t4[2])<<16 | uint32(t4[3])<<24
					d5 := v4
					if d5 == 0 {
						return x + 5, errDivZero()
					}
					v5 := (v3) / d5
					v6 := v5 >> 0 & 255
					d[5] = uint8(v6)
				}
				{
					v0 := uint32(s0[6])
					v1 := (v0) >> (3 & 31)
					i2 := int64(v1)
					j2 := i2 * 4
					if j2 < 0 || j2 > int64(len(tbl)) {
						return x + 6, errTable(i2, len(tbl)/4)
					}
					t2 := tbl[j2:]
					if len(t2) < 4 {
						return x + 6, errTable(i2, len(tbl)/4)
					}
					v2 := uint32(t2[0]) | uint32(t2[1])<<8 | uint32(t2[2])<<16 | uint32(t2[3])<<24
					v3 := (v2 * 255)
					i4 := int64(31)
					j4 := i4 * 4
					if j4 < 0 || j4 > int64(len(tbl)) {
						return x + 6, errTable(i4, len(tbl)/4)
					}
					t4 := tbl[j4:]
					if len(t4) < 4 {
						return x + 6, errTable(i4, len(tbl)/4)
					}
					v4 := uint32(t4[0]) | uint32(t4[1])<<8 | uint32(t4[2])<<16 | uint32(t4[3])<<24
					d5 := v4
					if d5 == 0 {
						return x + 6, errDivZero()
					}
					v5 := (v3) / d5
					v6 := v5 >> 0 & 255
					d[6] = uint8(v6)
				}
				{
					v0 := uint32(s0[7])
					v1 := (v0) >> (3 & 31)
					i2 := int64(v1)
					j2 := i2 * 4
					if j2 < 0 || j2 > int64(len(tbl)) {
						return x + 7, errTable(i2, len(tbl)/4)
					}
					t2 := tbl[j2:]
					if len(t2) < 4 {
						return x + 7, errTable(i2, len(tbl)/4)
					}
					v2 := uint32(t2[0]) | uint32(t2[1])<<8 | uint32(t2[2])<<16 | uint32(t2[3])<<24
					v3 := (v2 * 255)
					i4 := int64(31)
					j4 := i4 * 4
					if j4 < 0 || j4 > int64(len(tbl)) {
						return x + 7, errTable(i4, len(tbl)/4)
					}
					t4 := tbl[j4:]
					if len(t4) < 4 {
						return x + 7, errTable(i4, len(tbl)/4)
					}
					v4 := uint32(t4[0]) | uint32(t4[1])<<8 | uint32(t4[2])<<16 | uint32(t4[3])<<24
					d5 := v4
					if d5 == 0 {
						return x + 7, errDivZero()
					}
					v5 := (v3) / d5
					v6 := v5 >> 0 & 255
					d[7] = uint8(v6)
				}
				s0, d = s0[8:], d[8:]
				x += 8
			}
			for len(s0) > 0 && len(d) > 0 {
				v0 := uint32(s0[0])
				v1 := (v0) >> (3 & 31)
				i2 := int64(v1)
				j2 := i2 * 4
				if j2 < 0 || j2 > int64(len(tbl)) {
					return x, errTable(i2, len(tbl)/4)
				}
				t2 := tbl[j2:]
				if len(t2) < 4 {
					return x, errTable(i2, len(tbl)/4)
				}
				v2 := uint32(t2[0]) | uint32(t2[1])<<8 | uint32(t2[2])<<16 | uint32(t2[3])<<24
				v3 := (v2 * 255)
				i4 := int64(31)
				j4 := i4 * 4
				if j4 < 0 || j4 > int64(len(tbl)) {
					return x, errTable(i4, len(tbl)/4)
				}
				t4 := tbl[j4:]
				if len(t4) < 4 {
					return x, errTable(i4, len(tbl)/4)
				}
				v4 := uint32(t4[0]) | uint32(t4[1])<<8 | uint32(t4[2])<<16 | uint32(t4[3])<<24
				d5 := v4
				if d5 == 0 {
					return x, errDivZero()
				}
				v5 := (v3) / d5
				v6 := v5 >> 0 & 255
				d[0] = uint8(v6)
				s0, d = s0[1:], d[1:]
				x++
			}
			// bce:end
			return -1, nil
		}
		for x := 0; x < n; x++ {
			p := pos0 + x*ps
			v0 := uint32(pix[p+o0])
			v1 := (v0) >> (3 & 31)
			i2 := int64(v1)
			j2 := i2 * 4
			if j2 < 0 || j2 > int64(len(tbl)) {
				return x, errTable(i2, len(tbl)/4)
			}
			t2 := tbl[j2:]
			if len(t2) < 4 {
				return x, errTable(i2, len(tbl)/4)
			}
			v2 := uint32(t2[0]) | uint32(t2[1])<<8 | uint32(t2[2])<<16 | uint32(t2[3])<<24
			v3 := (v2 * 255)
			i4 := int64(31)
			j4 := i4 * 4
			if j4 < 0 || j4 > int64(len(tbl)) {
				return x, errTable(i4, len(tbl)/4)
			}
			t4 := tbl[j4:]
			if len(t4) < 4 {
				return x, errTable(i4, len(tbl)/4)
			}
			v4 := uint32(t4[0]) | uint32(t4[1])<<8 | uint32(t4[2])<<16 | uint32(t4[3])<<24
			d5 := v4
			if d5 == 0 {
				return x, errDivZero()
			}
			v5 := (v3) / d5
			v6 := v5 >> 0 & 255
			dst[x*step] = uint8(v6)
		}
		return -1, nil
	}
	for x := 0; x < n; x++ {
		p := pos0 + x*ps
		i0 := p + o0
		if uint(i0) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(0), y+(0), 0)
		}
		v0 := uint32(pix[i0])
		v1 := (v0) >> (3 & 31)
		i2 := int64(v1)
		j2 := i2 * 4
		if j2 < 0 || j2 > int64(len(tbl)) {
			return x, errTable(i2, len(tbl)/4)
		}
		t2 := tbl[j2:]
		if len(t2) < 4 {
			return x, errTable(i2, len(tbl)/4)
		}
		v2 := uint32(t2[0]) | uint32(t2[1])<<8 | uint32(t2[2])<<16 | uint32(t2[3])<<24
		v3 := (v2 * 255)
		i4 := int64(31)
		j4 := i4 * 4
		if j4 < 0 || j4 > int64(len(tbl)) {
			return x, errTable(i4, len(tbl)/4)
		}
		t4 := tbl[j4:]
		if len(t4) < 4 {
			return x, errTable(i4, len(tbl)/4)
		}
		v4 := uint32(t4[0]) | uint32(t4[1])<<8 | uint32(t4[2])<<16 | uint32(t4[3])<<24
		d5 := v4
		if d5 == 0 {
			return x, errDivZero()
		}
		v5 := (v3) / d5
		v6 := v5 >> 0 & 255
		dst[x*step] = uint8(v6)
	}
	return -1, nil
}

// redHisteq accumulates one input row into the bin table in 8-bit lanes (2 instructions).
func redHisteq(bins []uint32, img *Image, y, n int) (int, error) {
	pix := img.Pix
	ps := img.PixStep
	pos0 := img.Base + y*img.Stride
	const xbase = 0
	o0 := 0
	if n > 0 && spanIn(pos0+o0, pos0+o0+(n-1)*ps, len(pix)) {
		for x := 0; x < n; x++ {
			p := pos0 + x*ps
			v0 := uint8(pix[p+o0])
			v1 := (v0) >> (3 & 31)
			bi := int64(v1)
			if bi < 0 || bi >= 32 {
				return x, errRedIndex(bi, 32)
			}
			bins[bi] += 1
		}
		return -1, nil
	}
	for x := 0; x < n; x++ {
		p := pos0 + x*ps
		i0 := p + o0
		if uint(i0) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(0), y+(0), 0)
		}
		v0 := uint8(pix[i0])
		v1 := (v0) >> (3 & 31)
		bi := int64(v1)
		if bi < 0 || bi >= 32 {
			return x, errRedIndex(bi, 32)
		}
		bins[bi] += 1
	}
	return -1, nil
}

// sharpen is the lifted stencil
//
//	// sharpen: 38x22x3
//
//	out(x, y, c) = min(max(round(((sqrt((float(in(x, y)) *. float(in(x, y)))) *. 5) -. (((float(in(x-1, y)) +. float(in(x+1, y))) +. float(in(x, y-1))) +. float(in(x, y+1))))), 0), 255)
func init() {
	register(&Kernel{
		Name:          "sharpen",
		Channels:      3,
		OriginX:       1,
		OriginY:       1,
		DefaultWidth:  38,
		DefaultHeight: 22,
		LaneBits:      []int{64, 64, 64},
		RowAll:        rowSharpenAll,
	})
}

// rowSharpen renders any channel's rows in 64-bit lanes (20 instructions, 5 taps);
// the kernel's channel programs are identical, so one body serves them all.
func rowSharpen(dst []byte, step int, img *Image, y, xbase, n, c int) (int, error) {
	pix := img.Pix
	ps := img.PixStep
	pos0 := img.Base + y*img.Stride + xbase*ps + c*img.ChanStep
	o0 := 0
	o1 := -1 * ps
	o2 := 1 * ps
	o3 := -1 * img.Stride
	o4 := 1 * img.Stride
	if n > 0 && spanIn(pos0+o0, pos0+o0+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o1, pos0+o1+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o2, pos0+o2+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o3, pos0+o3+(n-1)*ps, len(pix)) &&
		spanIn(pos0+o4, pos0+o4+(n-1)*ps, len(pix)) {
		if ps == 1 && step == 1 {
			s0 := pix[pos0+o0 : pos0+o0+n : pos0+o0+n]
			s1 := pix[pos0+o1 : pos0+o1+n : pos0+o1+n]
			s2 := pix[pos0+o2 : pos0+o2+n : pos0+o2+n]
			s3 := pix[pos0+o3 : pos0+o3+n : pos0+o3+n]
			s4 := pix[pos0+o4 : pos0+o4+n : pos0+o4+n]
			d := dst[:n:n]
			x := 0
			// bce:begin
			for len(s0) >= 8 && len(s1) >= 8 && len(s2) >= 8 && len(s3) >= 8 && len(s4) >= 8 && len(d) >= 8 {
				{
					v0 := uint64(s0[0])
					f1 := float64(int64(v0<<32) >> 32)
					f2 := f1 * f1
					f3 := math.Sqrt(f2)
					f4 := f3 * math.Float64frombits(0x4014000000000000)
					v5 := uint64(s1[0])
					f6 := float64(int64(v5<<32) >> 32)
					v7 := uint64(s2[0])
					f8 := float64(int64(v7<<32) >> 32)
					f9 := f6 + f8
					v10 := uint64(s3[0])
					f11 := float64(int64(v10<<32) >> 32)
					f12 := f9 + f11
					v13 := uint64(s4[0])
					f14 := float64(int64(v13<<32) >> 32)
					f15 := f12 + f14
					f16 := f4 - f15
					v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
					v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
					v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
					d[0] = uint8(v19)
				}
				{
					v0 := uint64(s0[1])
					f1 := float64(int64(v0<<32) >> 32)
					f2 := f1 * f1
					f3 := math.Sqrt(f2)
					f4 := f3 * math.Float64frombits(0x4014000000000000)
					v5 := uint64(s1[1])
					f6 := float64(int64(v5<<32) >> 32)
					v7 := uint64(s2[1])
					f8 := float64(int64(v7<<32) >> 32)
					f9 := f6 + f8
					v10 := uint64(s3[1])
					f11 := float64(int64(v10<<32) >> 32)
					f12 := f9 + f11
					v13 := uint64(s4[1])
					f14 := float64(int64(v13<<32) >> 32)
					f15 := f12 + f14
					f16 := f4 - f15
					v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
					v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
					v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
					d[1] = uint8(v19)
				}
				{
					v0 := uint64(s0[2])
					f1 := float64(int64(v0<<32) >> 32)
					f2 := f1 * f1
					f3 := math.Sqrt(f2)
					f4 := f3 * math.Float64frombits(0x4014000000000000)
					v5 := uint64(s1[2])
					f6 := float64(int64(v5<<32) >> 32)
					v7 := uint64(s2[2])
					f8 := float64(int64(v7<<32) >> 32)
					f9 := f6 + f8
					v10 := uint64(s3[2])
					f11 := float64(int64(v10<<32) >> 32)
					f12 := f9 + f11
					v13 := uint64(s4[2])
					f14 := float64(int64(v13<<32) >> 32)
					f15 := f12 + f14
					f16 := f4 - f15
					v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
					v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
					v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
					d[2] = uint8(v19)
				}
				{
					v0 := uint64(s0[3])
					f1 := float64(int64(v0<<32) >> 32)
					f2 := f1 * f1
					f3 := math.Sqrt(f2)
					f4 := f3 * math.Float64frombits(0x4014000000000000)
					v5 := uint64(s1[3])
					f6 := float64(int64(v5<<32) >> 32)
					v7 := uint64(s2[3])
					f8 := float64(int64(v7<<32) >> 32)
					f9 := f6 + f8
					v10 := uint64(s3[3])
					f11 := float64(int64(v10<<32) >> 32)
					f12 := f9 + f11
					v13 := uint64(s4[3])
					f14 := float64(int64(v13<<32) >> 32)
					f15 := f12 + f14
					f16 := f4 - f15
					v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
					v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
					v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
					d[3] = uint8(v19)
				}
				{
					v0 := uint64(s0[4])
					f1 := float64(int64(v0<<32) >> 32)
					f2 := f1 * f1
					f3 := math.Sqrt(f2)
					f4 := f3 * math.Float64frombits(0x4014000000000000)
					v5 := uint64(s1[4])
					f6 := float64(int64(v5<<32) >> 32)
					v7 := uint64(s2[4])
					f8 := float64(int64(v7<<32) >> 32)
					f9 := f6 + f8
					v10 := uint64(s3[4])
					f11 := float64(int64(v10<<32) >> 32)
					f12 := f9 + f11
					v13 := uint64(s4[4])
					f14 := float64(int64(v13<<32) >> 32)
					f15 := f12 + f14
					f16 := f4 - f15
					v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
					v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
					v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
					d[4] = uint8(v19)
				}
				{
					v0 := uint64(s0[5])
					f1 := float64(int64(v0<<32) >> 32)
					f2 := f1 * f1
					f3 := math.Sqrt(f2)
					f4 := f3 * math.Float64frombits(0x4014000000000000)
					v5 := uint64(s1[5])
					f6 := float64(int64(v5<<32) >> 32)
					v7 := uint64(s2[5])
					f8 := float64(int64(v7<<32) >> 32)
					f9 := f6 + f8
					v10 := uint64(s3[5])
					f11 := float64(int64(v10<<32) >> 32)
					f12 := f9 + f11
					v13 := uint64(s4[5])
					f14 := float64(int64(v13<<32) >> 32)
					f15 := f12 + f14
					f16 := f4 - f15
					v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
					v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
					v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
					d[5] = uint8(v19)
				}
				{
					v0 := uint64(s0[6])
					f1 := float64(int64(v0<<32) >> 32)
					f2 := f1 * f1
					f3 := math.Sqrt(f2)
					f4 := f3 * math.Float64frombits(0x4014000000000000)
					v5 := uint64(s1[6])
					f6 := float64(int64(v5<<32) >> 32)
					v7 := uint64(s2[6])
					f8 := float64(int64(v7<<32) >> 32)
					f9 := f6 + f8
					v10 := uint64(s3[6])
					f11 := float64(int64(v10<<32) >> 32)
					f12 := f9 + f11
					v13 := uint64(s4[6])
					f14 := float64(int64(v13<<32) >> 32)
					f15 := f12 + f14
					f16 := f4 - f15
					v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
					v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
					v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
					d[6] = uint8(v19)
				}
				{
					v0 := uint64(s0[7])
					f1 := float64(int64(v0<<32) >> 32)
					f2 := f1 * f1
					f3 := math.Sqrt(f2)
					f4 := f3 * math.Float64frombits(0x4014000000000000)
					v5 := uint64(s1[7])
					f6 := float64(int64(v5<<32) >> 32)
					v7 := uint64(s2[7])
					f8 := float64(int64(v7<<32) >> 32)
					f9 := f6 + f8
					v10 := uint64(s3[7])
					f11 := float64(int64(v10<<32) >> 32)
					f12 := f9 + f11
					v13 := uint64(s4[7])
					f14 := float64(int64(v13<<32) >> 32)
					f15 := f12 + f14
					f16 := f4 - f15
					v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
					v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
					v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
					d[7] = uint8(v19)
				}
				s0, s1, s2, s3, s4, d = s0[8:], s1[8:], s2[8:], s3[8:], s4[8:], d[8:]
				x += 8
			}
			for len(s0) > 0 && len(s1) > 0 && len(s2) > 0 && len(s3) > 0 && len(s4) > 0 && len(d) > 0 {
				v0 := uint64(s0[0])
				f1 := float64(int64(v0<<32) >> 32)
				f2 := f1 * f1
				f3 := math.Sqrt(f2)
				f4 := f3 * math.Float64frombits(0x4014000000000000)
				v5 := uint64(s1[0])
				f6 := float64(int64(v5<<32) >> 32)
				v7 := uint64(s2[0])
				f8 := float64(int64(v7<<32) >> 32)
				f9 := f6 + f8
				v10 := uint64(s3[0])
				f11 := float64(int64(v10<<32) >> 32)
				f12 := f9 + f11
				v13 := uint64(s4[0])
				f14 := float64(int64(v13<<32) >> 32)
				f15 := f12 + f14
				f16 := f4 - f15
				v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
				v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
				v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
				d[0] = uint8(v19)
				s0, s1, s2, s3, s4, d = s0[1:], s1[1:], s2[1:], s3[1:], s4[1:], d[1:]
				x++
			}
			// bce:end
			return -1, nil
		}
		for x := 0; x < n; x++ {
			p := pos0 + x*ps
			v0 := uint64(pix[p+o0])
			f1 := float64(int64(v0<<32) >> 32)
			f2 := f1 * f1
			f3 := math.Sqrt(f2)
			f4 := f3 * math.Float64frombits(0x4014000000000000)
			v5 := uint64(pix[p+o1])
			f6 := float64(int64(v5<<32) >> 32)
			v7 := uint64(pix[p+o2])
			f8 := float64(int64(v7<<32) >> 32)
			f9 := f6 + f8
			v10 := uint64(pix[p+o3])
			f11 := float64(int64(v10<<32) >> 32)
			f12 := f9 + f11
			v13 := uint64(pix[p+o4])
			f14 := float64(int64(v13<<32) >> 32)
			f15 := f12 + f14
			f16 := f4 - f15
			v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
			v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
			v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
			dst[x*step] = uint8(v19)
		}
		return -1, nil
	}
	for x := 0; x < n; x++ {
		p := pos0 + x*ps
		i0 := p + o0
		if uint(i0) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(0), y+(0), c)
		}
		v0 := uint64(pix[i0])
		f1 := float64(int64(v0<<32) >> 32)
		f2 := f1 * f1
		f3 := math.Sqrt(f2)
		f4 := f3 * math.Float64frombits(0x4014000000000000)
		i5 := p + o1
		if uint(i5) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(-1), y+(0), c)
		}
		v5 := uint64(pix[i5])
		f6 := float64(int64(v5<<32) >> 32)
		i7 := p + o2
		if uint(i7) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(1), y+(0), c)
		}
		v7 := uint64(pix[i7])
		f8 := float64(int64(v7<<32) >> 32)
		f9 := f6 + f8
		i10 := p + o3
		if uint(i10) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(0), y+(-1), c)
		}
		v10 := uint64(pix[i10])
		f11 := float64(int64(v10<<32) >> 32)
		f12 := f9 + f11
		i13 := p + o4
		if uint(i13) >= uint(len(pix)) {
			return x, errLoad(xbase+x+(0), y+(1), c)
		}
		v13 := uint64(pix[i13])
		f14 := float64(int64(v13<<32) >> 32)
		f15 := f12 + f14
		f16 := f4 - f15
		v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
		v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
		v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
		dst[x*step] = uint8(v19)
	}
	return -1, nil
}

// rowSharpenFlat renders all 3 interleaved channels of one output row as one flat
// unit-stride scan of n*3 samples (bounds-check-free batch loops); ok is
// false when a tap leaves the backing and the caller must fall back.
func rowSharpenFlat(dst []byte, img *Image, y, xbase, n int) (int, int, error, bool) {
	pix := img.Pix
	ps := img.PixStep
	pos0 := img.Base + y*img.Stride + xbase*ps
	m := n * 3
	if m == 0 {
		return -1, -1, nil, true
	}
	o0 := 0
	o1 := -1 * ps
	o2 := 1 * ps
	o3 := -1 * img.Stride
	o4 := 1 * img.Stride
	if spanIn(pos0+o0, pos0+o0+m-1, len(pix)) &&
		spanIn(pos0+o1, pos0+o1+m-1, len(pix)) &&
		spanIn(pos0+o2, pos0+o2+m-1, len(pix)) &&
		spanIn(pos0+o3, pos0+o3+m-1, len(pix)) &&
		spanIn(pos0+o4, pos0+o4+m-1, len(pix)) {
		s0 := pix[pos0+o0 : pos0+o0+m : pos0+o0+m]
		s1 := pix[pos0+o1 : pos0+o1+m : pos0+o1+m]
		s2 := pix[pos0+o2 : pos0+o2+m : pos0+o2+m]
		s3 := pix[pos0+o3 : pos0+o3+m : pos0+o3+m]
		s4 := pix[pos0+o4 : pos0+o4+m : pos0+o4+m]
		d := dst[:m:m]
		x := 0
		// bce:begin
		for len(s0) >= 8 && len(s1) >= 8 && len(s2) >= 8 && len(s3) >= 8 && len(s4) >= 8 && len(d) >= 8 {
			{
				v0 := uint64(s0[0])
				f1 := float64(int64(v0<<32) >> 32)
				f2 := f1 * f1
				f3 := math.Sqrt(f2)
				f4 := f3 * math.Float64frombits(0x4014000000000000)
				v5 := uint64(s1[0])
				f6 := float64(int64(v5<<32) >> 32)
				v7 := uint64(s2[0])
				f8 := float64(int64(v7<<32) >> 32)
				f9 := f6 + f8
				v10 := uint64(s3[0])
				f11 := float64(int64(v10<<32) >> 32)
				f12 := f9 + f11
				v13 := uint64(s4[0])
				f14 := float64(int64(v13<<32) >> 32)
				f15 := f12 + f14
				f16 := f4 - f15
				v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
				v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
				v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
				d[0] = uint8(v19)
			}
			{
				v0 := uint64(s0[1])
				f1 := float64(int64(v0<<32) >> 32)
				f2 := f1 * f1
				f3 := math.Sqrt(f2)
				f4 := f3 * math.Float64frombits(0x4014000000000000)
				v5 := uint64(s1[1])
				f6 := float64(int64(v5<<32) >> 32)
				v7 := uint64(s2[1])
				f8 := float64(int64(v7<<32) >> 32)
				f9 := f6 + f8
				v10 := uint64(s3[1])
				f11 := float64(int64(v10<<32) >> 32)
				f12 := f9 + f11
				v13 := uint64(s4[1])
				f14 := float64(int64(v13<<32) >> 32)
				f15 := f12 + f14
				f16 := f4 - f15
				v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
				v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
				v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
				d[1] = uint8(v19)
			}
			{
				v0 := uint64(s0[2])
				f1 := float64(int64(v0<<32) >> 32)
				f2 := f1 * f1
				f3 := math.Sqrt(f2)
				f4 := f3 * math.Float64frombits(0x4014000000000000)
				v5 := uint64(s1[2])
				f6 := float64(int64(v5<<32) >> 32)
				v7 := uint64(s2[2])
				f8 := float64(int64(v7<<32) >> 32)
				f9 := f6 + f8
				v10 := uint64(s3[2])
				f11 := float64(int64(v10<<32) >> 32)
				f12 := f9 + f11
				v13 := uint64(s4[2])
				f14 := float64(int64(v13<<32) >> 32)
				f15 := f12 + f14
				f16 := f4 - f15
				v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
				v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
				v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
				d[2] = uint8(v19)
			}
			{
				v0 := uint64(s0[3])
				f1 := float64(int64(v0<<32) >> 32)
				f2 := f1 * f1
				f3 := math.Sqrt(f2)
				f4 := f3 * math.Float64frombits(0x4014000000000000)
				v5 := uint64(s1[3])
				f6 := float64(int64(v5<<32) >> 32)
				v7 := uint64(s2[3])
				f8 := float64(int64(v7<<32) >> 32)
				f9 := f6 + f8
				v10 := uint64(s3[3])
				f11 := float64(int64(v10<<32) >> 32)
				f12 := f9 + f11
				v13 := uint64(s4[3])
				f14 := float64(int64(v13<<32) >> 32)
				f15 := f12 + f14
				f16 := f4 - f15
				v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
				v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
				v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
				d[3] = uint8(v19)
			}
			{
				v0 := uint64(s0[4])
				f1 := float64(int64(v0<<32) >> 32)
				f2 := f1 * f1
				f3 := math.Sqrt(f2)
				f4 := f3 * math.Float64frombits(0x4014000000000000)
				v5 := uint64(s1[4])
				f6 := float64(int64(v5<<32) >> 32)
				v7 := uint64(s2[4])
				f8 := float64(int64(v7<<32) >> 32)
				f9 := f6 + f8
				v10 := uint64(s3[4])
				f11 := float64(int64(v10<<32) >> 32)
				f12 := f9 + f11
				v13 := uint64(s4[4])
				f14 := float64(int64(v13<<32) >> 32)
				f15 := f12 + f14
				f16 := f4 - f15
				v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
				v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
				v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
				d[4] = uint8(v19)
			}
			{
				v0 := uint64(s0[5])
				f1 := float64(int64(v0<<32) >> 32)
				f2 := f1 * f1
				f3 := math.Sqrt(f2)
				f4 := f3 * math.Float64frombits(0x4014000000000000)
				v5 := uint64(s1[5])
				f6 := float64(int64(v5<<32) >> 32)
				v7 := uint64(s2[5])
				f8 := float64(int64(v7<<32) >> 32)
				f9 := f6 + f8
				v10 := uint64(s3[5])
				f11 := float64(int64(v10<<32) >> 32)
				f12 := f9 + f11
				v13 := uint64(s4[5])
				f14 := float64(int64(v13<<32) >> 32)
				f15 := f12 + f14
				f16 := f4 - f15
				v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
				v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
				v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
				d[5] = uint8(v19)
			}
			{
				v0 := uint64(s0[6])
				f1 := float64(int64(v0<<32) >> 32)
				f2 := f1 * f1
				f3 := math.Sqrt(f2)
				f4 := f3 * math.Float64frombits(0x4014000000000000)
				v5 := uint64(s1[6])
				f6 := float64(int64(v5<<32) >> 32)
				v7 := uint64(s2[6])
				f8 := float64(int64(v7<<32) >> 32)
				f9 := f6 + f8
				v10 := uint64(s3[6])
				f11 := float64(int64(v10<<32) >> 32)
				f12 := f9 + f11
				v13 := uint64(s4[6])
				f14 := float64(int64(v13<<32) >> 32)
				f15 := f12 + f14
				f16 := f4 - f15
				v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
				v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
				v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
				d[6] = uint8(v19)
			}
			{
				v0 := uint64(s0[7])
				f1 := float64(int64(v0<<32) >> 32)
				f2 := f1 * f1
				f3 := math.Sqrt(f2)
				f4 := f3 * math.Float64frombits(0x4014000000000000)
				v5 := uint64(s1[7])
				f6 := float64(int64(v5<<32) >> 32)
				v7 := uint64(s2[7])
				f8 := float64(int64(v7<<32) >> 32)
				f9 := f6 + f8
				v10 := uint64(s3[7])
				f11 := float64(int64(v10<<32) >> 32)
				f12 := f9 + f11
				v13 := uint64(s4[7])
				f14 := float64(int64(v13<<32) >> 32)
				f15 := f12 + f14
				f16 := f4 - f15
				v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
				v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
				v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
				d[7] = uint8(v19)
			}
			s0, s1, s2, s3, s4, d = s0[8:], s1[8:], s2[8:], s3[8:], s4[8:], d[8:]
			x += 8
		}
		for len(s0) > 0 && len(s1) > 0 && len(s2) > 0 && len(s3) > 0 && len(s4) > 0 && len(d) > 0 {
			v0 := uint64(s0[0])
			f1 := float64(int64(v0<<32) >> 32)
			f2 := f1 * f1
			f3 := math.Sqrt(f2)
			f4 := f3 * math.Float64frombits(0x4014000000000000)
			v5 := uint64(s1[0])
			f6 := float64(int64(v5<<32) >> 32)
			v7 := uint64(s2[0])
			f8 := float64(int64(v7<<32) >> 32)
			f9 := f6 + f8
			v10 := uint64(s3[0])
			f11 := float64(int64(v10<<32) >> 32)
			f12 := f9 + f11
			v13 := uint64(s4[0])
			f14 := float64(int64(v13<<32) >> 32)
			f15 := f12 + f14
			f16 := f4 - f15
			v17 := uint64(int64(math.RoundToEven(f16))) & 0xffffffff
			v18 := uint64(max(int64(v17<<32)>>32, int64(0))) & 0xffffffff
			v19 := uint64(min(int64(v18<<32)>>32, int64(255))) & 0xffffffff
			d[0] = uint8(v19)
			s0, s1, s2, s3, s4, d = s0[1:], s1[1:], s2[1:], s3[1:], s4[1:], d[1:]
			x++
		}
		// bce:end
		return -1, -1, nil, true
	}
	return 0, 0, nil, false
}

// rowSharpenAll renders all 3 channels of one output row through the shared
// channel body, with the reference x-then-c error selection.
func rowSharpenAll(dst []byte, img *Image, y, xbase, n int) (int, int, error) {
	if img.PixStep == 3 && img.ChanStep == 1 {
		if x, c, err, ok := rowSharpenFlat(dst, img, y, xbase, n); ok {
			return x, c, err
		}
	}
	errX, errC := -1, -1
	var firstErr error
	for c := 0; c < 3; c++ {
		x, err := rowSharpen(dst[c:], 3, img, y, xbase, n, c)
		if err != nil && (errX < 0 || x < errX) {
			errX, errC, firstErr = x, c, err
		}
	}
	return errX, errC, firstErr
}

// upsample2x is the lifted stencil
//
//	// upsample2x: 80x48x1
//
//	// index map: x' = (x)/2, y' = (y)/2
//
//	out(x, y, c) = in(x, y)
func init() {
	register(&Kernel{
		Name:          "upsample2x",
		Channels:      1,
		OriginX:       0,
		OriginY:       0,
		DefaultWidth:  80,
		DefaultHeight: 48,
		LaneBits:      []int{8},
		Rows:          []RowFunc{rowUpsample2xC0},
		Tuned:         tunedUpsample2x,
		Sched:         ScheduleSpec{Fusion: "materialize", WindowRows: 0, Stages: []StageSched{{TileW: 128, TileH: 16}}},
	})
}

// rowUpsample2xC0 renders channel 0 rows in 8-bit lanes (1 instructions, 1 taps).
func rowUpsample2xC0(dst []byte, step int, img *Image, y, xbase, n int) (int, error) {
	y = floorDiv(y, 2)
	pix := img.Pix
	ps := img.PixStep
	pos0 := img.Base + y*img.Stride + 0*img.ChanStep
	o0 := 0
	xlo := floorDiv(xbase, 2)
	xhi := floorDiv((xbase + n - 1), 2)
	if n > 0 && spanIn(pos0+xlo*ps+o0, pos0+xhi*ps+o0, len(pix)) {
		for x := 0; x < n; x++ {
			xi := floorDiv((xbase + x), 2)
			p := pos0 + xi*ps
			v0 := uint8(pix[p+o0])
			dst[x*step] = uint8(v0)
		}
		return -1, nil
	}
	for x := 0; x < n; x++ {
		xi := floorDiv((xbase + x), 2)
		p := pos0 + xi*ps
		i0 := p + o0
		if uint(i0) >= uint(len(pix)) {
			return x, errLoad(xi+(0), y+(0), 0)
		}
		v0 := uint8(pix[i0])
		dst[x*step] = uint8(v0)
	}
	return -1, nil
}

// tunedUpsample2x renders through the tuned 128x16 tile blocking baked in as
// literal loop bounds (the embedded schedule's fast path).
func tunedUpsample2x(sc *Scratch, img *Image, outW, outH int) ([]byte, error) {
	const tileW, tileH = 128, 16
	out := sc.outBuf(outW * outH * 1)
	var first *rowErr
	for ty := 0; ty < outH; ty += tileH {
		th := outH - ty
		if th > tileH {
			th = tileH
		}
		for tx := 0; tx < outW; tx += tileW {
			tw := outW - tx
			if tw > tileW {
				tw = tileW
			}
			for y := ty; y < ty+th; y++ {
				x, err := rowUpsample2xC0(out[(y*outW+tx)*1:], 1, img, y+0, 0+tx, tw)
				if err != nil {
					e := &rowErr{y: y, x: x + tx, c: 0, err: err}
					if first == nil || e.before(first) {
						first = e
					}
					break
				}
			}
		}
	}
	if first != nil {
		return nil, fmt.Errorf("ir: kernel upsample2x at (%d,%d,%d): %w", first.x, first.y, first.c, first.err)
	}
	return out, nil
}

package ir

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fmtKeyHeader is the fmt-based rendering Key and the compiler's CSE keys
// were originally defined by; the strconv renderer must match it byte
// for byte.
func fmtKeyHeader(e *Expr, exactFloats bool) string {
	var b strings.Builder
	switch e.Op {
	case OpLoad:
		fmt.Fprintf(&b, "in(%d,%d,%d)", e.DX, e.DY, e.DC)
		return b.String()
	case OpConst:
		fmt.Fprintf(&b, "%d", e.Val)
		return b.String()
	case OpConstF:
		if exactFloats {
			fmt.Fprintf(&b, "f%016x", math.Float64bits(e.F))
		} else {
			fmt.Fprintf(&b, "%g", e.F)
		}
		return b.String()
	}
	b.WriteString(e.Op.String())
	switch e.Op {
	case OpZExt, OpSExt, OpIntToFP:
		fmt.Fprintf(&b, "%d>%d", e.SrcWidth, e.Width)
	case OpExtract:
		fmt.Fprintf(&b, "@%d w%d", e.Val, e.Width)
	case OpTable:
		fmt.Fprintf(&b, "#%x/%d", tableFingerprint(e.Table), e.Elem)
	case OpTableIn:
		fmt.Fprintf(&b, "/%d", e.Elem)
	case OpCall:
		fmt.Fprintf(&b, ":%s", e.Sym)
	default:
		if e.Width != 0 {
			fmt.Fprintf(&b, "w%d", e.Width)
		}
	}
	return b.String()
}

// TestKeyPinned pins the key of every node kind, in both float spellings
// (the printable %g form of Key and the exact bit pattern the compiler's
// common-subexpression elimination keys on).
func TestKeyPinned(t *testing.T) {
	x := Load(-1, 2, 0)
	lut := make([]byte, 256)
	for i := range lut {
		lut[i] = byte(255 - i)
	}
	cases := []struct {
		e           *Expr
		key, exactH string
	}{
		{Load(-1, 2, -3), "in(-1,2,-3)", "in(-1,2,-3)"},
		{Const(-42), "-42", "-42"},
		{Const(math.MaxInt64), "9223372036854775807", "9223372036854775807"},
		{ConstF(0.1), "0.1", "f3fb999999999999a"},
		{ConstF(5), "5", "f4014000000000000"},
		{ConstF(1e21), "1e+21", "f444b1ae4d6e2ef50"},
		{ConstF(1e-7), "1e-07", "f3e7ad7f29abcaf48"},
		{ConstF(math.Copysign(0, -1)), "-0", "f8000000000000000"},
		{ConstF(math.Inf(1)), "+Inf", "f7ff0000000000000"},
		{ConstF(math.Inf(-1)), "-Inf", "ffff0000000000000"},
		{ConstF(math.NaN()), "NaN", "f7ff8000000000001"},
		{&Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{x}}, "zext1>4(in(-1,2,0))", "zext1>4"},
		{&Expr{Op: OpSExt, Width: 4, SrcWidth: 2, Args: []*Expr{x}}, "sext2>4(in(-1,2,0))", "sext2>4"},
		{&Expr{Op: OpIntToFP, SrcWidth: 4, Args: []*Expr{x}}, "i2f4>0(in(-1,2,0))", "i2f4>0"},
		{&Expr{Op: OpExtract, Val: 2, Width: 1, SrcWidth: 4, Args: []*Expr{x}}, "extract@2 w1(in(-1,2,0))", "extract@2 w1"},
		{&Expr{Op: OpTable, Table: lut, Elem: 1, Args: []*Expr{x}},
			fmt.Sprintf("table#%x/1(in(-1,2,0))", tableFingerprint(lut)), fmt.Sprintf("table#%x/1", tableFingerprint(lut))},
		{&Expr{Op: OpTableIn, Elem: 4, Args: []*Expr{Const(3)}}, "tablein/4(3)", "tablein/4"},
		{&Expr{Op: OpCall, Sym: "sqrt", Args: []*Expr{ConstF(2)}}, "call:sqrt(2)", "call:sqrt"},
		{Bin(OpAdd, 4, x, Const(1)), "+w4(in(-1,2,0),1)", "+w4"},
		{Bin(OpSar, 1, x, Const(7)), ">>aw1(in(-1,2,0),7)", ">>aw1"},
		{Bin(OpCmpLeU, 2, x, Const(9)), "<=uw2(in(-1,2,0),9)", "<=uw2"},
		{&Expr{Op: OpMin, Width: 4, Args: []*Expr{x, Const(0), Const(5)}}, "minw4(in(-1,2,0),0,5)", "minw4"},
		{&Expr{Op: OpSelect, Args: []*Expr{x, Const(1), Const(2)}}, "select(in(-1,2,0),1,2)", "select"},
		{Bin(OpFMul, 0, ConstF(0.5), ConstF(2)), "*.(0.5,2)", "*."},
	}
	for _, tc := range cases {
		if got := tc.e.Key(); got != tc.key {
			t.Errorf("Key() = %q, want %q", got, tc.key)
		}
		got, _ := tc.e.appendKeyHeader(nil, true)
		if string(got) != tc.exactH {
			t.Errorf("exact header of %q = %q, want %q", tc.key, got, tc.exactH)
		}
		for _, exact := range []bool{false, true} {
			got, _ := tc.e.appendKeyHeader(nil, exact)
			if want := fmtKeyHeader(tc.e, exact); string(got) != want {
				t.Errorf("header (exact=%v) = %q, fmt renders %q", exact, got, want)
			}
		}
	}
}

// TestKeyHeaderMatchesFmt cross-checks the strconv renderer against the
// fmt one over random scalar fields, float bit patterns included.
func TestKeyHeaderMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := []Op{OpLoad, OpConst, OpConstF, OpAdd, OpMulHi, OpZExt, OpSExt, OpExtract,
		OpTable, OpTableIn, OpIntToFP, OpFPToInt, OpCall, OpCmpLtS, OpSelect, Op(200)}
	for i := 0; i < 20000; i++ {
		e := &Expr{
			Op: ops[rng.Intn(len(ops))],
			DX: rng.Intn(17) - 8, DY: rng.Intn(17) - 8, DC: rng.Intn(5) - 2,
			Val: rng.Int63() - rng.Int63(), Width: rng.Intn(9), SrcWidth: rng.Intn(9),
			Elem: rng.Intn(5), Sym: []string{"sqrt", "", "floor"}[rng.Intn(3)],
			Table: []byte{byte(rng.Intn(256)), byte(rng.Intn(256))},
		}
		switch rng.Intn(3) {
		case 0:
			e.F = math.Float64frombits(rng.Uint64())
		case 1:
			e.F = float64(rng.Intn(2000)-1000) / float64(1+rng.Intn(64))
		default:
			e.F = math.Ldexp(rng.Float64(), rng.Intn(200)-100)
		}
		for _, exact := range []bool{false, true} {
			got, _ := e.appendKeyHeader(nil, exact)
			if want := fmtKeyHeader(e, exact); string(got) != want {
				t.Fatalf("%+v (exact=%v): header %q, fmt renders %q", e, exact, got, want)
			}
		}
	}
}

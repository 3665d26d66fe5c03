package lift

import (
	"testing"

	"helium/internal/ir"
	"helium/internal/legacy"
)

// TestStageTablesStaySmall bounds every expression table a lift builds
// for the stencil corpus at the benchmark geometry.  Raw extraction builds
// 15k to 317k tree nodes per stage at 64x48; hash-consing must collapse
// those per-sample copies, so a table that grows with the sample count (a
// field left out of the interning identity, a rewrite that builds outside
// the table) shows up here.  Each stage's unification table holds only
// the canonical trees and guards: a few dozen nodes.  An extraction
// worker's table also holds the counter slices of the loop-control
// branches guard collection discards, which grow with the loop trip
// counts (the image width and height) but not with the sample count.
func TestStageTablesStaySmall(t *testing.T) {
	for _, name := range []string{"brighten", "boxblur3", "sharpen", "blur2p", "clampsharp"} {
		t.Run(name, func(t *testing.T) {
			k, ok := legacy.Lookup(name)
			if !ok {
				t.Fatalf("no corpus kernel %q", name)
			}
			inst := k.Instantiate(legacy.Config{Width: 64, Height: 48, Seed: 1})
			var sizes []int
			unified := 0
			testHookTable = func(role string, tb *exprTable) {
				n := tb.Len()
				sizes = append(sizes, n)
				switch role {
				case "unify":
					unified++
					if n >= 256 {
						t.Errorf("stage table ended with %d nodes, want < 256", n)
					}
				case "extract":
					if n >= 512 {
						t.Errorf("extraction worker table ended with %d nodes, want < 512", n)
					}
				default:
					t.Errorf("unexpected %s table in a stencil lift", role)
				}
			}
			defer func() { testHookTable = nil }()
			res, err := Lift(name, Target{
				Prog: inst.Prog, Setup: inst.Setup,
				Known: KnownInput{
					Width: inst.Width, Height: inst.Height, Channels: inst.Channels,
					Interleaved: inst.Interleaved, Interior: inst.InputInterior,
				},
			})
			if err != nil {
				t.Fatalf("Lift: %v", err)
			}
			if unified != len(res.Stages) {
				t.Fatalf("observed %d unification tables for %d stage(s)", unified, len(res.Stages))
			}
			t.Logf("%d samples, table sizes %v", res.Samples, sizes)
		})
	}
}

// TestCanonicalizeDetached checks the one-shot wrapper's contract: the
// result shares no node with the input, and the input is left untouched.
func TestCanonicalizeDetached(t *testing.T) {
	x := &ir.Expr{Op: ir.OpZExt, Width: 4, SrcWidth: 1, Args: []*ir.Expr{ir.Load(0, 0, 0)}}
	in := ir.Bin(ir.OpAdd, 4, ir.Bin(ir.OpAdd, 4, x, ir.Const(0)), x)
	before := in.Key()
	out := Canonicalize(in)
	if got := in.Key(); got != before {
		t.Fatalf("Canonicalize mutated its input: %s, was %s", got, before)
	}
	seen := map[*ir.Expr]bool{}
	var walk func(e *ir.Expr)
	walk = func(e *ir.Expr) {
		seen[e] = true
		for _, a := range e.Args {
			walk(a)
		}
	}
	walk(in)
	var check func(e *ir.Expr)
	check = func(e *ir.Expr) {
		if seen[e] {
			t.Fatalf("Canonicalize returned input node %s", e)
		}
		for _, a := range e.Args {
			check(a)
		}
	}
	check(out)
	if want := "+w4(in(0,0,0),in(0,0,0))"; out.Key() != want {
		t.Errorf("Canonicalize = %s, want %s", out.Key(), want)
	}
}

package lift_test

import (
	"fmt"
	"testing"

	"helium/internal/ir"
	"helium/internal/legacy"
	"helium/internal/lift"
)

// liftedTrees returns every tree a lift hands out, labeled by stage and
// channel: kernel trees per channel and reduction index expressions.
func liftedTrees(res *lift.Result) map[string]*ir.Expr {
	out := map[string]*ir.Expr{}
	for i := range res.Stages {
		st := &res.Stages[i]
		if st.Red != nil {
			out[fmt.Sprintf("stage %d index", i)] = st.Red.Index
			continue
		}
		for c, tree := range st.Kernel.Trees {
			out[fmt.Sprintf("stage %d channel %d", i, c)] = tree
		}
	}
	return out
}

// stageOrigins renders each stencil stage's input origin.
func stageOrigins(res *lift.Result) []string {
	var out []string
	for i := range res.Stages {
		if k := res.Stages[i].Kernel; k != nil {
			out = append(out, fmt.Sprintf("(%d,%d)", k.OriginX, k.OriginY))
		}
	}
	return out
}

// TestLiftedTreesDoNotAlias guards the copy-on-write load rewrites.  The
// lifter interns expression nodes in shared tables, so the load
// rebasings (stencil centering, the affine refit, the reduction's index
// zeroing) must build new nodes instead of mutating shared ones, and the
// trees a lift returns must be detached copies.  Within one process the
// interleaved sharpen (3 channels), the two-stage blur and the
// reduction-fed histeq are lifted repeatedly: a later lift must produce
// the same IR and origins as the first and as the goldens, no node may be
// reachable from two channels' or two stages' trees (of any lift), and
// scribbling over a returned tree's loads must not leak into a later
// lift.
func TestLiftedTreesDoNotAlias(t *testing.T) {
	for _, name := range []string{"sharpen", "blur2p", "histeq"} {
		t.Run(name, func(t *testing.T) {
			k, ok := legacy.Lookup(name)
			if !ok {
				t.Fatalf("no corpus kernel %q", name)
			}
			tgt := target(k.Instantiate(liftConfigs[0]))
			liftOnce := func() *lift.Result {
				t.Helper()
				res, err := lift.Lift(name, tgt)
				if err != nil {
					t.Fatalf("Lift: %v", err)
				}
				if len(res.Stages) != len(goldenIR[name]) {
					t.Fatalf("lifted %d stage(s), golden has %d", len(res.Stages), len(goldenIR[name]))
				}
				for i := range res.Stages {
					if got := stageIR(&res.Stages[i]); got != goldenIR[name][i] {
						t.Fatalf("stage %d lifted IR drifted:\n got:  %s\n want: %s", i, got, goldenIR[name][i])
					}
				}
				return res
			}

			first := liftOnce()
			second := liftOnce()
			for i := range first.Stages {
				if a, b := stageIR(&first.Stages[i]), stageIR(&second.Stages[i]); a != b {
					t.Errorf("stage %d: second lift %s, first %s", i, b, a)
				}
			}
			if a, b := fmt.Sprint(stageOrigins(first)), fmt.Sprint(stageOrigins(second)); a != b {
				t.Errorf("second lift origins %s, first %s", b, a)
			}

			owner := map[*ir.Expr]string{}
			for li, res := range []*lift.Result{first, second} {
				for label, tree := range liftedTrees(res) {
					label = fmt.Sprintf("lift %d %s", li, label)
					seen := map[*ir.Expr]bool{}
					var walk func(e *ir.Expr)
					walk = func(e *ir.Expr) {
						if seen[e] {
							return
						}
						seen[e] = true
						if prev, ok := owner[e]; ok {
							t.Fatalf("node %s is reachable from both %s and %s", e, prev, label)
						}
						owner[e] = label
						for _, a := range e.Args {
							walk(a)
						}
					}
					walk(tree)
				}
			}

			// Scribble over every load the first lift returned.
			for _, tree := range liftedTrees(first) {
				var walk func(e *ir.Expr)
				walk = func(e *ir.Expr) {
					if e.Op == ir.OpLoad {
						e.DX += 7
						e.DY -= 5
						e.DC++
					}
					for _, a := range e.Args {
						walk(a)
					}
				}
				walk(tree)
			}
			third := liftOnce()
			if a, b := fmt.Sprint(stageOrigins(second)), fmt.Sprint(stageOrigins(third)); a != b {
				t.Errorf("lift after mutation has origins %s, want %s", b, a)
			}
			if err := third.Verify(); err != nil {
				t.Errorf("lift after mutation: Verify: %v", err)
			}
		})
	}
}

package ir

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"helium/internal/image"
)

// The sliding-window fusion property tests.  Fusion runs only in the
// generated runtime, so each test generates its pipelines with
// GenerateUnits, compiles them with the real toolchain through the
// differential harness, and holds every fused schedule to the serial
// materializing Eval (the harness's @sched lines) and that Eval to the
// interpreter chain: values, fault positions and fault messages.

// exprBounds walks a tree for its tap offset bounding box.
func exprBounds(e *Expr) (minDX, maxDX, minDY, maxDY int) {
	first := true
	var walk func(*Expr)
	walk = func(e *Expr) {
		if e.Op == OpLoad {
			if first {
				minDX, maxDX, minDY, maxDY = e.DX, e.DX, e.DY, e.DY
				first = false
			} else {
				minDX, maxDX = min(minDX, e.DX), max(maxDX, e.DX)
				minDY, maxDY = min(minDY, e.DY), max(maxDY, e.DY)
			}
		}
		for _, a := range e.Args {
			walk(a)
		}
	}
	walk(e)
	return
}

// chainFromTrees builds a pipeline unit whose final stage renders
// outW x outH: each stage (named unit#i) recenters its taps nonnegative
// through its origin, and every producer's extent is exactly what its
// consumer touches — the same shape the lifter reconstructs.
func chainFromTrees(unit string, trees []*Expr, outW, outH int) GenKernel {
	n := len(trees)
	stages := make([]*Kernel, n)
	w, h := outW, outH
	for i := n - 1; i >= 0; i-- {
		minDX, maxDX, minDY, maxDY := exprBounds(trees[i])
		stages[i] = &Kernel{
			Name:     fmt.Sprintf("%s#%d", unit, i),
			OutWidth: w, OutHeight: h, Channels: 1,
			OriginX: -minDX, OriginY: -minDY,
			Trees: []*Expr{trees[i]},
		}
		// The producer must cover this stage's whole footprint.
		w += maxDX - minDX
		h += maxDY - minDY
	}
	return GenKernel{Name: unit, Stages: stages}
}

// fuseSource is the deterministic padded input plane of the fusion tests;
// generous padding keeps stage-0 taps in range unless a test wants
// faults.
func fuseSource(seed uint64, w, h, pad int) *image.Plane {
	p := image.NewPlane(w, h, pad)
	p.FillPattern(seed)
	return p
}

// zext wraps a byte tap to a 32-bit lane.
func zext(e *Expr) *Expr { return &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{e}} }

// genChainErr renders an interpreter chain error the way the generated
// runtime reports it: the failing stage's "kernel <unit>#<i> at" becomes
// "kernel <unit> stage <i> at"; position and cause stay verbatim.
func genChainErr(unit string, nStages int, err error) string {
	msg := err.Error()
	for i := 0; i < nStages; i++ {
		if p := fmt.Sprintf("ir: kernel %s#%d at ", unit, i); strings.HasPrefix(msg, p) {
			return fmt.Sprintf("ir: kernel %s stage %d at ", unit, i) + msg[len(p):]
		}
	}
	return msg
}

// runFusionHarness generates units, runs them under the given schedules
// through the toolchain harness, and asserts every scheduled re-run
// matched the unit's serial Eval.
func runFusionHarness(t *testing.T, units []GenKernel, planes map[string]*image.Plane, scheds string) map[string][2]string {
	t.Helper()
	src, err := GenerateUnits("liftedkernels", units)
	if err != nil {
		t.Fatalf("GenerateUnits: %v", err)
	}
	dir := t.TempDir()
	genHarnessWith(t, dir, src, planes, scheds)
	results := runHarness(t, dir)
	checkSchedLines(t, results)
	return results
}

// checkAgainstInterp holds one unit's harness Eval line to the
// interpreter chain over the same plane.  It reports whether the chain
// faulted.
func checkAgainstInterp(t *testing.T, u GenKernel, plane *image.Plane, got [2]string) (faulted bool) {
	t.Helper()
	want, werr := evalStagedRef(u.Stages, PlaneSource{P: plane})
	if werr != nil {
		if msg := genChainErr(u.Name, len(u.Stages), werr); got[0] != "ERR" || got[1] != msg {
			t.Errorf("%s: generated %s %q, want ERR %q", u.Name, got[0], got[1], msg)
		}
		return true
	}
	if got[0] != "OK" || got[1] != hex.EncodeToString(want) {
		t.Errorf("%s: generated %s %q, want OK %s", u.Name, got[0], got[1], hex.EncodeToString(want))
	}
	return false
}

// fuseTreeGen builds random single-channel stage trees with bounded tap
// footprints and optional fault-capable ops (division by a data-dependent
// value, table lookups that can range-fault).
type fuseTreeGen struct {
	r      *testRNG
	faults bool
}

func (g *fuseTreeGen) tap() *Expr {
	return zext(Load(g.r.intn(3)-1, g.r.intn(5)-2, 0))
}

func (g *fuseTreeGen) tree(depth int) *Expr {
	if depth <= 0 {
		if g.r.intn(3) == 0 {
			return Const(int64(g.r.intn(9) + 1))
		}
		return g.tap()
	}
	switch g.r.intn(8) {
	case 0:
		return Bin(OpAdd, 4, g.tree(depth-1), g.tree(depth-1))
	case 1:
		return Bin(OpMul, 4, g.tree(depth-1), Const(int64(g.r.intn(5)+1)))
	case 2:
		return Bin(OpSub, 4, g.tree(depth-1), g.tree(depth-1))
	case 3:
		return &Expr{Op: OpMin, Width: 4, Args: []*Expr{g.tree(depth - 1), Const(255)}}
	case 4:
		return &Expr{Op: OpMax, Width: 4, Args: []*Expr{g.tree(depth - 1), Const(0)}}
	case 5:
		return Bin(OpDiv, 4, g.tree(depth-1), Const(int64(g.r.intn(7)+2)))
	case 6:
		if g.faults {
			// Divisor is a wrapping difference of taps: zero whenever two
			// neighborhood samples collide, a data-dependent fault.
			return Bin(OpDiv, 4, g.tree(depth-1), Bin(OpSub, 4, g.tap(), g.tap()))
		}
		return Bin(OpAnd, 4, g.tree(depth-1), Const(255))
	default:
		if g.faults && g.r.intn(2) == 0 {
			// A short table faults on bright samples.
			tab := make([]byte, 180)
			for i := range tab {
				tab[i] = byte(i * 3)
			}
			return &Expr{Op: OpTable, Table: tab, Elem: 1, Args: []*Expr{Load(0, g.r.intn(3)-1, 0)}}
		}
		return g.tap()
	}
}

// TestFusedRandomChains is the fusion property test: random 2-4 stage
// pipelines, evaluated by the generated runtime materializing and fused
// under every window size x worker count, must agree bit-exactly with
// each other and with the interpreter chain — values, error positions
// and error messages.
func TestFusedRandomChains(t *testing.T) {
	needToolchain(t)
	const outW, outH = 13, 11
	var units []GenKernel
	planes := map[string]*image.Plane{}
	for i := 0; i < 120; i++ {
		r := testRNG(uint64(i)*2654435761 + 17)
		g := &fuseTreeGen{r: &r, faults: i%3 != 0}
		nStages := 2 + r.intn(3)
		trees := make([]*Expr, nStages)
		for s := range trees {
			trees[s] = g.tree(2 + r.intn(2))
		}
		u := chainFromTrees(fmt.Sprintf("chain%03d", i), trees, outW, outH)
		units = append(units, u)
		planes[u.Name] = fuseSource(uint64(i), u.Stages[0].OutWidth+4, u.Stages[0].OutHeight+4, 4)
	}
	var scheds strings.Builder
	for _, win := range []int{0, 2, 7} {
		for _, workers := range []int{1, 2, 5} {
			fmt.Fprintf(&scheds, "\n\t{Fusion: \"slidingWindow\", WindowRows: %d, Workers: %d},", win, workers)
		}
	}
	scheds.WriteString("\n")
	results := runFusionHarness(t, units, planes, scheds.String())

	values, faults := 0, 0
	for _, u := range units {
		got, ok := results[u.Name]
		if !ok {
			t.Fatalf("chain %s missing from harness output", u.Name)
		}
		if checkAgainstInterp(t, u, planes[u.Name], got) {
			faults++
		} else {
			values++
		}
	}
	if values < 20 || faults < 20 {
		t.Fatalf("fusion corpus is unbalanced: %d value chains, %d faulting chains", values, faults)
	}
	t.Logf("fused differential: %d chains (%d values, %d faults) bit-exact", values+faults, values, faults)
}

// TestFusedProducerErrorDominates pins the error-ordering semantics the
// drain pass exists for: when a consumer stage faults early but its
// producer faults anywhere at all, the chain must report the producer's
// error — the materializing executor never runs the consumer in that
// case.
func TestFusedProducerErrorDominates(t *testing.T) {
	needToolchain(t)
	const outW, outH = 10, 8
	// Stage 1 (consumer) table-faults at its very first sample; stage 0
	// (producer) divides by in(x,y)-K, faulting only where the input
	// equals K — later in fused production order.
	srcPlane := fuseSource(99, outW+8, outH+8, 4)

	tinyTab := []byte{1, 2, 3, 4}
	consumer := &Expr{Op: OpTable, Table: tinyTab, Elem: 1, Args: []*Expr{Load(0, 1, 0)}}

	// Pick K = the value of a sample in the producer's LAST row so the
	// producer is sure to fault.  The consumer taps only dy=1, so the
	// producer is exactly outH rows tall.
	k := int64(srcPlane.At(3, outH-1))
	producer := Bin(OpDiv, 4, Const(1000), Bin(OpSub, 4, zext(Load(0, 0, 0)), Const(k)))

	dominated := chainFromTrees("dominated", []*Expr{producer, consumer}, outW, outH)
	// Sanity: the consumer really does fault first in production order
	// when the producer is clean.
	clean := chainFromTrees("clean", []*Expr{zext(Load(0, 0, 0)), consumer}, outW, outH)
	units := []GenKernel{dominated, clean}
	results := runFusionHarness(t, units, map[string]*image.Plane{"": srcPlane}, `
	{Fusion: "slidingWindow", Workers: 1},
	{Fusion: "slidingWindow", Workers: 3},
`)
	for _, u := range units {
		if !checkAgainstInterp(t, u, srcPlane, results[u.Name]) {
			t.Fatalf("%s: reference chain did not fault", u.Name)
		}
	}
	if got := results["dominated"][1]; !strings.HasPrefix(got, "ir: kernel dominated stage 0 at ") {
		t.Errorf("dominated chain reports %q, want the producer's (stage 0) fault", got)
	}
	if got := results["clean"][1]; !strings.HasPrefix(got, "ir: kernel clean stage 1 at ") {
		t.Errorf("clean-producer chain reports %q, want the consumer's (stage 1) fault", got)
	}
}

// TestFusedRingStaysSmall pins the whole point of fusion: the ring the
// generated code sizes for an intermediate tracks the consumer's
// footprint, not the intermediate's extent.
func TestFusedRingStaysSmall(t *testing.T) {
	const outW, outH = 16, 64
	u := chainFromTrees("ringsmall", []*Expr{
		Bin(OpAdd, 4, zext(Load(0, -1, 0)), zext(Load(0, 1, 0))), // vertical pass
		Bin(OpAdd, 4, zext(Load(-1, 0, 0)), zext(Load(1, 0, 0))), // horizontal pass
	}, outW, outH)
	src, err := GenerateUnits("liftedkernels", []GenKernel{u})
	if err != nil {
		t.Fatal(err)
	}
	// The horizontal pass reads a single tmp row per output row: its
	// recorded footprint is one row, and the baked strip driver's ring
	// holds exactly that.
	if !strings.Contains(src, "MinDY: 0, MaxDY: 0,") {
		t.Error("consumer stage does not record a one-row footprint")
	}
	if !strings.Contains(src, "const ringRows = 1\n") {
		t.Error("baked sliding-window driver does not size a one-row ring")
	}
	if interH := u.Stages[0].OutHeight; interH <= 1 {
		t.Fatalf("intermediate is %d rows; the test needs a tall one", interH)
	}
}

// TestFusedRejectsUnfusable pins the generated runtime's fusion
// validation on chains built by GenerateUnits: a single-stage kernel, a
// consumer tapping outside its producer's extent, and a multi-channel
// intermediate (which has no planar ring) must each be rejected under
// slidingWindow rather than run, while the same chain with a producer
// covering the footprint fuses.
func TestFusedRejectsUnfusable(t *testing.T) {
	needToolchain(t)
	vertical := func() *Expr { return Bin(OpAdd, 4, zext(Load(0, -1, 0)), zext(Load(0, 1, 0))) }
	single := chainFromTrees("single", []*Expr{zext(Load(0, 0, 0))}, 8, 8)
	ok := chainFromTrees("ok", []*Expr{zext(Load(0, 0, 0)), vertical()}, 8, 8)
	// Shrink the producer below the consumer's footprint.
	bad := chainFromTrees("bad", []*Expr{zext(Load(0, 0, 0)), vertical()}, 8, 8)
	bad.Stages[0].OutHeight = 4
	wide := chainFromTrees("wide", []*Expr{zext(Load(0, 0, 0)), vertical()}, 8, 8)
	wide.Stages[0].Channels = 2
	wide.Stages[0].Trees = []*Expr{zext(Load(0, 0, 0)), zext(Load(0, 0, 0))}
	src, err := GenerateUnits("liftedkernels", []GenKernel{single, ok, bad, wide})
	if err != nil {
		t.Fatalf("GenerateUnits: %v", err)
	}
	dir := t.TempDir()
	plane := fuseSource(1, 16, 16, 4)
	genHarnessWith(t, dir, src, map[string]*image.Plane{"": plane}, "")
	// Replace the harness driver: run every kernel fused, once, and
	// report the runtime's verdict.
	pix, base, stride := plane.Flat()
	main := fmt.Sprintf(`package main

import (
	"fmt"

	lk "gentest/lk"
)

func main() {
	img := &lk.Image{Pix: []byte(%q), Base: %d, Stride: %d, PixStep: 1}
	for _, k := range lk.Kernels() {
		_, err := k.EvalSched(img, k.DefaultWidth, k.DefaultHeight, lk.ScheduleSpec{Fusion: "slidingWindow"})
		if err != nil {
			fmt.Printf("%%s\tERR\t%%s\n", k.Name, err)
		} else {
			fmt.Printf("%%s\tOK\t\n", k.Name)
		}
	}
}
`, pix, base, stride)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(main), 0o644); err != nil {
		t.Fatal(err)
	}
	results := runHarness(t, dir)
	if got := results["ok"]; got[0] != "OK" {
		t.Fatalf("covering chain must fuse: %v", got)
	}
	for _, c := range []struct{ name, want string }{
		{"single", "slidingWindow fusion needs at least 2 stages"},
		{"bad", "outside its 4-row producer"},
		{"wide", "only planar single-channel intermediates stream"},
	} {
		if got := results[c.name]; got[0] != "ERR" || !strings.Contains(got[1], c.want) {
			t.Errorf("%s: fused run reports %v, want an error containing %q", c.name, got, c.want)
		}
	}
}

// TestFusedUnconsumedLowProducerRows pins the first-strip coverage rule:
// when a consumer's footprint starts below its producer's row 0 (positive
// MinDY), the producer rows no consumer ever pulls must still be
// computed — the materializing chain computes every producer row, and a
// fault confined to one of them must not vanish under fusion.
func TestFusedUnconsumedLowProducerRows(t *testing.T) {
	needToolchain(t)
	const outW, outH = 8, 8
	// Producer reads src at dy=-1 with origin 0: its row 0 reads source
	// row -1, which the unpadded plane cannot back, so the producer
	// faults at (0,0) — a row the consumer (origin 1, tap dy=0, so
	// footprint rows [1, 1+outH)) never consumes.
	p := &Kernel{Name: "lowrows#0", OutWidth: outW, OutHeight: outH + 1, Channels: 1,
		Trees: []*Expr{zext(Load(0, -1, 0))}}
	c := &Kernel{Name: "lowrows#1", OutWidth: outW, OutHeight: outH, Channels: 1, OriginY: 1,
		Trees: []*Expr{zext(Load(0, 0, 0))}}
	plane := image.NewPlane(outW, outH+1, 0)
	plane.FillPattern(7)
	results := runFusionHarness(t, []GenKernel{{Name: "lowrows", Stages: []*Kernel{p, c}}},
		map[string]*image.Plane{"": plane}, `
	{Fusion: "slidingWindow", Workers: 1},
	{Fusion: "slidingWindow", Workers: 2},
	{Fusion: "slidingWindow", Workers: 4},
`)
	if got := results["lowrows"]; got[0] != "ERR" || !strings.HasPrefix(got[1], "ir: kernel lowrows stage 0 at (0,0,0): ") {
		t.Fatalf("materializing chain did not fault on the unconsumed producer row: %v", got)
	}
}

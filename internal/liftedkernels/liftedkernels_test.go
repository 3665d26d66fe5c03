// End-to-end test of the checked-in generated package (this file is
// handwritten; `helium gen` only rewrites runtime.go and kernels.go).
package liftedkernels_test

import (
	"bytes"
	"fmt"
	"testing"

	"helium/internal/ir"
	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
)

// genImage mirrors cmd/helium's mapping from evaluator sources onto the
// generated package's flat geometry.
func genImage(src ir.Source) (*liftedkernels.Image, bool) {
	switch s := src.(type) {
	case ir.PlaneSource:
		pix, base, stride := s.P.Flat()
		return &liftedkernels.Image{Pix: pix, Base: base, Stride: stride, PixStep: 1}, true
	case ir.InterleavedSource:
		pix, base, stride, pixStep := s.Im.Flat()
		return &liftedkernels.Image{Pix: pix, Base: base, Stride: stride, PixStep: pixStep, ChanStep: 1}, true
	}
	return nil, false
}

// TestGeneratedKernelsMatchVM lifts the corpus at a geometry and seed
// different from the one the package was generated at, and demands the
// generated code reproduce the legacy binaries' own output byte for byte —
// the generated row loops are size-generic, only their registration
// defaults record the gen-time geometry.
func TestGeneratedKernelsMatchVM(t *testing.T) {
	cfg := legacy.Config{Width: 33, Height: 17, Seed: 9}
	if len(liftedkernels.Kernels()) == 0 {
		t.Fatal("generated registry is empty (run `helium gen`)")
	}
	for _, k := range legacy.Kernels() {
		inst := k.Instantiate(cfg)
		res, err := lift.Lift(k.Name, lift.Target{
			Prog:  inst.Prog,
			Setup: inst.Setup,
			Known: lift.KnownInput{
				Width: inst.Width, Height: inst.Height, Channels: inst.Channels,
				Interleaved: inst.Interleaved, Interior: inst.InputInterior,
			},
		})
		if err != nil {
			t.Fatalf("%s: lift: %v", k.Name, err)
		}
		gk, ok := liftedkernels.Lookup(k.Name)
		if !ok {
			t.Fatalf("%s: not in the generated registry (run `helium gen`)", k.Name)
		}
		img, ok := genImage(res.MaterializeInput())
		if !ok {
			t.Fatalf("%s: input cannot be materialized as a flat image", k.Name)
		}
		w, h := res.EvalDims()
		got, err := gk.Eval(img, w, h)
		if err != nil {
			t.Fatalf("%s: generated eval: %v", k.Name, err)
		}
		want, err := res.VMOutput()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if !bytes.Equal(got, want) {
			bad := 0
			for i := range got {
				if got[i] != want[i] {
					bad++
				}
			}
			t.Errorf("%s: generated output differs from the VM's on %d/%d samples at %s", k.Name, bad, len(want), cfg)
		}
		if gk.DefaultWidth == w && gk.DefaultHeight == h {
			t.Errorf("%s: test geometry %dx%d accidentally equals the gen-time default; pick a different size",
				k.Name, gk.DefaultWidth, gk.DefaultHeight)
		}
	}
}

// TestGeneratedHonorsScheduleSpec pins the generated runtime's schedule
// layer: every kernel re-run under non-default schedules — parallel row
// strips, GOMAXPROCS workers, sliding-window fusion for the multi-stage
// pipeline, and the embedded autotuned schedule — must reproduce the
// serial reference Eval byte for byte.
func TestGeneratedHonorsScheduleSpec(t *testing.T) {
	cfg := legacy.Config{Width: 28, Height: 21, Seed: 4}
	fusedSeen := false
	for _, k := range legacy.Kernels() {
		inst := k.Instantiate(cfg)
		res, err := lift.Lift(k.Name, lift.Target{
			Prog:  inst.Prog,
			Setup: inst.Setup,
			Known: lift.KnownInput{
				Width: inst.Width, Height: inst.Height, Channels: inst.Channels,
				Interleaved: inst.Interleaved, Interior: inst.InputInterior,
			},
		})
		if err != nil {
			t.Fatalf("%s: lift: %v", k.Name, err)
		}
		gk, ok := liftedkernels.Lookup(k.Name)
		if !ok {
			t.Fatalf("%s: not in the generated registry", k.Name)
		}
		img, ok := genImage(res.MaterializeInput())
		if !ok {
			t.Fatalf("%s: input cannot be materialized", k.Name)
		}
		w, h := res.EvalDims()
		want, err := gk.Eval(img, w, h)
		if err != nil {
			t.Fatalf("%s: reference eval: %v", k.Name, err)
		}
		specs := []liftedkernels.ScheduleSpec{
			{Workers: 3},
			{Workers: -1}, // GOMAXPROCS
		}
		if len(gk.Stages) >= 2 {
			fusedSeen = true
			specs = append(specs,
				liftedkernels.ScheduleSpec{Workers: 1, Fusion: "slidingWindow"},
				liftedkernels.ScheduleSpec{Workers: 4, Fusion: "slidingWindow", WindowRows: 5},
			)
		}
		for _, spec := range specs {
			got, err := gk.EvalSched(img, w, h, spec)
			if err != nil {
				t.Errorf("%s: EvalSched(%+v): %v", k.Name, spec, err)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: EvalSched(%+v) differs from Eval", k.Name, spec)
			}
		}
		got, err := gk.EvalTuned(img, w, h)
		if err != nil {
			t.Errorf("%s: EvalTuned: %v", k.Name, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: EvalTuned (schedule %+v) differs from Eval", k.Name, gk.Sched)
		}
	}
	if !fusedSeen {
		t.Error("no multi-stage generated kernel exercised sliding-window fusion")
	}
	if _, err := liftedkernels.Kernels()[0].EvalSched(&liftedkernels.Image{}, 1, 1,
		liftedkernels.ScheduleSpec{Fusion: "bogus"}); err == nil {
		t.Error("EvalSched must reject an unknown fusion strategy")
	}
}

// TestBlur2pFusedBitExactAndSmall is the sliding-window acceptance test
// on a real lifted pipeline: fused execution of the two-pass blur matches
// the materializing baseline and the VM bit for bit, while its only
// intermediate lives in a ring sized by the consumer's recorded
// footprint — a fraction of the plane height.
func TestBlur2pFusedBitExactAndSmall(t *testing.T) {
	k, ok := legacy.Lookup("blur2p")
	if !ok {
		t.Fatal("blur2p missing from the corpus")
	}
	inst := k.Instantiate(legacy.Config{Width: 40, Height: 32, Seed: 2})
	res, err := lift.Lift(k.Name, lift.Target{
		Prog:  inst.Prog,
		Setup: inst.Setup,
		Known: lift.KnownInput{
			Width: inst.Width, Height: inst.Height, Channels: inst.Channels,
			Interleaved: inst.Interleaved, Interior: inst.InputInterior,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gk, ok := liftedkernels.Lookup(k.Name)
	if !ok || len(gk.Stages) != 2 {
		t.Fatal("blur2p is not a two-stage generated pipeline")
	}

	ring := gk.Stages[1].MaxDY - gk.Stages[1].MinDY + 1
	interH := res.Stages[0].Out.Rows
	if ring >= interH {
		t.Fatalf("minimal ring holds %d rows — as much as the %d-row intermediate plane", ring, interH)
	}
	if ring != 3 {
		t.Errorf("blur2p vertical pass has a 3-row footprint; ring = %d rows", ring)
	}

	img, ok := genImage(res.MaterializeInput())
	if !ok {
		t.Fatal("blur2p input cannot be materialized")
	}
	w, h := res.EvalDims()
	want, err := gk.Eval(img, w, h) // materializing baseline
	if err != nil {
		t.Fatal(err)
	}
	vmOut, err := res.VMOutput()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, vmOut) {
		t.Fatal("materializing baseline does not match the VM")
	}
	for _, spec := range []liftedkernels.ScheduleSpec{
		{Fusion: "slidingWindow", Workers: 1},
		{Fusion: "slidingWindow", Workers: 1, WindowRows: 8},
		{Fusion: "slidingWindow", Workers: 4},
		{Fusion: "slidingWindow", Workers: 4, WindowRows: 6},
	} {
		got, err := gk.EvalSched(img, w, h, spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if !bytes.Equal(got, want) {
			bad := 0
			for i := range got {
				if got[i] != want[i] {
					bad++
				}
			}
			t.Errorf("%+v: fused output differs from materializing on %d/%d samples", spec, bad, len(want))
		}
	}
}

// TestFusedRejectsFootprintOverreads pins the runtime's fusion
// validation: a consumer stage whose recorded read footprint escapes its
// producer's extent must error under slidingWindow rather than silently
// read recycled ring rows (a full materialized plane and a ring wrap
// overreads differently, so fusion must be loud here).
func TestFusedRejectsFootprintOverreads(t *testing.T) {
	zeroRow := func(dst []byte, step int, img *liftedkernels.Image, y, xbase, n int) (int, error) {
		for x := 0; x < n; x++ {
			dst[x*step] = 0
		}
		return -1, nil
	}
	mk := func(s1 liftedkernels.StageSpec) *liftedkernels.Kernel {
		s0 := liftedkernels.StageSpec{Channels: 1, Rows: []liftedkernels.RowFunc{zeroRow}}
		s1.Channels = 1
		s1.Rows = []liftedkernels.RowFunc{zeroRow}
		return &liftedkernels.Kernel{Name: "overread", Channels: 1,
			Stages: []liftedkernels.StageSpec{s0, s1}}
	}
	img := &liftedkernels.Image{Pix: make([]byte, 256), Stride: 16, PixStep: 1}
	sliding := liftedkernels.ScheduleSpec{Workers: 1, Fusion: "slidingWindow"}

	if _, err := mk(liftedkernels.StageSpec{MinDY: 0, MaxDY: 0}).EvalSched(img, 8, 8, sliding); err != nil {
		t.Fatalf("in-footprint chain must fuse: %v", err)
	}
	if _, err := mk(liftedkernels.StageSpec{MinDX: -1}).EvalSched(img, 8, 8, sliding); err == nil {
		t.Error("negative column footprint must not fuse")
	}
	if _, err := mk(liftedkernels.StageSpec{MaxDX: 1}).EvalSched(img, 8, 8, sliding); err == nil {
		t.Error("column footprint past the producer width must not fuse")
	}
	if _, err := mk(liftedkernels.StageSpec{MinDY: -1}).EvalSched(img, 8, 8, sliding); err == nil {
		t.Error("negative row footprint must not fuse")
	}
	if _, err := mk(liftedkernels.StageSpec{MaxDY: 1}).EvalSched(img, 8, 8, sliding); err == nil {
		t.Error("row footprint past the producer height must not fuse")
	}
}

// TestFusedCoversUnconsumedProducerRows pins the generated runtime's
// strip coverage: producer rows below the consumers' footprint (positive
// MinDY) and above it are still produced under sliding-window fusion, so
// a fault confined to them is reported exactly as Eval reports it.
func TestFusedCoversUnconsumedProducerRows(t *testing.T) {
	failAt := func(badY int) liftedkernels.RowFunc {
		return func(dst []byte, step int, img *liftedkernels.Image, y, xbase, n int) (int, error) {
			if y == badY {
				return 2, fmt.Errorf("synthetic fault at row %d", y)
			}
			for x := 0; x < n; x++ {
				dst[x*step] = byte(y)
			}
			return -1, nil
		}
	}
	mk := func(badY int) *liftedkernels.Kernel {
		return &liftedkernels.Kernel{Name: "lowrows", Channels: 1, Stages: []liftedkernels.StageSpec{
			// Producer renders two extra rows; its row badY faults.
			{Channels: 1, DH: 2, Rows: []liftedkernels.RowFunc{failAt(badY)}},
			// Consumer reads producer rows [y+1, y+2]: producer row 0 is
			// never consumed, nor is its last row beyond the pull range.
			{Channels: 1, OriginY: 1, MinDY: 1, MaxDY: 2, Rows: []liftedkernels.RowFunc{failAt(-10)}},
		}}
	}
	img := &liftedkernels.Image{Pix: make([]byte, 1024), Stride: 32, PixStep: 1}
	const w, h = 8, 6
	for _, badY := range []int{0, h + 1} { // below and above the consumed range
		k := mk(badY)
		_, werr := k.Eval(img, w, h)
		if werr == nil {
			t.Fatalf("badY=%d: serial reference did not fault", badY)
		}
		for _, workers := range []int{1, 3} {
			_, gerr := k.EvalSched(img, w, h, liftedkernels.ScheduleSpec{
				Workers: workers, Fusion: "slidingWindow"})
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Errorf("badY=%d workers=%d: fused error %q, want %q", badY, workers, gerr, werr)
			}
		}
	}
}

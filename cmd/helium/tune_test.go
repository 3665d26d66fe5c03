package main

import (
	"testing"

	"helium/internal/legacy"
)

// TestSmokeGridRacesEveryStencilKernel pins that `tune -smoke` gives
// every kernel with stencil work at least one candidate besides the
// default at the smoke geometry, and that each candidate reproduces the
// binary's bytes there.
func TestSmokeGridRacesEveryStencilKernel(t *testing.T) {
	for _, k := range legacy.Kernels() {
		tt, err := newTuneTarget(k, legacy.Config{Width: smokeWidth, Height: smokeHeight, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		grid := tt.grid(true)
		if !tt.onlyReductions() && len(grid) < 2 {
			t.Errorf("%s: %d smoke candidate(s) for a %dx%d output, want at least 2", k.Name, len(grid), tt.outW, tt.outH)
		}
		for _, cand := range grid {
			if err := tt.run(cand)(); err != nil {
				t.Errorf("%s: %v", k.Name, err)
			}
		}
	}
}

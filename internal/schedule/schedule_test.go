package schedule

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		s      *Schedule
		stages int
		ok     bool
	}{
		{"nil", nil, 1, true},
		{"default", Default(), 1, true},
		{"materialize", &Schedule{Fusion: Materialize}, 1, true},
		{"sliding", &Schedule{Fusion: SlidingWindow, WindowRows: 3}, 2, true},
		{"sliding single-stage", &Schedule{Fusion: SlidingWindow}, 1, false},
		{"unknown fusion", &Schedule{Fusion: "speculate"}, 2, false},
		{"negative window", &Schedule{WindowRows: -2}, 2, false},
		{"too many stages", &Schedule{Stages: make([]Stage, 3)}, 2, false},
		{"negative tile", &Schedule{Stages: []Stage{{TileW: -4}}}, 1, false},
	}
	for _, c := range cases {
		err := c.s.Validate(c.stages)
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestFusionKindAndStageAt(t *testing.T) {
	var nilSched *Schedule
	if nilSched.FusionKind() != Materialize {
		t.Errorf("nil schedule fusion = %q, want materialize", nilSched.FusionKind())
	}
	if (&Schedule{}).FusionKind() != Materialize {
		t.Error("empty fusion does not normalize to materialize")
	}
	s := &Schedule{Fusion: SlidingWindow, Stages: []Stage{{TileW: 32}}}
	if s.FusionKind() != SlidingWindow {
		t.Error("explicit slidingWindow lost")
	}
	if got := s.StageAt(0); got.TileW != 32 {
		t.Errorf("StageAt(0) = %+v", got)
	}
	if got := s.StageAt(5); got != (Stage{}) {
		t.Errorf("StageAt(5) = %+v, want zero", got)
	}
	if got := nilSched.StageAt(0); got != (Stage{}) {
		t.Errorf("nil StageAt = %+v, want zero", got)
	}
}

func TestSetRoundTrip(t *testing.T) {
	set := &Set{
		Config:     "40x24 seed 1",
		GoMaxProcs: 1,
		Kernels: map[string]*Schedule{
			"blur2p": {Fusion: SlidingWindow, WindowRows: 3},
			"boxblur3": {Stages: []Stage{
				{TileW: 128, TileH: 16}}},
			"hist256": {},
		},
	}
	path := filepath.Join(t.TempDir(), "schedules.json")
	if err := set.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config != set.Config || got.GoMaxProcs != set.GoMaxProcs {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Kernels) != len(set.Kernels) {
		t.Fatalf("kernel count %d, want %d", len(got.Kernels), len(set.Kernels))
	}
	b := got.For("blur2p")
	if b == nil || b.FusionKind() != SlidingWindow || b.WindowRows != 3 {
		t.Fatalf("blur2p schedule did not round-trip: %+v", b)
	}
	if st := got.For("boxblur3").StageAt(0); st.TileW != 128 || st.TileH != 16 {
		t.Fatalf("boxblur3 stage overrides did not round-trip: %+v", st)
	}
	if got.For("nosuch") != nil {
		t.Fatal("For(unknown) must be nil")
	}
	var nilSet *Set
	if nilSet.For("blur2p") != nil {
		t.Fatal("nil set For must be nil")
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	set := &Set{Kernels: map[string]*Schedule{"k": {Fusion: "bogus"}}}
	if err := set.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load must reject an invalid fusion strategy")
	}
	// A key no schedule field carries is rejected rather than silently
	// dropped.
	if err := os.WriteFile(path, []byte(`{"kernels":{"k":{"stages":[{"lane":16}]}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load must reject an unknown schedule field")
	}
	// Schedules carry no worker count; a set that still names one claims
	// a strategy the runtime does not run.
	if err := os.WriteFile(path, []byte(`{"kernels":{"k":{"workers":2}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load must reject a workers field")
	}
}

func TestGrid(t *testing.T) {
	full := Grid(GridOpts{Stages: 2, MinWindow: 3, OutW: 256, OutH: 256})
	var names []string
	for _, s := range full {
		names = append(names, s.String())
	}
	// The default first, every tile, and the distinct windows: 2 runs as
	// the minimal window 3, so only 0 (minimal) and 8 remain.
	want := []string{
		"materialize",
		"materialize s0[tile=64x8] s1[tile=64x8]",
		"materialize s0[tile=128x16] s1[tile=128x16]",
		"materialize s0[tile=256x32] s1[tile=256x32]",
		"slidingWindow",
		"slidingWindow(8)",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("full grid = %q, want %q", names, want)
	}
	seen := map[string]bool{}
	slidingOK := false
	for _, s := range full {
		if err := s.Validate(2); err != nil {
			t.Errorf("grid candidate %s invalid: %v", s, err)
		}
		if seen[s.String()] {
			t.Errorf("duplicate candidate %s", s)
		}
		seen[s.String()] = true
		if s.FusionKind() == SlidingWindow {
			slidingOK = true
			if s.WindowRows != 0 && s.WindowRows < 3 {
				t.Errorf("candidate %s window below the minimum", s)
			}
		}
	}
	if !slidingOK {
		t.Fatal("multi-stage grid has no slidingWindow candidates")
	}

	smoke := Grid(GridOpts{Stages: 2, MinWindow: 3, OutW: 64, OutH: 64, Smoke: true})
	if len(smoke) == 0 || len(smoke) >= len(full) {
		t.Fatalf("smoke grid has %d candidates (full %d)", len(smoke), len(full))
	}

	single := Grid(GridOpts{Stages: 1, OutW: 64, OutH: 64})
	for _, s := range single {
		if s.FusionKind() == SlidingWindow {
			t.Fatalf("single-stage grid offers fusion candidate %s", s)
		}
	}
}

func TestMatchesMachine(t *testing.T) {
	host := HostMachineKey()
	cases := []struct {
		set  *Set
		want bool
	}{
		{nil, true},                        // no set: nothing to contradict
		{&Set{}, true},                     // unstamped set matches anywhere
		{&Set{Machine: host}, true},        // same class
		{&Set{Machine: "64c/512b"}, false}, // tuned elsewhere
	}
	for _, tc := range cases {
		if got := tc.set.MatchesMachine(host); got != tc.want {
			t.Errorf("MatchesMachine(%+v, %s) = %v, want %v", tc.set, host, got, tc.want)
		}
	}
}

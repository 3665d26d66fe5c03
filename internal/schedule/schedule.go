// Package schedule is the execution-strategy half of the algorithm/schedule
// split the source paper's speedups rest on.  A lifted kernel (the
// algorithm) says only *what* each output sample is; a Schedule says *how*
// the generated runtime should compute it: how output tiles are blocked
// and — for multi-stage pipelines — whether intermediate stages
// materialize full planes or stream through a sliding window of
// ring-buffered rows.  A schedule carries no worker count: the runtime
// renders each call serially, and a server parallelizes across requests.
//
// Schedules are plain data: the same generated pipeline runs under any
// valid schedule and produces bit-identical output (values, error
// positions and error messages), so a tuner is free to search the
// schedule space and keep only the fastest candidate.  The tuner
// (`helium tune`) times its candidates on the generated runtime and
// persists its winners in a schedules.json Set, which `helium gen` bakes
// into the generated package as each kernel's default schedule.
package schedule

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// Fusion names an inter-stage execution strategy for multi-stage
// pipelines.
type Fusion string

const (
	// Materialize computes every stage fully into an intermediate plane
	// before the next stage starts — the baseline strategy.
	Materialize Fusion = "materialize"
	// SlidingWindow streams stages: a producer stage computes only the
	// rows its consumer still needs, ring-buffered, so deep pipelines
	// never allocate a full-size intermediate plane.
	SlidingWindow Fusion = "slidingWindow"
)

// Stage is the per-stage half of a schedule.  Zero values mean "use the
// executor's built-in heuristic".
type Stage struct {
	// TileW and TileH block the stage's output into TileW x TileH cache
	// tiles (clamped to the stage output); 0 keeps straight row strips.
	TileW int `json:"tile_w,omitempty"`
	TileH int `json:"tile_h,omitempty"`
}

// Schedule is one kernel's complete execution strategy.
type Schedule struct {
	// Fusion is the inter-stage strategy; empty means Materialize.
	Fusion Fusion `json:"fusion,omitempty"`
	// WindowRows is the ring-buffer height per intermediate plane under
	// SlidingWindow; 0 picks the minimal window (the consumer stage's
	// vertical footprint).  Values below the minimum are clamped up.
	WindowRows int `json:"window_rows,omitempty"`
	// Stages holds per-stage overrides; missing entries mean defaults.
	Stages []Stage `json:"stages,omitempty"`
}

// Default returns the heuristic schedule the runtime uses without a tuned
// one: materialize every stage, row strips.
func Default() *Schedule { return &Schedule{} }

// FusionKind returns the effective fusion strategy (empty normalizes to
// Materialize).
func (s *Schedule) FusionKind() Fusion {
	if s == nil || s.Fusion == "" {
		return Materialize
	}
	return s.Fusion
}

// StageAt returns stage i's overrides, or the zero Stage when the
// schedule does not spell them out.
func (s *Schedule) StageAt(i int) Stage {
	if s == nil || i < 0 || i >= len(s.Stages) {
		return Stage{}
	}
	return s.Stages[i]
}

// Validate checks a schedule against a pipeline of nStages stages.
func (s *Schedule) Validate(nStages int) error {
	if s == nil {
		return nil
	}
	switch s.Fusion {
	case "", Materialize, SlidingWindow:
	default:
		return fmt.Errorf("schedule: unknown fusion strategy %q", s.Fusion)
	}
	if s.FusionKind() == SlidingWindow && nStages < 2 {
		return fmt.Errorf("schedule: slidingWindow fusion needs at least 2 stages, pipeline has %d", nStages)
	}
	if s.WindowRows < 0 {
		return fmt.Errorf("schedule: negative window rows %d", s.WindowRows)
	}
	if len(s.Stages) > nStages {
		return fmt.Errorf("schedule: %d stage entries for a %d-stage pipeline", len(s.Stages), nStages)
	}
	for i, st := range s.Stages {
		if st.TileW < 0 || st.TileH < 0 {
			return fmt.Errorf("schedule: stage %d: negative tile %dx%d", i, st.TileW, st.TileH)
		}
	}
	return nil
}

// String renders the schedule compactly for reports and logs.
func (s *Schedule) String() string {
	if s == nil {
		return "default"
	}
	out := string(s.FusionKind())
	if s.FusionKind() == SlidingWindow && s.WindowRows > 0 {
		out += fmt.Sprintf("(%d)", s.WindowRows)
	}
	for i, st := range s.Stages {
		if st == (Stage{}) {
			continue
		}
		out += fmt.Sprintf(" s%d[tile=%dx%d]", i, st.TileW, st.TileH)
	}
	return out
}

// Set is the committed artifact of a tuning run: one winning schedule per
// kernel, plus the configuration it was measured at.
type Set struct {
	// Config describes the lift geometry the schedules were tuned at.
	Config string `json:"config"`
	// GoMaxProcs records the core count of the tuning machine.
	GoMaxProcs int `json:"gomaxprocs"`
	// Machine is the tuning machine's class key (MachineKey of the tuning
	// run).  Consumers on a different machine class should warn before
	// applying the set: a tile extent tuned elsewhere is a hypothesis
	// there, not a measurement.
	Machine string `json:"machine,omitempty"`
	// Kernels maps kernel name to its winning schedule.
	Kernels map[string]*Schedule `json:"kernels"`
}

// MachineKey names the machine class schedules are tuned against: the
// tuning process's core count and the widest register-row lane the
// executors batch at.  It is deliberately coarse — schedules transfer
// across same-shape machines, and anything finer (cache sizes, exact
// CPU model) would invalidate sets too eagerly.
func MachineKey(cores, laneBits int) string {
	return fmt.Sprintf("%dc/%db", cores, laneBits)
}

// HostMachineKey is MachineKey for the current process: GOMAXPROCS cores
// and the 64-bit general registers the pure-Go row loops batch in.
func HostMachineKey() string { return MachineKey(runtime.GOMAXPROCS(0), 64) }

// MatchesMachine reports whether the set's schedules are measurements on
// the given machine class.  A nil set or one with no machine stamp
// matches anywhere: there is nothing to contradict.
func (s *Set) MatchesMachine(host string) bool {
	return s == nil || s.Machine == "" || s.Machine == host
}

// For returns the schedule tuned for a kernel, or nil when the set has
// none (callers fall back to Default).
func (s *Set) For(kernel string) *Schedule {
	if s == nil {
		return nil
	}
	return s.Kernels[kernel]
}

// Load reads a schedule set from a JSON file.
func Load(path string) (*Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Unknown keys are errors, not silently dropped knobs: a set naming a
	// field this build does not execute would claim a tuning it does not
	// get.
	var set Set
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&set); err != nil {
		return nil, fmt.Errorf("schedule: %s does not parse: %w", path, err)
	}
	for name, sc := range set.Kernels {
		// A set does not know stage counts; validate the parts it can.
		if err := sc.Validate(maxStages); err != nil {
			return nil, fmt.Errorf("schedule: %s: kernel %s: %w", path, name, err)
		}
	}
	return &set, nil
}

// maxStages bounds per-kernel stage entries during set-level validation,
// where the pipeline depth is unknown; per-pipeline Validate calls still
// enforce the real count.
const maxStages = 64

// Save writes the set as stable, human-diffable JSON (map keys sort).
func (s *Set) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// GridOpts configures candidate enumeration for the tuner.
type GridOpts struct {
	// Stages is the pipeline depth; fusion candidates only appear for 2+.
	Stages int
	// MinWindow is the smallest of the chain's per-gap minimal windows
	// (each gap's consumer footprint).  Candidates at or below it are
	// indistinguishable from the minimal-window candidate on every gap
	// and collapse into it; anything above stays distinct, because a
	// window between two gaps' minima still changes the larger gap's
	// ring.
	MinWindow int
	// OutW and OutH bound tile candidates to the output extent.
	OutW, OutH int
	// Smoke shrinks the grid to a handful of candidates for CI.
	Smoke bool
}

// Grid enumerates the tuner's candidate schedules, the heuristic default
// first (so the previous hard-coded strategy is always a candidate and the
// winner can never be slower than it).
func Grid(o GridOpts) []*Schedule {
	tiles := [][2]int{{64, 8}, {128, 16}, {256, 32}}
	windows := []int{0, 2, 8}
	if o.Smoke {
		// One tile small enough for every corpus output at the 48x32
		// smoke geometry (downsample2x's is 24x16), so each stencil
		// kernel races a tiled candidate against the default.
		tiles = [][2]int{{16, 8}}
		windows = windows[:2]
	}

	out := []*Schedule{Default()}
	for _, t := range tiles {
		tw, th := t[0], t[1]
		if tw > o.OutW && o.OutW > 0 || th > o.OutH && o.OutH > 0 {
			continue
		}
		stages := make([]Stage, max(o.Stages, 1))
		for i := range stages {
			stages[i] = Stage{TileW: tw, TileH: th}
		}
		out = append(out, &Schedule{Stages: stages})
	}
	if o.Stages >= 2 {
		for _, win := range windows {
			// A window at or below the minimal footprint runs as the
			// minimal window (0), already a candidate: the tuner verifies
			// and times every candidate, so a semantic duplicate is waste.
			if win == 0 || win > o.MinWindow {
				out = append(out, &Schedule{Fusion: SlidingWindow, WindowRows: win})
			}
		}
	}
	return out
}

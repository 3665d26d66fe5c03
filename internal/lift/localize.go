// Package lift implements the Helium lifting pipeline: code localization by
// coverage diffing, buffer structure reconstruction from memory traces and
// dumps, backward extraction of per-output-pixel expression trees from the
// dynamic instruction trace, and canonicalization that collapses the trees
// of unrolled and peeled loop copies into a single stencil expression
// (paper sections 3-5).
package lift

import (
	"fmt"
	"sort"
	"time"

	"helium/internal/isa"
	"helium/internal/trace"
	"helium/internal/vm"
)

// Target is a legacy program under analysis together with the harness that
// plays host.  Setup must reset the machine, load the input data and
// configure the host state; apply selects whether the host asks for the
// filter (the on-run) or only the baseline work (the off-run).
type Target struct {
	Prog  *isa.Program
	Setup func(m *vm.Machine, apply bool)
	Known KnownInput

	// MaxSteps bounds every emulation run the pipeline performs (coverage
	// screening, profiling, tracing); 0 means the VM default.  Fuzzing
	// harnesses set a tight budget so a hostile binary can slow the
	// pipeline down but never hang it.
	MaxSteps uint64
	// MaxTraceInsts bounds the captured instruction trace (0 = unlimited).
	MaxTraceInsts int
}

// KnownInput describes the deterministic input injected by the harness,
// the "known data" buffer reconstruction searches memory for (paper
// section 4.3).
type KnownInput struct {
	Width, Height, Channels int
	// Interleaved selects between planar rows (Width samples) and
	// interleaved rows (Width*Channels samples).
	Interleaved bool
	// Interior holds the row-major interior samples.
	Interior []byte
}

// RowBytes returns the number of interior bytes per scanline.
func (k KnownInput) RowBytes() int {
	if k.Interleaved {
		return k.Width * k.Channels
	}
	return k.Width
}

// Row returns interior row y.
func (k KnownInput) Row(y int) []byte {
	rb := k.RowBytes()
	return k.Interior[y*rb : (y+1)*rb]
}

// Localization is the outcome of two-phase code localization: the filter
// function entry, the coverage difference that isolated it, and the memory
// trace of the on-run restricted to the difference.
type Localization struct {
	// FilterEntry is the discovered entry address of the filter function.
	FilterEntry uint32
	// Candidates are all dynamic call targets inside the coverage
	// difference, outermost first.
	Candidates []uint32
	// Diff is the set of block leaders covered by the on-run but not the
	// off-run.
	Diff map[uint32]bool
	// OnBlocks and OffBlocks count covered blocks in the two screening
	// runs.
	OnBlocks, OffBlocks int
	// MemTrace is the memory access trace of the difference blocks,
	// collected by the on-run.
	MemTrace []trace.MemAccess
}

// Localize performs two-phase code localization (paper section 3.1) in two
// runs.  The off-run (filter not applied) records plain coverage.  The
// on-run (filter applied) then instruments exactly the blocks the off-run
// never covered: those blocks are the coverage difference, so the one run
// yields the difference together with its memory accesses and dynamic call
// targets.  The filter function is the outermost difference call target: a
// difference target whose call sites all lie inside another difference
// function is an internal helper (for example a tile worker under a tile
// driver).  The on-run also captures the first candidate's trace, which
// Lift uses and Localize discards.
func Localize(t Target) (*Localization, error) {
	loc, _, _, err := localize(t)
	return loc, err
}

// localize is Localize that also returns the filter trace the on-run
// captured (vm.CoverageOptions.Capture) and the on-run's wall time, which
// Lift attributes to tracing.
func localize(t Target) (*Localization, *vm.Capture, time.Duration, error) {
	m := vm.NewMachine(t.Prog)

	t.Setup(m, false)
	off, offErr := m.RunCoverage(vm.CoverageOptions{MaxSteps: t.MaxSteps})
	// An on-run failure is reported ahead of an off-run failure, so the
	// on-run still executes when the off-run failed.
	onOpts := vm.CoverageOptions{MaxSteps: t.MaxSteps}
	if offErr == nil {
		onOpts.ExcludeBlocks = off.Covered()
		onOpts.TraceMemory = true
		onOpts.Capture = true
		onOpts.MaxTraceInsts = t.MaxTraceInsts
	}
	t.Setup(m, true)
	t0 := time.Now()
	on, err := m.RunCoverage(onOpts)
	onDur := time.Since(t0)
	if err != nil {
		return nil, nil, onDur, reject(PhaseLocalize, fmt.Errorf("lift: on-run coverage: %w", err))
	}
	if offErr != nil {
		return nil, nil, onDur, reject(PhaseLocalize, fmt.Errorf("lift: off-run coverage: %w", offErr))
	}

	diff := make(map[uint32]bool)
	for b := range on.Blocks {
		if _, ok := off.Blocks[b]; !ok {
			diff[b] = true
		}
	}
	if len(diff) == 0 {
		return nil, nil, onDur, reject(PhaseLocalize, fmt.Errorf("lift: coverage diff is empty: the filter flag changed nothing"))
	}

	candidates := diffCallTargets(on.CallTargets, diff)
	if len(candidates) == 0 {
		return nil, nil, onDur, reject(PhaseLocalize, fmt.Errorf("lift: no call target found inside the coverage diff"))
	}
	ordered := orderOutermost(candidates, on.CallTargets)

	return &Localization{
		FilterEntry: ordered[0],
		Candidates:  ordered,
		Diff:        diff,
		OnBlocks:    len(on.Blocks),
		OffBlocks:   len(off.Blocks),
		MemTrace:    on.MemTrace,
	}, on.Capture, onDur, nil
}

// diffCallTargets returns the dynamic call targets that are themselves
// difference blocks, i.e. functions only the on-run entered.
func diffCallTargets(callTargets map[uint32]map[uint32]bool, diff map[uint32]bool) []uint32 {
	seen := make(map[uint32]bool)
	var out []uint32
	for _, tgts := range callTargets {
		for tgt := range tgts {
			if diff[tgt] && !seen[tgt] {
				seen[tgt] = true
				out = append(out, tgt)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// orderOutermost sorts candidates so that functions never called from
// inside another candidate's extent come first.  Function extents are
// approximated from the observed call targets: a function spans from its
// entry to the next entered function in address order, which holds for the
// contiguous-function binaries the corpus models.
func orderOutermost(candidates []uint32, callTargets map[uint32]map[uint32]bool) []uint32 {
	starts := append([]uint32(nil), candidates...)
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	extentEnd := func(entry uint32) uint32 {
		for _, s := range starts {
			if s > entry {
				return s
			}
		}
		return ^uint32(0)
	}
	nested := make(map[uint32]bool)
	for site, tgts := range callTargets {
		for tgt := range tgts {
			for _, cand := range candidates {
				if cand != tgt && site >= cand && site < extentEnd(cand) {
					nested[tgt] = true
				}
			}
		}
	}
	out := append([]uint32(nil), candidates...)
	sort.Slice(out, func(i, j int) bool {
		if nested[out[i]] != nested[out[j]] {
			return !nested[out[i]]
		}
		return out[i] < out[j]
	})
	return out
}

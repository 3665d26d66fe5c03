package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"helium/internal/legacy"
	"helium/internal/schedule"
)

// repoRoot locates the repository root relative to this package.
func repoRoot() string { return filepath.Join("..", "..") }

// repoSchedules loads the committed tuned schedule set.
func repoSchedules(t *testing.T) *schedule.Set {
	t.Helper()
	set, err := schedule.Load(filepath.Join(repoRoot(), "schedules.json"))
	if err != nil {
		t.Fatalf("committed schedules.json missing or invalid: %v (run `helium tune`)", err)
	}
	return set
}

// TestSchedulesCoverCorpus asserts the committed autotuner artifact
// parses, names the tuning machine, and holds a valid schedule for every
// corpus kernel.
func TestSchedulesCoverCorpus(t *testing.T) {
	set := repoSchedules(t)
	if set.Config == "" || set.GoMaxProcs < 1 || set.Machine == "" {
		t.Fatalf("schedules.json header incomplete: %+v", set)
	}
	for _, k := range legacy.Kernels() {
		sc := set.For(k.Name)
		if sc == nil {
			t.Errorf("schedules.json is missing corpus kernel %q", k.Name)
			continue
		}
		if err := sc.Validate(8); err != nil {
			t.Errorf("%s: committed schedule invalid: %v", k.Name, err)
		}
	}
	if len(set.Kernels) != len(legacy.Kernels()) {
		t.Errorf("schedules.json holds %d kernels, corpus has %d", len(set.Kernels), len(legacy.Kernels()))
	}
}

// TestBenchBaselineCoversCorpus asserts the committed benchmark baseline
// parses, covers every corpus kernel with every backend, and preserves the
// headline property of the source backend: generated Go beats the
// row-vectorized register executor single-threaded on every kernel.
func TestBenchBaselineCoversCorpus(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(), "BENCH_lift.json"))
	if err != nil {
		t.Fatalf("committed benchmark baseline missing: %v (run `helium -bench -bench-out BENCH_lift.json`)", err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("BENCH_lift.json does not parse: %v", err)
	}
	if report.Config == "" || report.MaxProcs < 1 {
		t.Fatalf("BENCH_lift.json header incomplete: %+v", report)
	}
	byName := map[string]benchEntry{}
	for _, e := range report.Kernels {
		byName[e.Kernel] = e
	}
	// Reductions have no register-program backends; the bench times only
	// the honest three for them.
	reductionBackends := map[string][]string{
		"hist256": {"vm", "interp", "generated"},
	}
	for _, k := range legacy.Kernels() {
		e, ok := byName[k.Name]
		if !ok {
			t.Errorf("baseline is missing corpus kernel %q", k.Name)
			continue
		}
		if e.Samples <= 0 {
			t.Errorf("%s: nonpositive sample count %d", k.Name, e.Samples)
		}
		backends, isRed := reductionBackends[k.Name], false
		if backends == nil {
			backends = benchBackends
		} else {
			isRed = true
		}
		for _, backend := range backends {
			ns, ok := e.NsPerSample[backend]
			if !ok || ns <= 0 {
				t.Errorf("%s: backend %q missing or nonpositive in baseline", k.Name, backend)
			}
		}
		// Every entry records the one-time lift cost split by phase; the
		// load-bearing phases can never be free.
		if len(e.LiftPhases) == 0 {
			t.Errorf("%s: baseline entry has no lift_phases", k.Name)
		}
		for _, phase := range []string{"localize", "trace", "verify", "compile"} {
			if ms, ok := e.LiftPhases[phase]; !ok || ms <= 0 {
				t.Errorf("%s: lift phase %q missing or nonpositive in baseline", k.Name, phase)
			}
		}
		if isRed {
			continue
		}
		if gen, comp := e.NsPerSample["generated"], e.NsPerSample["compiled"]; gen >= comp {
			t.Errorf("%s: generated backend (%.2f ns/sample) does not beat the register executor (%.2f ns/sample)",
				k.Name, gen, comp)
		}
		if len(e.Sweeps) == 0 {
			t.Errorf("%s: baseline entry has no worker sweeps", k.Name)
		}
		for gmpStr, rows := range e.Sweeps {
			gmp, err := strconv.Atoi(gmpStr)
			if err != nil || gmp < 1 {
				t.Errorf("%s: bad sweep gomaxprocs key %q", k.Name, gmpStr)
				continue
			}
			if len(rows) == 0 {
				t.Errorf("%s: sweep under gomaxprocs %d is empty", k.Name, gmp)
				continue
			}
			for wStr, row := range rows {
				if w, err := strconv.Atoi(wStr); err != nil || w < 1 {
					t.Errorf("%s: bad sweep worker key %q", k.Name, wStr)
				}
				if ns, ok := row["generated"]; !ok || ns <= 0 {
					t.Errorf("%s: sweep %s@%s: generated backend missing or nonpositive", k.Name, gmpStr, wStr)
				}
			}
			// Scaling is only assertable when the sweep actually had the
			// cores: a 1-core container's curve is honestly flat, and a
			// sweep oversubscribed past the physical CPUs proves nothing.
			if gmp < 2 || gmp > report.CPUs {
				continue
			}
			base, ok := rows["1"]
			if !ok {
				t.Errorf("%s: multi-core sweep under gomaxprocs %d lacks the 1-worker row", k.Name, gmp)
				continue
			}
			scaled := false
			for wStr, row := range rows {
				if w, _ := strconv.Atoi(wStr); w >= 2 && row["generated"] > 0 && row["generated"] < base["generated"] {
					scaled = true
				}
			}
			if !scaled {
				t.Errorf("%s: generated backend shows no >1x scaling at 2+ workers under gomaxprocs %d", k.Name, gmp)
			}
		}
	}
	if len(byName) != len(legacy.Kernels()) {
		t.Errorf("baseline holds %d kernels, corpus has %d", len(byName), len(legacy.Kernels()))
	}
}

// TestGeneratedPackageUpToDate regenerates the liftedkernels sources
// in-memory and diffs them against the checked-in files, so any drift
// between the lifting pipeline and the committed generated code fails
// tier-1 — not just the CI gen-check job.
func TestGeneratedPackageUpToDate(t *testing.T) {
	files, err := GenerateCorpusPackage(legacy.Config{Width: 40, Height: 24, Seed: 1}, repoSchedules(t))
	if err != nil {
		t.Fatalf("GenerateCorpusPackage: %v", err)
	}
	for name, want := range files {
		path := filepath.Join(repoRoot(), "internal", "liftedkernels", name)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run `helium gen` and commit the result)", path, err)
		}
		if string(got) != want {
			t.Errorf("%s is stale: run `helium gen` and commit the result", path)
		}
	}
}

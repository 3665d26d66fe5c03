package main

import (
	"os"
	"path/filepath"
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

// TestGeneratedPackageUpToDate regenerates kernels.go in-memory and diffs
// it against the checked-in file, so any drift between the lifting
// pipeline and the committed generated code fails tier-1 — not just the
// CI gen-check job.
func TestGeneratedPackageUpToDate(t *testing.T) {
	want, err := GenerateCorpusPackage(legacy.Config{Width: 40, Height: 24, Seed: 1}, repoSchedules(t))
	if err != nil {
		t.Fatalf("GenerateCorpusPackage: %v", err)
	}
	path := filepath.Join(repoRoot(), "internal", "liftedkernels", "kernels.go")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run `helium gen` and commit the result)", path, err)
	}
	if string(got) != want {
		t.Errorf("%s is stale: run `helium gen` and commit the result", path)
	}
}

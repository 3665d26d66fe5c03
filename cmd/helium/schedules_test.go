package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"helium/internal/schedule"
)

// captureStderr mirrors captureStdout for the warn-and-apply path, whose
// warning goes to stderr so `helium gen` pipelines stay clean.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	old := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = old }()
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	fn()
	w.Close()
	return <-done
}

// TestLoadSchedulesFileStates is the table over every schedules.json
// state a checkout can hand `helium gen` — missing, empty, malformed,
// invalid, unstamped, same-machine, other-machine.  Corrupt sets are
// fatal; a set tuned on another machine class is applied with a warning
// on stderr, so the generated package stays byte-stable across build
// hosts.
func TestLoadSchedulesFileStates(t *testing.T) {
	// The host key is dynamic; render the fixture against the real one.
	hostSet := `{"machine":"` + schedule.HostMachineKey() + `","kernels":{"brighten":{"workers":1}}}`

	cases := []struct {
		name    string
		content string // file body; "" with missing=true means no file
		missing bool

		wantErr   bool // parse/validation failure
		wantSet   bool // the set is kept
		stderrHas string
	}{
		{
			name:    "missing file",
			missing: true,
		},
		{
			name:    "empty file",
			content: "",
			wantErr: true,
		},
		{
			name:    "malformed json",
			content: `{"kernels": {`,
			wantErr: true,
		},
		{
			name:    "invalid schedule",
			content: `{"kernels":{"brighten":{"workers":-3}}}`,
			wantErr: true,
		},
		{
			// Per-stage lane widths are not a schedule knob: a set naming
			// one is rejected, not silently half-applied.
			name:    "invalid lane width",
			content: `{"kernels":{"brighten":{"stages":[{"lane":13}]}}}`,
			wantErr: true,
		},
		{
			name:    "unstamped set matches anywhere",
			content: `{"kernels":{"brighten":{"workers":1}}}`,
			wantSet: true,
		},
		{
			name:    "same machine class",
			content: hostSet,
			wantSet: true,
		},
		{
			name:      "other machine class",
			content:   `{"machine":"64c/512b","kernels":{"brighten":{"workers":32}}}`,
			wantSet:   true,
			stderrHas: "machine class 64c/512b",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "schedules.json")
			if !tc.missing {
				if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var (
				set *schedule.Set
				err error
			)
			stderr := captureStderr(t, func() { set, err = loadSchedules(path) })
			if tc.wantErr {
				// Silently generating against defaults while claiming the
				// tuned set would be worse than stopping.
				if err == nil {
					t.Error("corrupt set accepted")
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if (set != nil) != tc.wantSet {
				t.Errorf("kept set: %v, want %v", set != nil, tc.wantSet)
			}
			if tc.stderrHas != "" && (!strings.Contains(stderr, "warning") || !strings.Contains(stderr, tc.stderrHas)) {
				t.Errorf("warning missing %q:\nstderr: %q", tc.stderrHas, stderr)
			}
			if tc.stderrHas == "" && stderr != "" {
				t.Errorf("warned about a clean set:\nstderr: %q", stderr)
			}
		})
	}
}

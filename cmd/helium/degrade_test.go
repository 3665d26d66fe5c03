package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"helium/internal/faultpoint"
	"helium/internal/legacy"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// everything it printed.  The degradation chain reports its fallbacks on
// stdout — they are part of the answer, not diagnostics — so the tests
// read them from there.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	fn()
	w.Close()
	out := <-done
	os.Stdout = old
	return out
}

func corpusKernel(t *testing.T, name string) legacy.Kernel {
	t.Helper()
	k, ok := legacy.Lookup(name)
	if !ok {
		t.Fatalf("corpus kernel %q missing", name)
	}
	return k
}

// TestBackendChain pins the degradation order: every chain steps through
// strictly simpler evaluators and ends at direct VM emulation.
func TestBackendChain(t *testing.T) {
	cases := map[string][]string{
		"generated": {"generated", "compiled", "interp", "vm"},
		"compiled":  {"compiled", "interp", "vm"},
		"interp":    {"interp", "vm"},
	}
	for backend, want := range cases {
		got := backendChain(backend)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("backendChain(%q) = %v, want %v", backend, got, want)
		}
	}
}

// TestDegradationChain injects a generated-backend verification failure
// and demands the run still succeed — bit-exact through the compiled
// backend — with the fallback reason surfaced in the output.
func TestDegradationChain(t *testing.T) {
	faultpoint.Enable("gen.verify-fail")
	defer faultpoint.Reset()
	k := corpusKernel(t, "brighten")
	cfg := legacy.Config{Width: 40, Height: 24, Seed: 1}
	var err error
	out := captureStdout(t, func() {
		err = run(k, cfg, "generated", false, false)
	})
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !strings.Contains(out, "fallback: generated backend failed") {
		t.Errorf("output does not record the fallback reason:\n%s", out)
	}
	if !strings.Contains(out, "degrading to compiled") {
		t.Errorf("output does not name the next backend:\n%s", out)
	}
	if !strings.Contains(out, "pixel-exact (compiled backend") {
		t.Errorf("output does not show the compiled backend verifying:\n%s", out)
	}
}

// TestStrictDisablesDegradation asserts -strict turns the same injected
// fault into a hard error instead of a fallback.
func TestStrictDisablesDegradation(t *testing.T) {
	faultpoint.Enable("gen.verify-fail")
	defer faultpoint.Reset()
	k := corpusKernel(t, "brighten")
	cfg := legacy.Config{Width: 40, Height: 24, Seed: 1}
	var err error
	out := captureStdout(t, func() {
		err = run(k, cfg, "generated", false, true)
	})
	if err == nil {
		t.Fatal("strict run with an injected backend fault succeeded")
	}
	if !strings.Contains(err.Error(), "generated backend") || !strings.Contains(err.Error(), "-strict") {
		t.Errorf("strict error does not name the backend and mode: %v", err)
	}
	if strings.Contains(out, "fallback:") {
		t.Errorf("strict run still degraded:\n%s", out)
	}
}

// TestVMTerminalBackend proves the chain's last resort works on its own:
// direct emulation against the pure-Go reference, no lifted result.
func TestVMTerminalBackend(t *testing.T) {
	k := corpusKernel(t, "brighten")
	inst := k.Instantiate(legacy.Config{Width: 40, Height: 24, Seed: 1})
	out := captureStdout(t, func() {
		if err := runBackend("vm", k, inst, nil, false); err != nil {
			t.Errorf("vm terminal backend: %v", err)
		}
	})
	if !strings.Contains(out, "(vm backend, direct emulation)") {
		t.Errorf("vm backend did not report itself:\n%s", out)
	}
}

package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"helium/internal/serve"
)

// TestParseFlags pins the flag-to-serve.Options mapping, both at the
// defaults and with every flag set.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want config
	}{
		{
			name: "defaults",
			want: config{
				opts: serve.Options{
					QueueDepth:       64,
					Timeout:          10 * time.Second,
					DrainTimeout:     10 * time.Second,
					SlowBackendDelay: 25 * time.Millisecond,
					MaxWidth:         2048,
					MaxHeight:        2048,
				},
				addr: ":8080", warm: true, logLevel: "info",
				kernel: "boxblur3", width: 40, height: 24, seed: 1,
			},
		},
		{
			name: "every flag",
			args: []string{
				"-addr", "127.0.0.1:9000", "-workers", "3", "-queue", "5",
				"-per-kernel", "2", "-timeout", "4s", "-drain", "6s",
				"-warm=false", "-fault-slow", "800ms", "-max-width", "640",
				"-max-height", "480", "-log-level", "debug", "-pprof",
				"-ref", "-kernel", "sharpen", "-width", "52", "-height", "30",
				"-seed", "7",
			},
			want: config{
				opts: serve.Options{
					Workers:          3,
					QueueDepth:       5,
					PerKernel:        2,
					Timeout:          4 * time.Second,
					DrainTimeout:     6 * time.Second,
					SlowBackendDelay: 800 * time.Millisecond,
					MaxWidth:         640,
					MaxHeight:        480,
					EnablePprof:      true,
				},
				addr: "127.0.0.1:9000", warm: false, logLevel: "debug",
				ref: true, kernel: "sharpen", width: 52, height: 30, seed: 7,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseFlags(tc.args, io.Discard)
			if err != nil {
				t.Fatalf("parseFlags: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("parseFlags(%q)\n got %+v\nwant %+v", tc.args, got, tc.want)
			}
		})
	}
}

// TestParseFlagsRejectsUnknown: an unknown flag such as -eval-workers is
// a usage error, not silently ignored.
func TestParseFlagsRejectsUnknown(t *testing.T) {
	var stderr bytes.Buffer
	_, err := parseFlags([]string{"-eval-workers", "2"}, &stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parseFlags(-eval-workers 2) = %v, want a usage error", err)
	}
	if !strings.Contains(stderr.String(), "-eval-workers") {
		t.Errorf("usage output does not name the bad flag:\n%s", stderr.String())
	}
}

// TestRefWritesReference: -ref writes exactly the server's re-emulated
// ground truth for the requested kernel, geometry and seed.
func TestRefWritesReference(t *testing.T) {
	for _, k := range []string{"boxblur3", "downsample2x"} {
		c, err := parseFlags([]string{"-ref", "-kernel", k, "-width", "52", "-height", "30", "-seed", "7"}, io.Discard)
		if err != nil {
			t.Fatalf("parseFlags: %v", err)
		}
		var out bytes.Buffer
		if err := writeRef(&out, c); err != nil {
			t.Fatalf("%s: writeRef: %v", k, err)
		}
		want, err := serve.New(serve.Options{}).Reference(k, 52, 30, 7)
		if err != nil {
			t.Fatalf("%s: Reference: %v", k, err)
		}
		if len(want) == 0 || !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: -ref wrote %d bytes, want the %d reference bytes", k, out.Len(), len(want))
		}
	}
}

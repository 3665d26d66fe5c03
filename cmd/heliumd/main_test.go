package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"helium/internal/obs"
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
					QueueDepth:       serve.DefaultQueueDepth,
					Timeout:          serve.DefaultTimeout,
					SlowBackendDelay: serve.DefaultSlowBackendDelay,
					MaxWidth:         serve.DefaultMaxWidth,
					MaxHeight:        serve.DefaultMaxHeight,
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

// syncBuf is a goroutine-safe log sink.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunDrainsOnSignal runs the daemon in process, delivers SIGTERM on
// its signal channel once it serves, and checks that it drains and that
// the logged drain budget is the one Shutdown gets: serve's 10s default
// when -drain is unset or 0, the flag's value otherwise.
func TestRunDrainsOnSignal(t *testing.T) {
	addrRE := regexp.MustCompile(`addr=(\S+)`)
	for _, tc := range []struct {
		args   []string
		budget string
	}{
		{nil, "budget=10000.000ms"},
		{[]string{"-drain", "0"}, "budget=10000.000ms"},
		{[]string{"-drain", "1500ms"}, "budget=1500.000ms"},
	} {
		c, err := parseFlags(append([]string{"-addr", "127.0.0.1:0", "-warm=false"}, tc.args...), io.Discard)
		if err != nil {
			t.Fatalf("parseFlags: %v", err)
		}
		var logs syncBuf
		log := obs.NewLogger(&logs, obs.LevelInfo)
		c.opts.Logger = log
		sig := make(chan os.Signal, 1)
		done := make(chan error, 1)
		go func() { done <- run(c.opts, c.addr, c.warm, log, sig) }()

		deadline := time.Now().Add(10 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("%q: heliumd never served /healthz; logs:\n%s", tc.args, logs.String())
			}
			if m := addrRE.FindStringSubmatch(logs.String()); m != nil {
				if resp, err := http.Get("http://" + m[1] + "/healthz"); err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		sig <- syscall.SIGTERM
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%q: run: %v", tc.args, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%q: run did not return after SIGTERM", tc.args)
		}
		out := logs.String()
		if !strings.Contains(out, "signal=terminated") {
			t.Errorf("%q: no signal line in logs:\n%s", tc.args, out)
		}
		if !strings.Contains(out, "msg=draining "+tc.budget) {
			t.Errorf("%q: drain line does not log %s:\n%s", tc.args, tc.budget, out)
		}
	}
}

// Command heliumd serves the lifted kernel corpus over HTTP —
// lifting-as-a-service.  A request names a corpus kernel and a geometry;
// the server lifts the legacy binary once (caching the outcome, good or
// poisoned, forever), executes the tuned regenerated kernel, and answers
// with the output bytes.  Robustness is the contract: under injected
// faults, overload and hostile requests every response is bit-exact
// pixels or a typed error — never a wrong answer, a hung connection, or
// a dead process.
//
// Usage:
//
//	heliumd [-addr :8080] [-workers N] [-queue N] [-per-kernel N]
//	        [-timeout 10s] [-drain 10s] [-warm] [-fault-slow 25ms]
//	        [-log-level info] [-pprof]
//	heliumd -ref -kernel name [-width N] [-height N] [-seed N]
//
// Endpoints:
//
//	POST /v1/eval?kernel=name&width=W&height=H[&seed=S]
//	     body = raw input interior bytes; empty body or GET = the
//	     deterministic seed pattern (helium run's workload)
//	GET  /healthz   liveness (200 while the process serves)
//	GET  /readyz    readiness (503 while warming or draining)
//	GET  /v1/kernels  registry state, breaker states, per-backend counters
//	GET  /v1/stats    global counters
//	GET  /metrics     Prometheus text exposition of every instrument
//	GET  /debug/pprof/  net/http/pprof (only with -pprof)
//
// Operational logs are structured key=value lines on stderr (-log-level
// selects the threshold); every eval response carries an X-Helium-Trace
// id naming its access-log line.  stdout stays reserved for payload
// bytes (-ref) and the scripted lifecycle lines CI greps.
//
// -ref prints the ground-truth response bytes for a pattern-mode request
// computed by re-emulating the legacy binary directly — independent of
// every lifted path — so CI can diff served bytes against the binary's
// own output.  Load is measured by the perfbench module's serve-small and
// serve-large workloads, which drive an in-process server with their own
// client.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"helium/internal/obs"
	"helium/internal/serve"
)

func main() {
	c, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	log := obs.NewLogger(os.Stderr, obs.ParseLevel(c.logLevel))
	c.opts.Logger = log

	if c.ref {
		if err := writeRef(os.Stdout, c); err != nil {
			fmt.Fprintf(os.Stderr, "heliumd: ref: %v\n", err)
			os.Exit(1)
		}
		return
	}
	// Catch signals before the (multi-second) warm-up: a SIGTERM that
	// lands mid-warm must still drain gracefully, not kill the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(c.opts, c.addr, c.warm, log, sig); err != nil {
		fmt.Fprintf(os.Stderr, "heliumd: %v\n", err)
		os.Exit(1)
	}
}

// config is heliumd's parsed command line: the server options plus the
// listener, log and -ref settings that serve.Options does not hold.
type config struct {
	opts     serve.Options
	addr     string
	warm     bool
	logLevel string

	ref           bool
	kernel        string
	width, height int
	seed          uint64
}

// parseFlags parses the command line (args excludes the program name).
// Usage and parse errors go to stderr; -h returns flag.ErrHelp.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("heliumd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.opts.Workers, "workers", 0, "execution pool size (0 = GOMAXPROCS)")
	fs.IntVar(&c.opts.QueueDepth, "queue", serve.DefaultQueueDepth, "admission queue depth (full queue sheds with 503)")
	fs.IntVar(&c.opts.PerKernel, "per-kernel", 0, "per-kernel concurrency limit (0 = pool size)")
	fs.DurationVar(&c.opts.Timeout, "timeout", serve.DefaultTimeout, "per-request execution deadline")
	fs.DurationVar(&c.opts.DrainTimeout, "drain", 0, fmt.Sprintf("graceful shutdown drain budget (0 = %v)", serve.DefaultDrainTimeout))
	fs.BoolVar(&c.warm, "warm", true, "lift the whole corpus before reporting ready")
	fs.DurationVar(&c.opts.SlowBackendDelay, "fault-slow", serve.DefaultSlowBackendDelay, "injected delay of the serve.slow-backend faultpoint")
	fs.IntVar(&c.opts.MaxWidth, "max-width", serve.DefaultMaxWidth, "largest accepted request width")
	fs.IntVar(&c.opts.MaxHeight, "max-height", serve.DefaultMaxHeight, "largest accepted request height")
	fs.StringVar(&c.logLevel, "log-level", "info", "stderr log threshold: debug, info, warn, error, off")
	fs.BoolVar(&c.opts.EnablePprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")

	fs.BoolVar(&c.ref, "ref", false, "print the vm ground-truth response for one request and exit")
	fs.StringVar(&c.kernel, "kernel", "boxblur3", "kernel for -ref")
	fs.IntVar(&c.width, "width", 40, "request width for -ref")
	fs.IntVar(&c.height, "height", 24, "request height for -ref")
	fs.Uint64Var(&c.seed, "seed", 1, "request seed for -ref")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	return c, nil
}

// writeRef writes the -ref request's ground-truth response bytes to w.
func writeRef(w io.Writer, c config) error {
	out, err := serve.New(c.opts).Reference(c.kernel, c.width, c.height, c.seed)
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// run serves until a signal arrives on sig, then drains gracefully.  The
// final "heliumd: drained, bye" stays a bare stdout line — the scripted
// lifecycle marker CI greps for.
func run(opts serve.Options, addr string, warm bool, log *obs.Logger, sig <-chan os.Signal) error {
	s := serve.New(opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Info("listening", "addr", ln.Addr().String(), "pprof", opts.EnablePprof)

	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	if warm {
		// Warm in the background so signals stay responsive; /readyz
		// turns 200 only once the whole corpus's lift outcome is cached.
		// (Warm itself logs the "corpus warmed" line with the duration.)
		go s.Warm()
	} else {
		s.MarkReady()
	}
	select {
	case err := <-done:
		return err
	case got := <-sig:
		log.Info("signal received", "signal", got.String())
		if err := s.Drain(); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		fmt.Println("heliumd: drained, bye")
		return <-done
	}
}

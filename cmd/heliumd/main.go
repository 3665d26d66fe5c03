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
//	        [-timeout 10s] [-drain 10s] [-warm] [-eval-workers N]
//	        [-fault-slow 25ms] [-log-level info] [-pprof]
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
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"helium/internal/obs"
	"helium/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "execution pool size (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "admission queue depth (full queue sheds with 503)")
		perKernel = flag.Int("per-kernel", 0, "per-kernel concurrency limit (0 = pool size)")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request execution deadline")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
		warm      = flag.Bool("warm", true, "lift the whole corpus before reporting ready")
		evalW     = flag.Int("eval-workers", 1, "intra-request parallelism (requests parallelize across the pool)")
		slow      = flag.Duration("fault-slow", 25*time.Millisecond, "injected delay of the serve.slow-backend faultpoint")
		maxW      = flag.Int("max-width", 2048, "largest accepted request width")
		maxH      = flag.Int("max-height", 2048, "largest accepted request height")
		logLevel  = flag.String("log-level", "info", "stderr log threshold: debug, info, warn, error, off")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		ref    = flag.Bool("ref", false, "print the vm ground-truth response for one request and exit")
		kernel = flag.String("kernel", "boxblur3", "kernel for -ref")
		width  = flag.Int("width", 40, "request width for -ref")
		height = flag.Int("height", 24, "request height for -ref")
		seed   = flag.Uint64("seed", 1, "request seed for -ref")
	)
	flag.Parse()

	log := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel))
	opts := serve.Options{
		Workers:          *workers,
		QueueDepth:       *queue,
		PerKernel:        *perKernel,
		Timeout:          *timeout,
		DrainTimeout:     *drain,
		EvalWorkers:      *evalW,
		SlowBackendDelay: *slow,
		MaxWidth:         *maxW,
		MaxHeight:        *maxH,
		Logger:           log,
		EnablePprof:      *pprofOn,
	}

	if *ref {
		s := serve.New(opts)
		out, err := s.Reference(*kernel, *width, *height, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "heliumd: ref: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		return
	}
	if err := run(opts, *addr, *warm, log); err != nil {
		fmt.Fprintf(os.Stderr, "heliumd: %v\n", err)
		os.Exit(1)
	}
}

// run serves until SIGINT/SIGTERM, then drains gracefully.  The final
// "heliumd: drained, bye" stays a bare stdout line — the scripted
// lifecycle marker CI greps for.
func run(opts serve.Options, addr string, warm bool, log *obs.Logger) error {
	s := serve.New(opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Info("listening", "addr", ln.Addr().String(), "pprof", opts.EnablePprof)

	// Catch signals before the (multi-second) warm-up: a SIGTERM that
	// lands mid-warm must still drain gracefully, not kill the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

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
		log.Info("draining", "signal", got.String(), "budget", opts.DrainTimeout)
		if opts.DrainTimeout <= 0 {
			opts.DrainTimeout = 10 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		fmt.Println("heliumd: drained, bye")
		return <-done
	}
}

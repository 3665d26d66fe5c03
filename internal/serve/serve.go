package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"helium/internal/faultpoint"
	"helium/internal/legacy"
	"helium/internal/obs"
)

// Defaults of the Options fields a command line exposes, kept here so a
// flag's default and the zero value's fallback cannot drift apart.
const (
	DefaultQueueDepth       = 64
	DefaultTimeout          = 10 * time.Second
	DefaultDrainTimeout     = 10 * time.Second
	DefaultSlowBackendDelay = 25 * time.Millisecond
	DefaultMaxWidth         = 2048
	DefaultMaxHeight        = 2048
)

// Options configures a Server.  The zero value is usable: every field
// falls back to the documented default.
type Options struct {
	// LiftWidth, LiftHeight and LiftSeed fix the geometry kernels are
	// lifted and verified at (requests may use any geometry within the
	// limits below).  Defaults 40x24 seed 1, matching `helium run`.
	LiftWidth, LiftHeight int
	LiftSeed              uint64

	// Workers is the shared execution pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds with 503
	// (default 64).
	QueueDepth int
	// PerKernel caps in-flight requests per kernel; beyond it requests
	// are refused with 429 (default Workers).
	PerKernel int

	// Timeout is the per-request execution deadline (default 10s).
	Timeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration

	// Request geometry limits (defaults 12x6 .. 2048x2048).
	MinWidth, MinHeight int
	MaxWidth, MaxHeight int

	// MaxVMSteps and MaxTraceInsts bound every emulation the server runs
	// (lift-time tracing and the vm terminal backend), so a hostile
	// binary can slow a request down but never hang it.
	MaxVMSteps    uint64
	MaxTraceInsts int

	// TripAfter consecutive failures open a backend's circuit breaker;
	// after ProbeAfter skipped requests a half-open probe may close it
	// (defaults 3 and 8).
	TripAfter, ProbeAfter int

	// SlowBackendDelay is the injected latency of the serve.slow-backend
	// faultpoint (default 25ms).
	SlowBackendDelay time.Duration

	// Logger receives operational and access-log lines (default: drop
	// everything).  The access-log hot path is allocation-free.
	Logger *obs.Logger
	// Metrics is the registry the server's instruments live in and that
	// GET /metrics exposes.  Default: a fresh per-server registry.  Two
	// servers sharing one registry would share (and double-count) its
	// instruments — give each server its own.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's own mux.
	EnablePprof bool
}

func (o Options) withDefaults() Options {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&o.LiftWidth, 40)
	def(&o.LiftHeight, 24)
	if o.LiftSeed == 0 {
		o.LiftSeed = 1
	}
	def(&o.Workers, runtime.GOMAXPROCS(0))
	def(&o.QueueDepth, DefaultQueueDepth)
	def(&o.PerKernel, o.Workers)
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = DefaultDrainTimeout
	}
	def(&o.MinWidth, 12)
	def(&o.MinHeight, 6)
	def(&o.MaxWidth, DefaultMaxWidth)
	def(&o.MaxHeight, DefaultMaxHeight)
	if o.MaxVMSteps == 0 {
		o.MaxVMSteps = 200_000_000
	}
	def(&o.TripAfter, 3)
	def(&o.ProbeAfter, 8)
	if o.SlowBackendDelay <= 0 {
		o.SlowBackendDelay = DefaultSlowBackendDelay
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	Requests uint64 `json:"requests"`
	OK       uint64 `json:"ok"`
	Errors   uint64 `json:"errors"`
	Degraded uint64 `json:"degraded"`
	Panics   uint64 `json:"panics"`
	Shed     uint64 `json:"shed"`
	Limited  uint64 `json:"limited"`
	Timeouts uint64 `json:"timeouts"`
}

// Server is the lifting-as-a-service HTTP server: a kernel registry, a
// bounded admission queue over a shared worker pool, and the per-request
// degradation machinery.
type Server struct {
	opts Options
	reg  *Registry
	log  *obs.Logger
	met  *metrics

	jobs     chan *job
	jobPool  sync.Pool
	bodyPool sync.Pool // *bodyBuf request-body buffers
	wg       sync.WaitGroup

	started  atomic.Bool
	draining atomic.Bool
	warmed   atomic.Bool

	mux  *http.ServeMux
	http *http.Server
}

// New builds a Server.  Call Start (or Serve) before submitting requests.
func New(opts Options) *Server {
	o := opts.withDefaults()
	met := newMetrics(o.Metrics)
	s := &Server{
		opts: o,
		log:  o.Logger,
		met:  met,
		reg:  newRegistry(o, met),
		jobs: make(chan *job, o.QueueDepth),
	}
	s.jobPool.New = func() any { return &job{done: make(chan struct{}, 1)} }
	s.bodyPool.New = func() any { return new(bodyBuf) }
	s.mux = http.NewServeMux()
	// Built here, not in Serve, so a Shutdown that races Serve's start
	// still finds (and closes) the server Serve is about to run.
	s.http = &http.Server{Handler: s.mux}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/v1/eval", s.handleEval)
	s.mux.HandleFunc("/v1/kernels", s.handleKernels)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.Handle("/metrics", o.Metrics.Handler())
	if o.EnablePprof {
		// Mounted explicitly on the private mux; the DefaultServeMux
		// registrations of the pprof package's init are never served.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.installScrapeHook()
	return s
}

// Start spawns the worker pool (idempotent).
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Warm lifts the whole corpus up front so /readyz means "every kernel's
// lift outcome is cached".
func (s *Server) Warm() {
	start := time.Now()
	s.reg.warm()
	d := time.Since(start)
	s.met.warmSeconds.Set(d.Seconds())
	s.log.Info("corpus warmed", "kernels", len(s.reg.entries()), "dur", d)
	s.warmed.Store(true)
}

// MarkReady reports readiness without pre-lifting (lazy warming): each
// kernel lifts on its first request instead.  Callers skipping Warm
// must call this or /readyz stays 503.
func (s *Server) MarkReady() { s.warmed.Store(true) }

// Handler returns the HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve starts the workers and serves HTTP on the listener until
// Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.Start()
	err := s.http.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains gracefully: new requests are refused with 503, HTTP
// ingress stops, in-flight requests run to completion (bounded by ctx),
// then the worker pool exits.  Callers not using Serve must guarantee no
// Do calls are in flight or started after.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Shutdown returns once every active handler — every possible queue
	// producer — has finished, making the close below safe.
	err := s.http.Shutdown(ctx)
	if s.started.Load() {
		close(s.jobs)
		s.wg.Wait()
		s.started.Store(false)
	}
	return err
}

// Drain is Shutdown bounded by the DrainTimeout budget, which it logs.
func (s *Server) Drain() error {
	s.log.Info("draining", "budget", s.opts.DrainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// Stats snapshots the global counters.  The snapshot is computed from
// the same obs instruments /metrics exposes, so the two surfaces can
// never disagree.
func (s *Server) Stats() Stats {
	st := Stats{
		Degraded: s.met.degraded.Value(),
		Panics:   s.met.panics.Value(),
		Shed:     s.met.shed.Value(),
		Limited:  s.met.limited.Value(),
		Timeouts: s.met.timeouts.Value(),
	}
	for code, c := range s.met.status {
		v := c.Value()
		st.Requests += v
		if code == 200 {
			st.OK += v
		} else {
			st.Errors += v
		}
	}
	v := s.met.statusOther.Value()
	st.Requests += v
	st.Errors += v
	return st
}

// Registry exposes the kernel registry (for warmers and the -ref mode).
func (s *Server) Registry() *Registry { return s.reg }

// InputSpec returns the input interior byte count a request geometry
// needs for a kernel, lifting it first if necessary.  Load generators use
// it to build request bodies.
func (s *Server) InputSpec(kernel string, w, h int) (int, error) {
	e, err := s.reg.resolve(kernel)
	if err != nil {
		return 0, err
	}
	e.ensure()
	if e.rej != nil {
		return 0, e.rej
	}
	if e.err != nil {
		return 0, e.err
	}
	return e.inputBytes(w, h), nil
}

// Reference computes the ground-truth response for a pattern-mode request
// through the vm terminal backend alone — a fresh re-emulation of the
// legacy binary, independent of every lifted execution path.  CI uses it
// to check served bytes against the binary's own output.
func (s *Server) Reference(kernel string, w, h int, seed uint64) ([]byte, error) {
	e, err := s.reg.resolve(kernel)
	if err != nil {
		return nil, err
	}
	e.ensure()
	if e.rej != nil {
		return nil, e.rej
	}
	if e.err != nil {
		return nil, e.err
	}
	if !e.vmOK {
		return nil, fmt.Errorf("kernel %q has no vm reference window", kernel)
	}
	req := &request{w: w, h: h, seed: seed}
	req.inst = e.kern.Instantiate(legacy.Config{Width: w, Height: h, Seed: seed})
	outW, outH := e.outDims(w, h)
	full, err := req.inst.RunVMBounded(s.opts.MaxVMSteps)
	if err != nil {
		return nil, err
	}
	return e.vmWindow(full, req, outW, outH)
}

// job is one queued request.  Ownership is a three-state handshake:
// whichever side loses the pending->done / pending->abandoned race cleans
// up, so a deadline-expired handler can return immediately while the
// worker still owns the scratch.
type job struct {
	state atomic.Int32 // statePending -> stateDone | stateAbandoned
	ctx   context.Context
	e     *entry
	req   request
	rs    *reqScratch
	res   result
	enq   time.Time // when admission queued the job
	done  chan struct{}
}

const (
	statePending int32 = iota
	stateDone
	stateAbandoned
)

// worker is one pool goroutine: it claims scratch, executes, and hands
// the job back — or cleans it up when the requester already left.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		if j.state.Load() == stateAbandoned {
			s.release(j)
			continue
		}
		wait := time.Since(j.enq)
		s.met.queueWait.ObserveDuration(wait)
		j.rs = j.e.scratch.Get().(*reqScratch)
		t0 := time.Now()
		j.res = j.e.execute(j.ctx, j.rs, &j.req)
		j.res.queueWait, j.res.exec = wait, time.Since(t0)
		s.met.execute.ObserveDuration(j.res.exec)
		if j.state.CompareAndSwap(statePending, stateDone) {
			j.done <- struct{}{}
		} else {
			s.release(j)
		}
	}
}

// release returns a job's resources: scratch to the entry pool, the
// request body to the body pool, the per-kernel slot, and the job itself.
// Called exactly once per admitted job, by whichever side owns it last.
func (s *Server) release(j *job) {
	if j.rs != nil {
		j.e.scratch.Put(j.rs)
		j.rs = nil
	}
	s.releaseBody(&j.req)
	<-j.e.sem
	j.ctx, j.e, j.req, j.res = nil, nil, request{}, result{}
	s.jobPool.Put(j)
}

// do submits one request through admission, the bounded queue and the
// worker pool, then calls emit with the outcome.  emit runs exactly once;
// a 200's body aliases pooled scratch and is only valid inside emit.
// The request's trace id (generated here when the caller did not admit
// one) rides on the result and stitches the access-log line to the
// X-Helium-Trace header.
//
// do takes ownership of req's pooled body buffer, if it has one: a
// refused request returns it here, an admitted one hands it to its job
// (whose release returns it), and either way req stops aliasing it.
func (s *Server) do(ctx context.Context, kernel string, req *request, emit func(*result)) {
	start := time.Now()
	if req.trace == 0 {
		req.trace = obs.NewTraceID()
	}
	if s.draining.Load() {
		s.releaseBody(req)
		s.met.shed.Inc()
		r := result{status: 503, errMsg: "server is draining", retryAfter: 1}
		s.finish(kernel, req, start, emit, &r)
		return
	}
	e, err := s.reg.resolve(kernel)
	if err != nil {
		s.releaseBody(req)
		r := result{status: 404, errMsg: err.Error()}
		s.finish(kernel, req, start, emit, &r)
		return
	}
	// Per-kernel concurrency limit.
	select {
	case e.sem <- struct{}{}:
	default:
		s.releaseBody(req)
		s.met.limited.Inc()
		r := result{status: 429, errMsg: "kernel concurrency limit reached", retryAfter: 1}
		s.finish(kernel, req, start, emit, &r)
		return
	}
	j := s.jobPool.Get().(*job)
	j.state.Store(statePending)
	j.ctx, j.e, j.req, j.enq = ctx, e, *req, start
	if req.body != nil {
		// The job owns the body now; only its release returns it.
		req.body, req.pixels = nil, nil
	}
	// Bounded admission: a full queue (or the injected overload) sheds
	// rather than queueing unbounded latency.
	shed := faultpoint.Enabled(fpShed)
	if !shed {
		select {
		case s.jobs <- j:
		default:
			shed = true
		}
	}
	if shed {
		j.rs = nil
		s.release(j) // returns the body: no worker ever saw this job
		s.met.shed.Inc()
		r := result{status: 503, errMsg: "admission queue is full", retryAfter: 1}
		s.finish(kernel, req, start, emit, &r)
		return
	}
	select {
	case <-j.done:
		s.finish(kernel, req, start, emit, &j.res)
		s.release(j)
	case <-ctx.Done():
		if j.state.CompareAndSwap(statePending, stateAbandoned) {
			s.met.timeouts.Inc()
			r := result{status: 504, errMsg: "request deadline expired before execution finished"}
			s.finish(kernel, req, start, emit, &r)
			// The worker (or queue drain) releases the job and its
			// body: it may still be reading the pixels.
			return
		}
		// The worker finished first; take the handoff normally.
		<-j.done
		s.finish(kernel, req, start, emit, &j.res)
		s.release(j)
	}
}

// finish stamps the trace id, updates outcome counters, writes the
// access-log line and invokes emit.  Allocation-free in steady state.
func (s *Server) finish(kernel string, req *request, start time.Time, emit func(*result), r *result) {
	r.trace = req.trace
	s.met.observeStatus(r.status)
	if r.degraded != "" {
		s.met.degraded.Inc()
	}
	if ln := s.log.Line(obs.LevelInfo, "eval"); ln != nil {
		ln.Hex64("trace", req.trace).
			Str("kernel", kernel).
			Int("w", req.w).Int("h", req.h).
			Int("status", r.status).
			Str("backend", r.backend).
			Str("degraded", r.degraded).
			Dur("queue_wait", r.queueWait).
			Dur("exec", r.exec).
			Dur("total", time.Since(start)).
			Log()
	}
	emit(r)
}

// --- HTTP layer ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process serves, even while draining.
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || !s.started.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	if !s.warmed.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "warming\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

// handleEval is the serving endpoint:
//
//	POST /v1/eval?kernel=name&width=W&height=H[&seed=S]
//
// With a request body, the body is the raw input interior (the bytes the
// legacy filter would read) and the response is the kernel's output
// window.  Without a body (or with GET) the server generates the
// deterministic seed pattern — exactly `helium run`'s workload.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	// Trace admission: every response — validation failures included —
	// carries the id that names its access-log line.
	trace := obs.NewTraceID()
	w.Header().Set("X-Helium-Trace", obs.TraceString(trace))
	fail := func(status int, msg, kernel string, width, height int) {
		s.met.observeStatus(status)
		s.log.Line(obs.LevelInfo, "eval").
			Hex64("trace", trace).Str("kernel", kernel).
			Int("w", width).Int("h", height).Int("status", status).
			Str("err", msg).Log()
		httpError(w, status, msg, "")
	}
	if r.Method != http.MethodPost && r.Method != http.MethodGet {
		fail(http.StatusMethodNotAllowed, "use GET or POST", "", 0, 0)
		return
	}
	q := r.URL.Query()
	kernel := q.Get("kernel")
	if kernel == "" {
		fail(http.StatusBadRequest, "missing kernel parameter", "", 0, 0)
		return
	}
	width, err1 := intParam(q.Get("width"), s.opts.LiftWidth)
	height, err2 := intParam(q.Get("height"), s.opts.LiftHeight)
	seed, err3 := uintParam(q.Get("seed"), s.opts.LiftSeed)
	if err1 != nil || err2 != nil || err3 != nil {
		fail(http.StatusBadRequest, "width, height and seed must be integers", kernel, 0, 0)
		return
	}
	if width < s.opts.MinWidth || height < s.opts.MinHeight {
		fail(http.StatusBadRequest,
			fmt.Sprintf("dimensions %dx%d below the %dx%d minimum", width, height, s.opts.MinWidth, s.opts.MinHeight),
			kernel, width, height)
		return
	}
	if width > s.opts.MaxWidth || height > s.opts.MaxHeight {
		fail(http.StatusRequestEntityTooLarge,
			fmt.Sprintf("dimensions %dx%d exceed the %dx%d limit", width, height, s.opts.MaxWidth, s.opts.MaxHeight),
			kernel, width, height)
		return
	}

	req := request{w: width, h: height, seed: seed, trace: trace}
	if r.Method == http.MethodPost && r.ContentLength != 0 {
		// Generous fixed bound: dimensions are already capped, and the
		// exact per-kernel length is enforced after the entry is lifted.
		maxBody := int64(s.opts.MaxWidth+16)*int64(s.opts.MaxHeight+16)*4 + 1
		req.body = s.getBody()
		var err error
		req.body.b, err = readBody(http.MaxBytesReader(w, r.Body, maxBody), req.body.b)
		if err != nil {
			s.releaseBody(&req)
			fail(http.StatusRequestEntityTooLarge, "request body exceeds the input size limit", kernel, width, height)
			return
		}
		req.pixels = req.body.b
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	s.do(ctx, kernel, &req, func(res *result) {
		h := w.Header()
		if res.backend != "" {
			h.Set("X-Helium-Backend", res.backend)
		}
		if res.degraded != "" {
			h.Set("X-Helium-Degraded", res.degraded)
		}
		if res.retryAfter > 0 {
			h.Set("Retry-After", strconv.Itoa(res.retryAfter))
		}
		if res.status != http.StatusOK {
			httpError(w, res.status, res.errMsg, res.phase)
			return
		}
		h.Set("X-Helium-Output", outputHeader(res))
		h.Set("Content-Type", "application/octet-stream")
		// A declared length writes the body unframed instead of chunked.
		h.Set("Content-Length", strconv.Itoa(len(res.body)))
		w.WriteHeader(http.StatusOK)
		w.Write(res.body)
	})
}

// outputHeader renders a 200's X-Helium-Output value: "bins:N" for a
// reduction, "WxH" for a stencil window.
func outputHeader(res *result) string {
	var buf [48]byte
	var b []byte
	if res.bins > 0 {
		b = strconv.AppendInt(append(buf[:0], "bins:"...), int64(res.bins), 10)
	} else {
		b = strconv.AppendInt(buf[:0], int64(res.outW), 10)
		b = strconv.AppendInt(append(b, 'x'), int64(res.outH), 10)
	}
	return string(b)
}

// bodyBuf is a pooled request-body buffer.  It goes back to the pool
// exactly once per use, by whoever owns the request last; pooled turns a
// second return into a panic rather than two requests sharing bytes.
type bodyBuf struct {
	b      []byte
	pooled atomic.Bool
}

// getBody takes a body buffer from the pool.
func (s *Server) getBody() *bodyBuf {
	b := s.bodyPool.Get().(*bodyBuf)
	b.pooled.Store(false)
	return b
}

// releaseBody returns the request's pooled body buffer, if it has one,
// and drops the pixels that alias it.
func (s *Server) releaseBody(req *request) {
	b := req.body
	if b == nil {
		return
	}
	req.body, req.pixels = nil, nil
	if !b.pooled.CompareAndSwap(false, true) {
		panic("serve: request body buffer returned to the pool twice")
	}
	s.bodyPool.Put(b)
}

// readBody reads r to EOF into buf's reused capacity.  Like io.ReadAll it
// grows the buffer only as bytes arrive, so a declared length the client
// never sends costs nothing.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	b := buf[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // let append pick the growth
		}
	}
}

// kernelInfo is one registry entry's observable state.
type kernelInfo struct {
	Name     string            `json:"name"`
	Hash     string            `json:"hash"`
	State    string            `json:"state"` // cold | ready | poisoned | failed
	Phase    string            `json:"phase,omitempty"`
	Backends map[string]any    `json:"backends,omitempty"`
	Breakers map[string]string `json:"breakers,omitempty"`
	Degraded uint64            `json:"degraded"`
	Panics   uint64            `json:"panics"`
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	var infos []kernelInfo
	for _, e := range s.reg.entries() {
		info := kernelInfo{
			Name:     e.name,
			Hash:     e.hash[:12],
			Degraded: e.degradedC.Value(),
			Panics:   e.panicsC.Value(),
		}
		switch {
		case e.inst0 != nil:
			info.State = "cold"
		case e.rej != nil:
			info.State = "poisoned"
			info.Phase = string(e.rej.Phase)
		case e.err != nil:
			info.State = "failed"
		default:
			info.State = "ready"
			info.Backends = map[string]any{}
			info.Breakers = map[string]string{}
			for _, be := range e.chain {
				info.Backends[backendNames[be]] = e.servedC[be].Value()
				info.Breakers[backendNames[be]] = e.breakers[be].state()
			}
			if e.vmOK {
				info.Backends["vm"] = e.servedC[beVM].Value()
				info.Breakers["vm"] = e.breakers[beVM].state()
			}
		}
		infos = append(infos, info)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(infos)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// httpError writes the typed JSON error body.
func httpError(w http.ResponseWriter, status int, msg, phase string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body := map[string]string{"error": msg}
	if phase != "" {
		body["phase"] = phase
	}
	json.NewEncoder(w).Encode(body)
}

func intParam(v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

func uintParam(v string, def uint64) (uint64, error) {
	if v == "" {
		return def, nil
	}
	return strconv.ParseUint(v, 10, 64)
}

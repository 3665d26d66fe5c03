// Package serve is the lifting-as-a-service layer: a long-running HTTP
// server that accepts an image and a corpus kernel name, executes the
// lifted-and-regenerated kernel, and returns the result.  It lifts the
// CLI's robustness contract into a server: under injected faults,
// overload and hostile requests every response is either bit-exact
// pixels or a typed error — never a wrong answer, a hung connection, or
// a crashed process.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"helium/internal/ir"
	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
	"helium/internal/obs"
)

// backendID indexes the per-request degradation chain.
type backendID int

// The degradation chain, fastest first.  vm is the terminal backend: it
// re-emulates the legacy binary directly, so it needs no lifted result —
// but also no client pixels can feed it, so it only serves pattern-mode
// requests.
const (
	beGenerated backendID = iota
	beCompiled
	beInterp
	beVM
	numBackends
)

var backendNames = [numBackends]string{"generated", "compiled", "interp", "vm"}

// Registry interns lifted kernels by legacy-binary hash: the expensive
// lift+verify+compile runs exactly once per distinct binary (singleflight
// via sync.Once), its outcome — good or poisoned — is cached forever, and
// every name resolving to the same binary shares the entry.
type Registry struct {
	opts Options
	met  *metrics

	mu     sync.Mutex
	byName map[string]*entry
	byHash map[string]*entry
}

func newRegistry(opts Options, met *metrics) *Registry {
	return &Registry{
		opts:   opts,
		met:    met,
		byName: map[string]*entry{},
		byHash: map[string]*entry{},
	}
}

// progHash fingerprints a legacy binary: the disassembled instruction
// stream plus every initialized data segment.  Two corpus names wrapping
// the same binary hash identically and share one registry entry.
func progHash(k *legacy.Kernel, inst *legacy.Instance) string {
	h := sha256.New()
	h.Write([]byte(inst.Prog.Disassemble()))
	for _, seg := range inst.Prog.Data {
		var addr [4]byte
		binary.LittleEndian.PutUint32(addr[:], seg.Addr)
		h.Write(addr[:])
		h.Write(seg.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resolve returns the registry entry serving a kernel name, creating it
// (without lifting yet) on first sight.  Unknown names are a typed error.
func (r *Registry) resolve(name string) (*entry, error) {
	r.mu.Lock()
	if e, ok := r.byName[name]; ok {
		r.mu.Unlock()
		return e, nil
	}
	r.mu.Unlock()

	k, ok := legacy.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", name)
	}
	// Instantiating (assembling) the binary is cheap next to lifting and
	// happens outside the lock; a racing resolve for the same name just
	// builds a second instance and discards it below.
	inst := k.Instantiate(legacy.Config{
		Width: r.opts.LiftWidth, Height: r.opts.LiftHeight, Seed: r.opts.LiftSeed,
	})
	hash := progHash(&k, inst)

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		return e, nil
	}
	e, ok := r.byHash[hash]
	if !ok {
		e = newEntry(r, name, k, inst, hash)
		r.byHash[hash] = e
	}
	r.byName[name] = e
	return e, nil
}

// entries snapshots the interned entries sorted by name.
func (r *Registry) entries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, 0, len(r.byName))
	for _, e := range r.byName {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// warm resolves and lifts every corpus kernel so the first real request
// pays no lift latency; poisoned entries are warmed too (their typed
// rejection is what gets cached).
func (r *Registry) warm() {
	var wg sync.WaitGroup
	for _, k := range legacy.Kernels() {
		e, err := r.resolve(k.Name)
		if err != nil {
			continue
		}
		wg.Add(1)
		go func(e *entry) {
			defer wg.Done()
			e.ensure()
		}(e)
	}
	wg.Wait()
}

// entry is one distinct legacy binary's cached lift state plus its
// runtime serving state.
type entry struct {
	reg  *Registry
	name string
	kern legacy.Kernel
	hash string

	once  sync.Once
	inst0 *legacy.Instance // lift-geometry instance; consumed by init

	// Lift outcome (exactly one of rej/err set on failure; both nil on
	// success).  A poisoned entry answers 422 (rej) or 500 (err) forever
	// without re-lifting.
	rej *lift.Rejection
	err error

	res *lift.Result
	ck  *lift.CompiledResult
	gk  *liftedkernels.Kernel

	// Geometry model: response extents are rational in the requested
	// config geometry — outW = floor(w*mulW/divW) + offW — with the
	// slope read off the final stage's affine index map (an identity
	// map gives the classic slope-1 delta) and the offset calibrated at
	// lift geometry.  Input interior extents stay slope-1.
	mulW, divW, offW int
	mulH, divH, offH int
	dInW, dInH       int // input interior extents minus request extents
	channels         int
	interleaved      bool
	pad              int // planar clamp padding covering the stencil footprint
	isRed            bool
	bins             int // reduction response length in 4-byte bins

	// vm terminal backend: the lifted output window's offset inside the
	// instance's full output interior, discovered at init by matching the
	// binary's own output; vmOK gates the backend.
	vmOX, vmOY int
	vmOK       bool

	// srcErr, when non-nil, means a client-style input plane cannot feed
	// the lifted evaluators for this kernel (for example an interleaved
	// footprint escaping the interior); such entries serve pattern-mode
	// requests through the vm backend only.
	srcErr error

	// chain is the per-request degradation order: the backends that
	// passed the init self-check, fastest first.
	chain []backendID

	breakers [numBackends]breaker
	sem      chan struct{} // per-kernel concurrency slots
	scratch  sync.Pool     // *reqScratch

	// Per-kernel instruments, registered once at entry creation so the
	// request path only does atomic adds.  The same counters back both
	// /v1/kernels and /metrics — the surfaces cannot disagree.
	servedC   [numBackends]*obs.Counter
	degradedC *obs.Counter
	panicsC   *obs.Counter
	failedC   *obs.Counter // requests that exhausted every backend
	brkState  [numBackends]*obs.Gauge
}

func newEntry(r *Registry, name string, k legacy.Kernel, inst *legacy.Instance, hash string) *entry {
	e := &entry{
		reg:   r,
		name:  name,
		kern:  k,
		hash:  hash,
		inst0: inst,
		sem:   make(chan struct{}, r.opts.PerKernel),
	}
	for i := range e.breakers {
		e.breakers[i] = breaker{tripAfter: r.opts.TripAfter, probeAfter: r.opts.ProbeAfter}
		be := backendID(i)
		e.breakers[i].onOpen = func() { r.met.brkOpen[be].Inc() }
		e.breakers[i].onClose = func() { r.met.brkClose[be].Inc() }
	}
	mreg := r.opts.Metrics
	kl := obs.L("kernel", name)
	for be := backendID(0); be < numBackends; be++ {
		e.servedC[be] = mreg.Counter("helium_kernel_served_total",
			"Successful responses by kernel and serving backend.", kl, obs.L("backend", backendNames[be]))
		e.brkState[be] = mreg.Gauge("helium_breaker_state",
			"Breaker state by kernel and backend (0 closed, 1 open, 2 half-open).", kl, obs.L("backend", backendNames[be]))
	}
	e.degradedC = mreg.Counter("helium_kernel_degraded_total",
		"Responses served after at least one fallback step, by kernel.", kl)
	e.panicsC = mreg.Counter("helium_kernel_panics_total",
		"Recovered panics (lift or request execution), by kernel.", kl)
	e.failedC = mreg.Counter("helium_kernel_failed_total",
		"Requests that exhausted every eligible backend, by kernel.", kl)
	e.scratch.New = func() any { return &reqScratch{} }
	return e
}

// ensure runs the one-time lift.  Concurrent first requests block here
// and share the single outcome — the singleflight dedup.
func (e *entry) ensure() { e.once.Do(e.init) }

// init lifts, verifies and compiles the binary once, then derives the
// serving geometry and self-checks every backend against the binary's
// own output.  Failures poison the entry with a typed outcome; a panic
// anywhere in the pipeline is caught and recorded, never propagated into
// a request.
func (e *entry) init() {
	inst := e.inst0
	e.inst0 = nil
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			e.panicsC.Inc()
			e.reg.met.panics.Inc()
			e.err = fmt.Errorf("lift panicked: %v", p)
		}
		e.recordLiftOutcome(time.Since(start))
	}()

	tgt := lift.Target{
		Prog:  inst.Prog,
		Setup: inst.Setup,
		Known: lift.KnownInput{
			Width:       inst.Width,
			Height:      inst.Height,
			Channels:    inst.Channels,
			Interleaved: inst.Interleaved,
			Interior:    inst.InputInterior,
		},
		MaxSteps:      e.reg.opts.MaxVMSteps,
		MaxTraceInsts: e.reg.opts.MaxTraceInsts,
	}
	res, err := lift.Lift(e.name, tgt)
	if err != nil {
		e.poison(err)
		return
	}
	if err := res.Verify(); err != nil {
		e.poison(err)
		return
	}
	ck, err := res.VerifyCompiled(0)
	if err != nil {
		e.poison(err)
		return
	}
	e.res, e.ck = res, ck
	if gk, ok := liftedkernels.Lookup(e.name); ok {
		e.gk = gk
	}

	cfg := e.reg.opts
	outW0, outH0 := res.EvalDims()
	// The final stencil's index map fixes the response slope (identity
	// maps give 1/1 — the classic delta model); pipelines ending in a
	// reduction keep the identity slope for their domain extents.
	var mx, my ir.AxisMap
	if res.Kernel != nil {
		mx, my = res.Kernel.MapX, res.Kernel.MapY
	}
	nx, dx, _ := mx.Norm()
	ny, dy, _ := my.Norm()
	e.mulW, e.divW = dx, nx
	e.mulH, e.divH = dy, ny
	e.offW = outW0 - cfg.LiftWidth*e.mulW/e.divW
	e.offH = outH0 - cfg.LiftHeight*e.mulH/e.divH
	e.dInW, e.dInH = inst.Width-cfg.LiftWidth, inst.Height-cfg.LiftHeight
	e.channels, e.interleaved = inst.Channels, inst.Interleaved
	e.isRed = res.Reduction != nil

	want, err := res.VMOutput()
	if err != nil {
		e.err = fmt.Errorf("reading the binary's own output from the trace dump: %w", err)
		return
	}
	if e.isRed {
		e.bins = len(want) / 4
	}

	xlo, xhi, ylo, yhi := res.InputFootprint(outW0, outH0)
	if e.interleaved {
		// The interleaved layout has no padding concept: a footprint
		// escaping the interior cannot be rebuilt from client pixels.
		if xlo < 0 || ylo < 0 || xhi > inst.Width-1 || yhi > inst.Height-1 {
			e.srcErr = fmt.Errorf("kernel %s: interleaved stencil footprint [%d,%d]x[%d,%d] escapes the %dx%d interior",
				e.name, xlo, xhi, ylo, yhi, inst.Width, inst.Height)
		}
	} else {
		if e.channels != 1 {
			e.srcErr = fmt.Errorf("kernel %s: planar multi-channel inputs are not servable", e.name)
		}
		// Clamp padding must cover every tap outside the interior; all
		// four margins are geometry-independent constants (the footprint
		// tracks the extents with slope 1).
		e.pad = max(0, -xlo, -ylo, xhi-(inst.Width-1), yhi-(inst.Height-1))
	}

	e.vmOX, e.vmOY, e.vmOK = findVMWindow(inst, want, outW0, outH0, e.isRed)
	e.selfCheck(inst, want, outW0, outH0)
	if len(e.chain) == 0 && !e.vmOK {
		e.err = fmt.Errorf("kernel %s: no backend reproduces the binary's output bit-exactly", e.name)
	}
}

// poison records a lift failure as its typed form: a lift.Rejection
// caches as a 422, anything else as a 500.
func (e *entry) poison(err error) {
	if rej, ok := lift.AsRejection(err); ok {
		e.rej = rej
		return
	}
	e.err = err
}

// recordLiftOutcome counts the one-time lift under its outcome series,
// observes its wall time, and writes the per-kernel lift log line with
// the pipeline's phase spans.
func (e *entry) recordLiftOutcome(d time.Duration) {
	met := e.reg.met
	state := "ready"
	switch {
	case e.rej != nil:
		state = "poisoned"
		if c := met.liftRejected[e.rej.Phase]; c != nil {
			c.Inc()
		} else {
			met.liftFailed.Inc()
		}
	case e.err != nil:
		state = "failed"
		met.liftFailed.Inc()
	default:
		met.liftOK.Inc()
	}
	met.liftSeconds.ObserveDuration(d)

	ln := e.reg.opts.Logger.Line(obs.LevelInfo, "lift").
		Str("kernel", e.name).Str("state", state).Dur("total", d)
	if e.res != nil {
		for _, pt := range e.res.PhaseTimes {
			ln = ln.Dur(string(pt.Phase), pt.Dur)
		}
	}
	switch {
	case e.rej != nil:
		ln = ln.Str("phase", string(e.rej.Phase)).Err(e.rej.Err)
	case e.err != nil:
		ln = ln.Err(e.err)
	}
	ln.Log()
}

// selfCheck runs each lifted backend through the serving path's own
// input reconstruction at lift geometry and keeps only the backends that
// reproduce the binary's output bit-exactly.  A backend that fails here
// is dropped from the chain — degraded, not poisoned — so a stale
// generated package can never serve wrong pixels.
func (e *entry) selfCheck(inst *legacy.Instance, want []byte, outW0, outH0 int) {
	if e.srcErr != nil {
		return
	}
	rs := &reqScratch{}
	req := &request{w: e.reg.opts.LiftWidth, h: e.reg.opts.LiftHeight, pixels: inst.InputInterior}
	if err := e.buildInput(rs, req); err != nil {
		e.srcErr = err
		return
	}
	for _, be := range []backendID{beGenerated, beCompiled, beInterp} {
		if be == beGenerated && e.gk == nil {
			continue
		}
		got, err := e.evalBackend(be, rs, req, outW0, outH0)
		if err == nil && bytes.Equal(got, want) {
			e.chain = append(e.chain, be)
		}
	}
}

// findVMWindow locates the lifted output window inside the instance's
// full output interior by matching the binary's own bytes, giving the vm
// terminal backend a response window at any request geometry.  For
// reductions the window is the whole table.
func findVMWindow(inst *legacy.Instance, want []byte, outW0, outH0 int, isRed bool) (ox, oy int, ok bool) {
	if isRed {
		return 0, 0, bytes.Equal(inst.Reference, want)
	}
	c := inst.Channels
	refW, refH := inst.RefDims()
	if len(want) != outW0*outH0*c {
		return 0, 0, false
	}
	for oy = 0; oy+outH0 <= refH; oy++ {
		for ox = 0; ox+outW0 <= refW; ox++ {
			if vmWindowAt(inst.Reference, refW, c, want, ox, oy, outW0, outH0) {
				return ox, oy, true
			}
		}
	}
	return 0, 0, false
}

// vmWindowAt reports whether want equals the (ox, oy, w, h) sub-window of
// a full row-major interior.
func vmWindowAt(full []byte, fullW, channels int, want []byte, ox, oy, w, h int) bool {
	for y := 0; y < h; y++ {
		row := full[((oy+y)*fullW+ox)*channels:]
		if !bytes.Equal(row[:w*channels], want[y*w*channels:(y+1)*w*channels]) {
			return false
		}
	}
	return true
}

// inputBytes returns the input interior byte count a request geometry
// needs (valid after ensure).
func (e *entry) inputBytes(w, h int) int {
	return (w + e.dInW) * (h + e.dInH) * e.channels
}

// outDims returns the response window extents for a request geometry:
// rational in the request extents, matching the legacy binary's own loop
// bounds at any size (a downsampler answers floor(w/2) columns).
func (e *entry) outDims(w, h int) (int, int) {
	return w*e.mulW/e.divW + e.offW, h*e.mulH/e.divH + e.offH
}

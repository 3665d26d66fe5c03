package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"helium/internal/faultpoint"
	"helium/internal/image"
	"helium/internal/ir"
	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
)

// The serving layer's injectable failures, powering the chaos tests
// (HELIUM_FAULTPOINTS=serve.exec-panic heliumd, or the intermittent
// forms serve.slow-backend:0.1 / serve.shed@3).
var (
	// fpSlowBackend delays the generated (first-chain) backend and fails
	// it, driving per-request degradation and breaker trips.
	fpSlowBackend = faultpoint.Register("serve.slow-backend",
		"delay the generated backend then fail it, forcing per-request degradation")
	// fpExecPanic panics inside every backend attempt; the per-request
	// recovery must turn it into a typed 500 while the server survives.
	fpExecPanic = faultpoint.Register("serve.exec-panic",
		"panic inside every backend attempt of a request")
	// fpShed makes admission treat the queue as full.
	fpShed = faultpoint.Register("serve.shed",
		"treat the admission queue as full, shedding the request with 503")
)

// request is one decoded eval request.
type request struct {
	w, h   int    // config-geometry extents (what helium -width/-height take)
	seed   uint64 // deterministic pattern seed, pattern mode only
	pixels []byte // client input interior; nil selects pattern mode
	trace  uint64 // trace id; do generates one when the caller left it 0

	inst *legacy.Instance // pattern-mode instance, built during execute
}

// result is one request's outcome.  body aliases the request's scratch
// and is only valid until the job is released.
type result struct {
	status     int
	backend    string // backend that served a 200
	degraded   string // comma-joined "backend:reason" fallback steps
	body       []byte
	outW, outH int // response window extents (stencils)
	bins       int // response bin count (reductions)
	errMsg     string
	phase      string // lift rejection phase on 422
	retryAfter int    // seconds, on 429/503

	trace     uint64        // stamped by finish from the request
	queueWait time.Duration // admission-to-worker latency (admitted jobs)
	exec      time.Duration // worker execution wall time
}

// reqScratch is the pooled per-request working set: the pixel backing the
// input is rebuilt into, the evaluator scratch, and the degradation note
// accumulator.  Steady-state requests at a stable geometry reuse every
// buffer and allocate nothing.
type reqScratch struct {
	sc    liftedkernels.Scratch
	plane *image.Plane
	inter *image.Interleaved
	img   liftedkernels.Image
	src   ir.Source
	notes []string
}

// execute runs one request through the entry's degradation chain.  Every
// failure mode — poisoned lift, backend error, backend panic, open
// breaker, expired deadline — degrades or returns typed; nothing
// propagates out of this function but a result.
func (e *entry) execute(ctx context.Context, rs *reqScratch, req *request) (res result) {
	defer func() {
		if p := recover(); p != nil {
			e.panicsC.Inc()
			e.reg.met.panics.Inc()
			res = result{status: 500, errMsg: fmt.Sprintf("request panicked: %v", p)}
		}
	}()

	e.ensure()
	if e.rej != nil {
		return result{status: 422, errMsg: e.rej.Error(), phase: string(e.rej.Phase)}
	}
	if e.err != nil {
		return result{status: 500, errMsg: e.err.Error()}
	}

	pattern := req.pixels == nil
	if pattern {
		// The instance is the authoritative pattern input — and the vm
		// terminal backend's executable form.
		req.inst = e.kern.Instantiate(legacy.Config{Width: req.w, Height: req.h, Seed: req.seed})
	}

	chain := e.chain
	srcErr := e.srcErr
	if srcErr == nil {
		if err := e.buildInput(rs, req); err != nil {
			if !pattern {
				return result{status: 400, errMsg: err.Error()}
			}
			srcErr = err
		}
	}
	if srcErr != nil {
		if !pattern {
			return result{status: 400, errMsg: srcErr.Error()}
		}
		chain = nil // only the vm backend can answer
	}

	outW, outH := e.outDims(req.w, req.h)
	rs.notes = rs.notes[:0]
	for _, be := range chain {
		if ctx.Err() != nil {
			return e.timeoutResult(rs)
		}
		br := &e.breakers[be]
		if !br.allow() {
			rs.notes = append(rs.notes, backendNames[be]+":breaker-open")
			continue
		}
		out, err := e.attempt(be, rs, req, outW, outH)
		br.report(err == nil)
		if err == nil {
			return e.okResult(rs, be, out, outW, outH)
		}
		rs.notes = append(rs.notes, backendNames[be]+":"+err.Error())
	}

	// The terminal vm backend re-emulates the binary; it exists only for
	// pattern-mode requests (the emulated binary generates its own input).
	if pattern && e.vmOK {
		if ctx.Err() != nil {
			return e.timeoutResult(rs)
		}
		br := &e.breakers[beVM]
		if br.allow() {
			out, err := e.attempt(beVM, rs, req, outW, outH)
			br.report(err == nil)
			if err == nil {
				return e.okResult(rs, beVM, out, outW, outH)
			}
			rs.notes = append(rs.notes, "vm:"+err.Error())
		} else {
			rs.notes = append(rs.notes, "vm:breaker-open")
		}
	}

	if ctx.Err() != nil {
		return e.timeoutResult(rs)
	}
	e.failedC.Inc()
	e.reg.met.failed.Inc()
	return result{
		status:   500,
		degraded: strings.Join(rs.notes, ", "),
		errMsg:   "every eligible backend failed",
	}
}

// attempt wraps one backend try with the per-backend attempt metrics.
func (e *entry) attempt(be backendID, rs *reqScratch, req *request, outW, outH int) ([]byte, error) {
	m := e.reg.met
	t0 := time.Now()
	out, err := e.runBackend(be, rs, req, outW, outH)
	m.beLat[be].ObserveDuration(time.Since(t0))
	if err == nil {
		m.beOK[be].Inc()
	} else {
		m.beErr[be].Inc()
	}
	return out, err
}

// okResult assembles a 200, noting the degradation trail when the serving
// backend was not the chain head.
func (e *entry) okResult(rs *reqScratch, be backendID, out []byte, outW, outH int) result {
	e.servedC[be].Inc()
	res := result{status: 200, backend: backendNames[be], body: out, outW: outW, outH: outH, bins: e.bins}
	if len(rs.notes) > 0 {
		e.degradedC.Inc()
		res.degraded = strings.Join(rs.notes, ", ")
	}
	return res
}

// timeoutResult is the typed 504 for a deadline expiring between backend
// attempts.
func (e *entry) timeoutResult(rs *reqScratch) result {
	return result{
		status:   504,
		degraded: strings.Join(rs.notes, ", "),
		errMsg:   "request deadline expired during execution",
	}
}

// runBackend attempts one backend with per-attempt panic isolation: a
// panicking backend is a failed backend, and the chain moves on.
func (e *entry) runBackend(be backendID, rs *reqScratch, req *request, outW, outH int) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			e.panicsC.Inc()
			e.reg.met.panics.Inc()
			err = fmt.Errorf("backend panicked: %v", p)
		}
	}()
	if faultpoint.Enabled(fpExecPanic) {
		panic("injected request panic (serve.exec-panic)")
	}
	if be == beGenerated && faultpoint.Enabled(fpSlowBackend) {
		time.Sleep(e.reg.opts.SlowBackendDelay)
		return nil, errors.New("injected slow backend (serve.slow-backend)")
	}
	return e.evalBackend(be, rs, req, outW, outH)
}

// evalBackend dispatches one backend attempt.
func (e *entry) evalBackend(be backendID, rs *reqScratch, req *request, outW, outH int) ([]byte, error) {
	switch be {
	case beGenerated:
		// Requests parallelize across the worker pool, not inside one
		// request, so every request runs serially.
		if e.gk.Tuned != nil {
			// The schedule-baked serial driver: the per-request fast path.
			return e.gk.Tuned(&rs.sc, &rs.img, outW, outH)
		}
		// Sched.Workers 0 would mean GOMAXPROCS; pin one worker.
		spec := e.gk.Sched
		spec.Workers = 1
		return e.gk.EvalInto(&rs.sc, &rs.img, outW, outH, spec)
	case beCompiled:
		return e.ck.EvalAt(rs.src, outW, outH)
	case beInterp:
		return e.res.EvalIRAt(rs.src, outW, outH)
	case beVM:
		full, err := req.inst.RunVMBounded(e.reg.opts.MaxVMSteps)
		if err != nil {
			return nil, fmt.Errorf("vm re-emulation: %w", err)
		}
		return e.vmWindow(full, req, outW, outH)
	}
	return nil, fmt.Errorf("unknown backend %d", be)
}

// vmWindow extracts the lifted output window from the re-emulated
// binary's full output interior.
func (e *entry) vmWindow(full []byte, req *request, outW, outH int) ([]byte, error) {
	if e.isRed {
		if len(full) != e.bins*4 {
			return nil, fmt.Errorf("vm output is %d bytes, want a %d-bin table", len(full), e.bins)
		}
		return full, nil
	}
	c := e.channels
	fw, fh := req.inst.RefDims()
	if len(full) != fw*fh*c || e.vmOX+outW > fw || e.vmOY+outH > fh {
		return nil, fmt.Errorf("vm output window (%d,%d)+%dx%d does not fit the %dx%dx%d interior",
			e.vmOX, e.vmOY, outW, outH, fw, fh, c)
	}
	out := make([]byte, 0, outW*outH*c)
	for y := 0; y < outH; y++ {
		row := full[((e.vmOY+y)*fw+e.vmOX)*c:]
		out = append(out, row[:outW*c]...)
	}
	return out, nil
}

// buildInput rebuilds the request's input interior into the entry's
// native pixel layout: a clamp-padded plane for planar kernels (the
// padding covers the whole stencil footprint, matching the legacy
// layout's own edge clamp) or an interleaved backing.  Buffers live in
// the pooled scratch; a stable request geometry reuses them with zero
// allocations.
func (e *entry) buildInput(rs *reqScratch, req *request) error {
	iw, ih := req.w+e.dInW, req.h+e.dInH
	if iw < 1 || ih < 1 {
		return fmt.Errorf("input interior %dx%d is empty", iw, ih)
	}
	data := req.pixels
	if data == nil {
		data = req.inst.InputInterior
	}
	want := iw * ih * e.channels
	if len(data) != want {
		return fmt.Errorf("input is %d bytes, want %d (%dx%dx%d interior)", len(data), want, iw, ih, e.channels)
	}
	if !e.interleaved {
		if rs.plane == nil || rs.plane.Width != iw || rs.plane.Height != ih || rs.plane.Pad != e.pad {
			rs.plane = image.NewPlane(iw, ih, e.pad)
			rs.src = ir.PlaneSource{P: rs.plane}
		}
		rs.plane.SetInterior(data)
		rs.plane.PadEdges()
	} else {
		if rs.inter == nil || rs.inter.Width != iw || rs.inter.Height != ih || rs.inter.Channels != e.channels {
			rs.inter = image.NewInterleaved(iw, ih, e.channels)
			rs.src = ir.InterleavedSource{Im: rs.inter}
		}
		rowBytes := iw * e.channels
		for y := 0; y < ih; y++ {
			copy(rs.inter.Pix[y*rs.inter.Stride:], data[y*rowBytes:(y+1)*rowBytes])
		}
	}
	// rs.src is a plane or interleaved backing, both of which map.
	rs.img, _ = lift.GenImage(rs.src)
	return nil
}

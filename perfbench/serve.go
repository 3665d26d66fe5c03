package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helium/internal/image"
	"helium/internal/legacy"
	"helium/internal/liftedkernels"
	"helium/internal/obs"
	"helium/internal/serve"
)

// serveConns is the closed loop's connection (and client goroutine)
// count: the core count of the 2-core machine the benchmark was sized
// on, so the load generator never asks for more parallelism than exists.
const serveConns = 2

// serveReps is how many servers set-up builds; setup_s is the median.
const serveReps = 5

// Throughput and latency are medians over this many windows.
const serveWindows = 9

// planePad is the clamp padding of the planes the liftedkernels layer is
// timed on; it covers every corpus stencil's footprint.
const planePad = 8

// combo is one entry of the request mix: a kernel, its client pixels and
// the bytes a fresh emulation of the legacy binary produces for them.
type combo struct {
	kernel string
	seed   uint64
	query  string
	wire   []byte // the whole request as sent
	inst   *legacy.Instance
	ref    []byte
}

// serveInputs builds the request mix, perKernel input seeds for each
// corpus kernel, with references computed through Server.Reference (the
// vm re-emulation CI trusts) by serveConns goroutines.
func serveInputs(s *serve.Server, seed uint64, w, h, perKernel int) ([]combo, error) {
	var combos []combo
	rng := rand.New(rand.NewPCG(seed, 0))
	for _, k := range legacy.Kernels() {
		for range perKernel {
			in := 1 + rng.Uint64N(1_000_000_000)
			inst := k.Instantiate(legacy.Config{Width: w, Height: h, Seed: in})
			n, err := s.InputSpec(k.Name, w, h)
			if err != nil {
				return nil, err
			}
			if n != len(inst.InputInterior) {
				return nil, fmt.Errorf("%s: server wants %d input bytes, instance has %d", k.Name, n, len(inst.InputInterior))
			}
			q := fmt.Sprintf("/v1/eval?kernel=%s&width=%d&height=%d&seed=%d", k.Name, w, h, in)
			combos = append(combos, combo{kernel: k.Name, seed: in, inst: inst, query: q, wire: wireRequest(q, inst.InputInterior)})
		}
	}
	var next atomic.Int64
	errs := make([]error, serveConns)
	var wg sync.WaitGroup
	for g := range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(combos); i = int(next.Add(1) - 1) {
				c := &combos[i]
				ref, err := s.Reference(c.kernel, w, h, c.seed)
				if err != nil {
					errs[g] = fmt.Errorf("reference for %s seed %d: %w", c.kernel, c.seed, err)
					return
				}
				c.ref = ref
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return combos, nil
}

// reqEvent is one request of a traced loop, kept for stitching to the
// server's access log.
type reqEvent struct {
	lat   time.Duration
	trace uint64
}

// loadGen is the closed-loop client of one in-process server.  Each pass
// over the mix sends every combo once, in a permutation seeded by the
// workload seed and the pass number, so which requests share the two
// connections varies while every kernel keeps an equal share.
type loadGen struct {
	addr   string
	combos []combo
	seed   uint64
}

// check holds a response to the contract: 200 and the reference bytes.
func check(c *combo, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s seed %d: status %d: %s", c.kernel, c.seed, status, strings.TrimSpace(string(body)))
	}
	if !bytes.Equal(body, c.ref) {
		return fmt.Errorf("%s seed %d: served bytes differ from Server.Reference", c.kernel, c.seed)
	}
	return nil
}

// loop is what one closed-loop run recorded.
type loop struct {
	rec    *windowed
	passes passLog
	events []reqEvent // traced runs only
	span   time.Duration
}

// run drives serveConns connections in a closed loop for budget, each
// sending its next request as soon as the previous response is read and
// checked, walking the mix from a shared counter.  A connection that
// fails is redialled for the next request.  keep retains every request's
// latency and trace id.
func (g *loadGen) run(r *report, budget time.Duration, keep bool) loop {
	var next atomic.Int64
	recs := make([]*windowed, serveConns)
	logs := make([]passLog, serveConns)
	evs := make([][]reqEvent, serveConns)
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for conn := range serveConns {
		recs[conn] = newWindowed(serveWindows, budget)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var hc *httpConn
			defer func() {
				if hc != nil {
					hc.Close()
				}
			}()
			var buf []byte
			mix := len(g.combos)
			pass, order := -1, []int(nil)
			for time.Now().Before(deadline) {
				seq := int(next.Add(1) - 1)
				if seq/mix != pass {
					pass = seq / mix
					order = rand.New(rand.NewPCG(g.seed, uint64(pass)+1)).Perm(mix)
				}
				c := &g.combos[order[seq%mix]]
				t0 := time.Now()
				var resp response
				var err error
				if hc == nil {
					hc, err = dialHTTP(g.addr)
				}
				if err == nil {
					resp, err = hc.roundTrip(c.wire, buf)
				}
				lat := time.Since(t0)
				if err == nil {
					buf = resp.body
					err = check(c, resp.status, resp.body)
				} else if hc != nil {
					hc.Close()
					hc = nil
				}
				mu.Lock()
				r.op(err)
				mu.Unlock()
				end := time.Since(start)
				recs[conn].add(end, lat, err == nil)
				logs[conn].add(pass, end)
				if keep {
					evs[conn] = append(evs[conn], reqEvent{lat: lat, trace: resp.trace})
				}
			}
		}()
	}
	wg.Wait()
	l := loop{rec: recs[0], passes: logs[0], span: time.Since(start)}
	for conn := range serveConns {
		if conn > 0 {
			l.rec.merge(recs[conn])
			l.passes.merge(&logs[conn])
		}
		l.events = append(l.events, evs[conn]...)
	}
	return l
}

// passLog records, per pass over the mix, how many of its requests
// completed and when the last one did.
type passLog struct {
	n   []int
	end []time.Duration
}

func (p *passLog) grow(pass int) {
	for len(p.n) <= pass {
		p.n, p.end = append(p.n, 0), append(p.end, 0)
	}
}

func (p *passLog) add(pass int, end time.Duration) {
	p.grow(pass)
	p.n[pass]++
	p.end[pass] = max(p.end[pass], end)
}

func (p *passLog) merge(o *passLog) {
	p.grow(len(o.n) - 1)
	for i := range o.n {
		p.n[i] += o.n[i]
		p.end[i] = max(p.end[i], o.end[i])
	}
}

// times is the wall time of each complete pass over the mix: from the
// last completion of one pass to the last completion of the next.
func (p *passLog) times(mix int) []float64 {
	var out []float64
	for i := 1; i < len(p.n) && p.n[i] == mix && p.n[i-1] == mix; i++ {
		out = append(out, (p.end[i] - p.end[i-1]).Seconds())
	}
	return out
}

// accessLog collects the server's log lines for stitching.
type accessLog struct {
	mu sync.Mutex
	b  []byte
}

func (a *accessLog) Write(p []byte) (int, error) {
	a.mu.Lock()
	a.b = append(a.b, p...)
	a.mu.Unlock()
	return len(p), nil
}

func (a *accessLog) take() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.b
	a.b = nil
	return b
}

// logLine is the server-side view of one request, from its access-log
// line.
type logLine struct {
	backend                string
	queueWait, exec, total float64 // ms
}

// parseAccessLog indexes the eval lines by trace id.
func parseAccessLog(b []byte) map[uint64]logLine {
	out := map[uint64]logLine{}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.Contains(line, " msg=eval ") {
			continue
		}
		var id uint64
		var ll logLine
		for _, f := range strings.Fields(line) {
			k, v, _ := strings.Cut(f, "=")
			dur := func() float64 {
				x, _ := strconv.ParseFloat(strings.TrimSuffix(v, "ms"), 64)
				return x
			}
			switch k {
			case "trace":
				id, _ = strconv.ParseUint(v, 16, 64)
			case "backend":
				ll.backend = v
			case "queue_wait":
				ll.queueWait = dur()
			case "exec":
				ll.exec = dur()
			case "total":
				ll.total = dur()
			}
		}
		out[id] = ll
	}
	return out
}

// rig is an in-process server with default options, except for a
// logger that stays off until a traced segment turns the access log on,
// serving on a loopback listener, and its load generator.
type rig struct {
	s      *serve.Server
	alog   *accessLog
	logger *obs.Logger
	combos []combo
	g      *loadGen
	served chan error
}

// startServe builds reps servers (each serve.New + Warm) and keeps the
// last; setups holds each build's time.  It then builds the request mix
// with its references and starts serving.
func startServe(seed uint64, w, h, perKernel, reps int) (rg *rig, setups []float64, err error) {
	rg = &rig{alog: &accessLog{}, served: make(chan error, 1)}
	rg.logger = obs.NewLogger(rg.alog, obs.LevelOff)
	for range reps {
		t0 := time.Now()
		rg.s = serve.New(serve.Options{Logger: rg.logger})
		rg.s.Warm()
		setups = append(setups, time.Since(t0).Seconds())
	}
	if rg.combos, err = serveInputs(rg.s, seed, w, h, perKernel); err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go func() { rg.served <- rg.s.Serve(ln) }()
	rg.g = &loadGen{addr: ln.Addr().String(), combos: rg.combos, seed: seed}
	return rg, setups, nil
}

// stop shuts the server down and waits for Serve to return.
func (rg *rig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rg.s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
	}
	if err := <-rg.served; err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
}

// traced runs the closed loop for budget with the access log on and
// reports the serve layer, each round trip stitched to its access-log
// line by its X-Helium-Trace id.
func (rg *rig) traced(r *report, budget time.Duration) loop {
	rg.alog.take()
	rg.logger.SetLevel(obs.LevelInfo)
	l := rg.g.run(r, budget, true)
	rg.logger.SetLevel(obs.LevelOff)
	serveLayer(r, l.events, parseAccessLog(rg.alog.take()))
	return l
}

// outOfLoop reports what is measured outside the closed loop: the
// server's Stats counters, the handler without a socket and the
// generated kernels alone.
func (rg *rig) outOfLoop(r *report) error {
	st := rg.s.Stats()
	r.set("serve.degraded", "count", float64(st.Degraded))
	r.set("serve.shed", "count", float64(st.Shed))
	r.set("serve.limited", "count", float64(st.Limited))
	return handlerLayer(r, rg.s, rg.combos)
}

// runServe drives an in-process server in a closed loop.
func runServe(o opts, w, h, perKernel int) (*report, error) {
	r := newReport()
	rg, setups, err := startServe(o.seed, w, h, perKernel, serveReps)
	if err != nil {
		return nil, err
	}
	defer rg.stop()
	g := rg.g
	r.Notes["mix"] = len(rg.combos)

	// A second of checked requests fills the server's pools and the
	// connections; a collection then clears set-up's garbage (five
	// warmed registries) so it is not swept on the timed phase's clock.
	g.run(r, time.Second, false)
	runtime.GC()

	if !o.trace {
		heap := startHeapPeak()
		l := g.run(r, o.seconds, false)
		peak := heap.Stop()
		rates, p50s, p99s := l.rec.rates(l.span), l.rec.quantilesMS(0.50), l.rec.quantilesMS(0.99)
		ok, all := l.rec.counts()
		r.set("setup_s", "s", median(setups))
		r.set("lift_pass_s", "s", median(l.passes.times(len(rg.combos))))
		r.set("throughput_per_s", "1/s", median(rates))
		r.set("latency_p50_ms", "ms", median(p50s))
		r.set("latency_p99_ms", "ms", median(p99s))
		r.set("verified_frac", "frac", float64(ok)/float64(all))
		r.set("heap_peak_mb", "MB", peak)
		r.Notes["latency_samples"] = all
		r.Notes["window_throughput_per_s"] = rates
		r.Notes["window_p50_ms"] = p50s
		r.Notes["window_p99_ms"] = p99s
		return r, nil
	}

	// Traced: an untraced segment for the overhead baseline, then the
	// same loop with the access log on.
	base := g.run(r, o.seconds/2, false)
	before := readRT()
	traced := rg.traced(r, o.seconds/2)
	r.runtimeLayer(before, readRT(), len(traced.events))
	r.set("obs.trace_overhead_frac", "frac", traced.rec.quantileMS(0.5)/base.rec.quantileMS(0.5)-1)
	if err := rg.outOfLoop(r); err != nil {
		return nil, err
	}
	return r, nil
}

// logQuantumMS is the access log's duration resolution: 1µs.
const logQuantumMS = 0.001

// serveLayer joins each client round trip to its server access-log line
// and reports the request's parts: queue wait, execute, server total and
// transport (round trip minus server total: HTTP, body copies, codec).
func serveLayer(r *report, evs []reqEvent, lines map[uint64]logLine) {
	parts := map[string][]float64{}
	sums := map[string]float64{}
	generated, missing, late := 0, 0, 0
	for _, e := range evs {
		ll, ok := lines[e.trace]
		if !ok {
			missing++
			continue
		}
		rt := ms(e.lat)
		if ll.total > rt {
			late++
		}
		if ll.backend == "generated" {
			generated++
		}
		for k, v := range map[string]float64{"roundtrip": rt, "total": ll.total, "queue_wait": ll.queueWait, "exec": ll.exec, "transport": rt - ll.total} {
			parts[k] = append(parts[k], v)
			sums[k] += v
		}
	}
	if missing > 0 {
		r.problem("%d of %d requests have no access-log line", missing, len(evs))
	}
	if late > 0 {
		r.problem("%d requests report a server total above the client round trip", late)
	}
	for k, v := range parts {
		// The access log writes durations truncated to whole
		// microseconds; the client's round trip (and so transport) keeps
		// nanoseconds.
		q := func(p float64) float64 { return quantileTrunc(v, p, logQuantumMS) }
		if k == "roundtrip" || k == "transport" {
			q = func(p float64) float64 { return quantile(v, p) }
		}
		r.set("serve."+k+"_p50_ms", "ms", q(0.50))
		r.set("serve."+k+"_p99_ms", "ms", q(0.99))
	}
	stitched := len(evs) - missing
	r.set("serve.generated_frac", "frac", float64(generated)/float64(max(stitched, 1)))
	r.Notes["stitched_requests"] = stitched
	r.Notes["roundtrip_shares"] = map[string]float64{
		"exec":       sums["exec"] / sums["roundtrip"],
		"queue_wait": sums["queue_wait"] / sums["roundtrip"],
		"transport":  sums["transport"] / sums["roundtrip"],
	}
}

// handlerLayer times the handler without a socket and the generated
// kernels alone on the request pixels; both outputs are held to the
// reference bytes.
func handlerLayer(r *report, s *serve.Server, combos []combo) error {
	var handler []float64
	timed := map[string]bool{}
	for i := range combos {
		c := &combos[i]
		var rec *httptest.ResponseRecorder
		for rep, t0 := 0, time.Now(); rep < 5 || time.Since(t0) < 25*time.Millisecond; rep++ {
			req, err := http.NewRequest(http.MethodPost, c.query, bytes.NewReader(c.inst.InputInterior))
			if err != nil {
				return err
			}
			rec = httptest.NewRecorder()
			t1 := time.Now()
			s.Handler().ServeHTTP(rec, req)
			handler = append(handler, ms(time.Since(t1)))
			if err := check(c, rec.Code, rec.Body.Bytes()); err != nil {
				return fmt.Errorf("handler call: %w", err)
			}
		}
		if !timed[c.kernel] {
			timed[c.kernel] = true
			w, h, err := outDims(rec.Header().Get("X-Helium-Output"), c.inst)
			if err != nil {
				return err
			}
			if err := kernelLayer(r, c, w, h); err != nil {
				return err
			}
		}
	}
	r.set("serve.call.ServeHTTP_p50_ms", "ms", quantile(handler, 0.5))
	var ns []float64
	for _, k := range legacy.Kernels() {
		ns = append(ns, r.Metrics["liftedkernels.ns_per_sample."+k.Name].Value)
	}
	r.set("liftedkernels.ns_per_sample._geomean", "ns", geomean(ns))
	return nil
}

// outDims reads the evaluated extents from a response's X-Helium-Output
// header; a reduction ("bins:N") evaluates over the input interior.
func outDims(hdr string, inst *legacy.Instance) (int, int, error) {
	if strings.HasPrefix(hdr, "bins:") {
		return inst.Width, inst.Height, nil
	}
	ws, hs, ok := strings.Cut(hdr, "x")
	w, err1 := strconv.Atoi(ws)
	h, err2 := strconv.Atoi(hs)
	if !ok || err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("unparsable X-Helium-Output %q", hdr)
	}
	return w, h, nil
}

// kernelLayer times the checked-in generated kernel's serving entry point
// on one combo's pixels, in the server's input layout.
func kernelLayer(r *report, c *combo, w, h int) error {
	gk, ok := liftedkernels.Lookup(c.kernel)
	if !ok {
		return fmt.Errorf("%s: no generated kernel", c.kernel)
	}
	inst := c.inst
	var img liftedkernels.Image
	if inst.Interleaved {
		im := image.NewInterleaved(inst.Width, inst.Height, inst.Channels)
		row := inst.Width * inst.Channels
		for y := range inst.Height {
			copy(im.Pix[y*im.Stride:], inst.InputInterior[y*row:(y+1)*row])
		}
		pix, base, stride, step := im.Flat()
		img = liftedkernels.Image{Pix: pix, Base: base, Stride: stride, PixStep: step, ChanStep: 1}
	} else {
		p := image.NewPlane(inst.Width, inst.Height, planePad)
		p.SetInterior(inst.InputInterior)
		p.PadEdges()
		pix, base, stride := p.Flat()
		img = liftedkernels.Image{Pix: pix, Base: base, Stride: stride, PixStep: 1}
	}
	sc := new(liftedkernels.Scratch)
	out, err := gk.EvalTunedInto(sc, &img, w, h)
	if err != nil {
		return fmt.Errorf("%s: generated eval: %w", c.kernel, err)
	}
	if !bytes.Equal(out, c.ref) {
		return fmt.Errorf("%s: generated kernel output differs from the served bytes", c.kernel)
	}
	// About 25ms of calls, at least 5.
	t0 := time.Now()
	gk.EvalTunedInto(sc, &img, w, h)
	ds := make([]float64, min(max(int(25*time.Millisecond/max(time.Since(t0), 1)), 5), 10000))
	for i := range ds {
		t1 := time.Now()
		gk.EvalTunedInto(sc, &img, w, h)
		ds[i] = float64(time.Since(t1))
	}
	r.set("liftedkernels.ns_per_sample."+c.kernel, "ns", median(ds)/float64(len(out)))
	allocs := testing.AllocsPerRun(20, func() { gk.EvalTunedInto(sc, &img, w, h) })
	r.set("liftedkernels.allocs_per_call", "count", max(allocs, r.Metrics["liftedkernels.allocs_per_call"].Value))
	return nil
}

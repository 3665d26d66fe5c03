package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"helium/internal/faultpoint"
)

// newBodyServer starts a server and an HTTP listener in front of it, both
// torn down with the test.
func newBodyServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	faultpoint.Reset()
	s := New(opts)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		faultpoint.Reset()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// wireConn is a raw keep-alive HTTP/1.1 client connection: it writes
// prerendered requests and reads each response body into a caller
// buffer, so the client side allocates nothing that grows with the
// bodies it moves.
type wireConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialWire(t *testing.T, ts *httptest.Server) *wireConn {
	t.Helper()
	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &wireConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// wirePost renders a POST of body to the eval endpoint; declared is the
// Content-Length header's value.
func wirePost(query string, declared int, body []byte) []byte {
	head := fmt.Sprintf("POST /v1/eval?%s HTTP/1.1\r\nHost: heliumd\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", query, declared)
	return append([]byte(head), body...)
}

// roundTrip sends wire and reads the response, its body into out's
// capacity.
func (w *wireConn) roundTrip(t *testing.T, wire, out []byte) (int, []byte) {
	t.Helper()
	if _, err := w.c.Write(wire); err != nil {
		t.Fatal(err)
	}
	return w.readResponse(t, out)
}

func (w *wireConn) readResponse(t *testing.T, out []byte) (int, []byte) {
	t.Helper()
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b := out[:0]
	for {
		if len(b) == cap(b) {
			t.Fatalf("response body exceeds the %d-byte buffer", cap(b))
		}
		n, err := resp.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return resp.StatusCode, b
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireAllocsFlatInImageSize is the allocation gate on the whole
// served request, wire included: over one keep-alive connection, a
// request at 512x384 (a ~200 KB body and response) may allocate at most
// 4 KB more than one at 48x32.  Anything growing with the image — a body
// read into a fresh slice, a chunk-framed response — fails it.
func TestWireAllocsFlatInImageSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse")
	}
	s, ts := newBodyServer(t, Options{Workers: 1})
	conn := dialWire(t, ts)

	// perRequest is the fewest bytes allocated per request over three
	// measured rounds, so a stray GC emptying a pool in one round does
	// not count.
	perRequest := func(w, h int) float64 {
		n, err := s.InputSpec("brighten", w, h)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 31)
		}
		wire := wirePost(fmt.Sprintf("kernel=brighten&width=%d&height=%d", w, h), n, body)
		out := make([]byte, 0, 2*n+64)
		send := func() {
			status, got := conn.roundTrip(t, wire, out)
			if status != http.StatusOK || len(got) == 0 {
				t.Fatalf("%dx%d: status %d with %d body bytes", w, h, status, len(got))
			}
		}
		for i := 0; i < 50; i++ { // warm the body, job, scratch and plane pools
			send()
		}
		const reqs = 100
		best := math.Inf(1)
		var before, after runtime.MemStats
		for round := 0; round < 3; round++ {
			runtime.ReadMemStats(&before)
			for i := 0; i < reqs; i++ {
				send()
			}
			runtime.ReadMemStats(&after)
			best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/reqs)
		}
		return best
	}
	small := perRequest(48, 32)
	large := perRequest(512, 384)
	t.Logf("bytes allocated per request: %.0f at 48x32, %.0f at 512x384", small, large)
	if large-small > 4096 {
		t.Fatalf("a 512x384 request allocates %.0f bytes more than a 48x32 one (limit 4096): an allocation grows with the image",
			large-small)
	}
}

// TestAbandonedJobKeepsItsBody times a request out while the worker still
// executes it: the handler's 504 must leave the body buffer with the job,
// later requests must not be handed it, and the worker's release returns
// it exactly once.
func TestAbandonedJobKeepsItsBody(t *testing.T) {
	s, ts := newBodyServer(t, Options{
		Workers: 2, Timeout: 80 * time.Millisecond, SlowBackendDelay: 1500 * time.Millisecond,
	})
	var mu sync.Mutex
	var made []*bodyBuf
	s.bodyPool.New = func() any {
		b := new(bodyBuf)
		mu.Lock()
		made = append(made, b)
		mu.Unlock()
		return b
	}
	const w, h = 40, 24
	if _, err := s.InputSpec("brighten", w, h); err != nil {
		t.Fatal(err)
	}
	type probe struct {
		seed       uint64
		body, want []byte
	}
	var probes []probe
	for seed := uint64(1); seed <= 6; seed++ {
		want, err := s.Reference("brighten", w, h, seed)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{seed, patternPixels(t, "brighten", w, h, seed), want})
	}

	faultpoint.Enable(fpSlowBackend)
	r := eval(t, ts, "brighten", w, h, 1, probes[0].body)
	faultpoint.Reset() // the first worker is inside the injected delay
	if r.status != http.StatusGatewayTimeout {
		t.Fatalf("slow request got %d, want 504 (%v)", r.status, r.errJSON)
	}
	mu.Lock()
	if len(made) != 1 {
		t.Fatalf("%d body buffers after the first request, want 1", len(made))
	}
	abandoned := made[0]
	mu.Unlock()
	if abandoned.pooled.Load() {
		t.Fatal("the 504 handler returned the body while the worker still owns the job")
	}

	// The second worker serves these while the first still sleeps.
	for _, p := range probes[1:] {
		r := eval(t, ts, "brighten", w, h, p.seed, p.body)
		if r.status != http.StatusOK || !bytes.Equal(r.body, p.want) {
			t.Fatalf("seed %d during the abandoned job: status %d, reference bytes %v", p.seed, r.status, bytes.Equal(r.body, p.want))
		}
	}
	if abandoned.pooled.Load() {
		t.Fatal("the abandoned job's body went back to the pool before the worker finished")
	}

	deadline := time.Now().Add(10 * time.Second)
	for !abandoned.pooled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the worker never returned the abandoned job's body")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// No request has run since the release, so the buffer still holds
	// exactly what the abandoned request sent.
	if !bytes.Equal(abandoned.b, probes[0].body) {
		t.Fatal("a later request overwrote the abandoned job's body")
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeout counter %d, want 1", st.Timeouts)
	}
}

// TestConcurrentBodiesStayDistinct sends many concurrent POSTs with
// distinct bodies of several lengths through the pooled read: each must
// come back as its own reference bytes.
func TestConcurrentBodiesStayDistinct(t *testing.T) {
	s, ts := newBodyServer(t, Options{PerKernel: 64})
	type call struct {
		url        string
		body, want []byte
	}
	var calls []call
	kernels := []string{"brighten", "boxblur3", "histeq"}
	geoms := [][2]int{{48, 20}, {52, 30}}
	for i := 0; i < 36; i++ {
		k, g, seed := kernels[i%len(kernels)], geoms[i%len(geoms)], uint64(100+i)
		want, err := s.Reference(k, g[0], g[1], seed)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{
			url:  fmt.Sprintf("%s/v1/eval?kernel=%s&width=%d&height=%d", ts.URL, k, g[0], g[1]),
			body: patternPixels(t, k, g[0], g[1], seed),
			want: want,
		})
	}

	const clients = 6
	errs := make(chan error, len(calls))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(calls); i += clients {
				resp, err := http.Post(calls[i].url, "application/octet-stream", bytes.NewReader(calls[i].body))
				if err != nil {
					errs <- err
					continue
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					errs <- err
				case resp.StatusCode != http.StatusOK:
					errs <- fmt.Errorf("call %d: status %d: %s", i, resp.StatusCode, got)
				case !bytes.Equal(got, calls[i].want):
					errs <- fmt.Errorf("call %d (%s): served bytes are not its own reference", i, calls[i].url)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBodyEdgeCases pins the status and message of every body shape the
// pooled read must treat as the unpooled one did.
func TestBodyEdgeCases(t *testing.T) {
	// A 64x64 limit caps bodies at (64+16)*(64+16)*4 = 25600 bytes.
	s, ts := newBodyServer(t, Options{MaxWidth: 64, MaxHeight: 64})
	const w, h = 40, 24
	n, err := s.InputSpec("brighten", w, h)
	if err != nil {
		t.Fatal(err)
	}
	body := patternPixels(t, "brighten", w, h, 3)
	want, err := s.Reference("brighten", w, h, 3)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/eval?kernel=brighten&width=%d&height=%d", ts.URL, w, h)
	const tooLarge = "request body exceeds the input size limit"
	wrongLen := func(got int) string { return fmt.Sprintf("input is %d bytes, want %d (", got, n) }
	// chunked hides the length, so the client frames the body in chunks.
	chunked := func(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} }

	cases := []struct {
		name   string
		body   io.Reader
		status int
		msg    string // error-message prefix; "" for a 200
	}{
		{"oversize", bytes.NewReader(make([]byte, 30000)), 413, tooLarge},
		{"oversize chunked", chunked(make([]byte, 30000)), 413, tooLarge},
		{"wrong length", bytes.NewReader(body[:n-5]), 400, wrongLen(n - 5)},
		{"wrong length chunked", chunked(append(bytes.Clone(body), 1, 2, 3)), 400, wrongLen(n + 3)},
		{"chunked", chunked(body), 200, ""},
	}
	for _, tc := range cases {
		resp, err := http.Post(url, "application/octet-stream", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		checkBodyResponse(t, tc.name, resp.StatusCode, got, tc.status, tc.msg, want)
	}

	// A short body: the declared length is more than the client sends
	// before it closes its side.
	conn := dialWire(t, ts)
	if _, err := conn.c.Write(wirePost(fmt.Sprintf("kernel=brighten&width=%d&height=%d", w, h), n, body[:n/2])); err != nil {
		t.Fatal(err)
	}
	conn.c.(*net.TCPConn).CloseWrite()
	status, got := conn.readResponse(t, make([]byte, 0, 4096))
	checkBodyResponse(t, "short", status, got, 413, tooLarge, nil)
}

// checkBodyResponse holds one response to its expected status and either
// the reference bytes (200) or a typed error whose message starts with msg.
func checkBodyResponse(t *testing.T, name string, status int, body []byte, wantStatus int, msg string, want []byte) {
	t.Helper()
	if status != wantStatus {
		t.Errorf("%s: status %d, want %d (%s)", name, status, wantStatus, body)
		return
	}
	if wantStatus == http.StatusOK {
		if !bytes.Equal(body, want) {
			t.Errorf("%s: served bytes differ from the reference", name)
		}
		return
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.HasPrefix(e["error"], msg) {
		t.Errorf("%s: error body %q, want a message starting %q", name, body, msg)
	}
}

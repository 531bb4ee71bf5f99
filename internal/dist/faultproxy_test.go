package dist

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// FaultProxy is the in-process fault-injection harness of this package's
// tests: an http.Handler that fronts one worker and misbehaves on command.
// The fleet tests mount it in an httptest.Server, register the proxy's URL
// with the coordinator instead of the worker's, and then prove that
// dropped connections, injected 500s, added latency, and a worker "killed"
// mid-sweep change wall-clock and retry counts but never the bytes of the
// merged result.
//
// Faults apply to every proxied request, /healthz included, so eviction
// and re-admission see exactly what a real sick worker would show them.
type FaultProxy struct {
	backend *url.URL
	client  *http.Client

	mu     sync.Mutex
	fail   int           // next n requests answer 500 without reaching the backend
	drop   int           // next n requests abort the connection mid-request
	delay  time.Duration // added latency before every proxied request
	killed bool          // all requests abort, as if the process were gone

	requests atomic.Int64 // every request seen, fault-injected or proxied
	faulted  atomic.Int64 // requests that were failed, dropped, or killed
}

// NewFaultProxy returns a proxy forwarding to the worker at backendURL.
func NewFaultProxy(backendURL string) (*FaultProxy, error) {
	base, err := ParseWorkerURL(backendURL)
	if err != nil {
		return nil, err
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	return &FaultProxy{backend: u, client: &http.Client{}}, nil
}

// Fail makes the next n requests answer 500 without reaching the backend.
func (p *FaultProxy) Fail(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fail = n
}

// Drop makes the next n requests abort their connection mid-request — the
// client sees a transport error, as when a process dies with the request
// in flight.
func (p *FaultProxy) Drop(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.drop = n
}

// Delay adds fixed latency before every proxied request (0 removes it).
func (p *FaultProxy) Delay(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.delay = d
}

// Kill makes every request abort its connection until Revive — the worker
// is dead as far as the fleet can tell.
func (p *FaultProxy) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.killed = true
}

// Revive undoes Kill.
func (p *FaultProxy) Revive() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.killed = false
}

// Requests reports how many requests the proxy has seen.
func (p *FaultProxy) Requests() int64 { return p.requests.Load() }

// Faulted reports how many requests were failed, dropped, or killed.
func (p *FaultProxy) Faulted() int64 { return p.faulted.Load() }

// next decides the fate of one request under the current fault settings.
func (p *FaultProxy) next() (verdict string, delay time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.killed:
		return "kill", 0
	case p.drop > 0:
		p.drop--
		return "drop", p.delay
	case p.fail > 0:
		p.fail--
		return "fail", p.delay
	default:
		return "proxy", p.delay
	}
}

func (p *FaultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	verdict, delay := p.next()
	if delay > 0 && verdict != "kill" {
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
	}
	switch verdict {
	case "kill", "drop":
		p.faulted.Add(1)
		// ErrAbortHandler resets the connection: the client sees a
		// transport error, not an HTTP status.
		panic(http.ErrAbortHandler)
	case "fail":
		p.faulted.Add(1)
		http.Error(w, `{"error":"injected fault"}`, http.StatusInternalServerError)
		return
	}

	out := *r.URL
	out.Scheme = p.backend.Scheme
	out.Host = p.backend.Host
	req, err := http.NewRequestWithContext(r.Context(), r.Method, out.String(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	// A copy error here means the client hung up mid-stream; the status
	// line is already on the wire, so there is no one left to tell.
	_, _ = io.Copy(w, resp.Body)
}

// faultRig is a FaultProxy in front of a trivial backend that counts the
// requests actually reaching it.
type faultRig struct {
	proxy   *FaultProxy
	url     string
	reached *atomic.Int64
}

func newFaultRig(t *testing.T) *faultRig {
	t.Helper()
	var reached atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
		io.WriteString(w, "ok:"+r.URL.Path)
	}))
	t.Cleanup(backend.Close)
	proxy, err := NewFaultProxy(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	t.Cleanup(front.Close)
	return &faultRig{proxy: proxy, url: front.URL, reached: &reached}
}

func (f *faultRig) get(t *testing.T) (int, string, error) {
	t.Helper()
	resp, err := http.Get(f.url + "/healthz")
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), nil
}

// TestFaultProxyTransparent: with no faults armed the proxy forwards
// verbatim, path included.
func TestFaultProxyTransparent(t *testing.T) {
	f := newFaultRig(t)
	code, body, err := f.get(t)
	if err != nil || code != http.StatusOK || body != "ok:/healthz" {
		t.Fatalf("proxied GET = %d %q, %v", code, body, err)
	}
	if f.reached.Load() != 1 || f.proxy.Requests() != 1 || f.proxy.Faulted() != 0 {
		t.Errorf("counters: backend=%d requests=%d faulted=%d", f.reached.Load(), f.proxy.Requests(), f.proxy.Faulted())
	}
}

// TestFaultProxyFail: Fail(n) answers 500 exactly n times without touching
// the backend, then recovers.
func TestFaultProxyFail(t *testing.T) {
	f := newFaultRig(t)
	f.proxy.Fail(2)
	for i := 0; i < 2; i++ {
		code, _, err := f.get(t)
		if err != nil || code != http.StatusInternalServerError {
			t.Fatalf("fault %d: %d, %v; want injected 500", i, code, err)
		}
	}
	if f.reached.Load() != 0 {
		t.Errorf("injected 500s reached the backend %d times", f.reached.Load())
	}
	if code, _, err := f.get(t); err != nil || code != http.StatusOK {
		t.Fatalf("after Fail budget: %d, %v; want recovery", code, err)
	}
	if f.proxy.Faulted() != 2 {
		t.Errorf("Faulted = %d, want 2", f.proxy.Faulted())
	}
}

// TestFaultProxyDrop: Drop(n) aborts the connection so the client sees a
// transport error, not an HTTP status.
func TestFaultProxyDrop(t *testing.T) {
	f := newFaultRig(t)
	f.proxy.Drop(1)
	if _, _, err := f.get(t); err == nil {
		t.Fatal("dropped request produced a response; want a transport error")
	}
	if code, _, err := f.get(t); err != nil || code != http.StatusOK {
		t.Fatalf("after Drop budget: %d, %v; want recovery", code, err)
	}
}

// TestFaultProxyKillRevive: Kill aborts everything until Revive.
func TestFaultProxyKillRevive(t *testing.T) {
	f := newFaultRig(t)
	f.proxy.Kill()
	for i := 0; i < 3; i++ {
		if _, _, err := f.get(t); err == nil {
			t.Fatalf("request %d during Kill succeeded", i)
		}
	}
	f.proxy.Revive()
	if code, _, err := f.get(t); err != nil || code != http.StatusOK {
		t.Fatalf("after Revive: %d, %v", code, err)
	}
	if f.proxy.Faulted() != 3 {
		t.Errorf("Faulted = %d, want 3", f.proxy.Faulted())
	}
}

// TestFaultProxyDelay: Delay adds at least the configured latency.
func TestFaultProxyDelay(t *testing.T) {
	f := newFaultRig(t)
	f.proxy.Delay(50 * time.Millisecond)
	start := time.Now()
	if code, _, err := f.get(t); err != nil || code != http.StatusOK {
		t.Fatalf("delayed GET = %d, %v", code, err)
	}
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Errorf("delayed request returned in %v, want >= 50ms", took)
	}
	f.proxy.Delay(0)
	start = time.Now()
	f.get(t)
	if took := time.Since(start); took > 40*time.Millisecond {
		t.Errorf("request after Delay(0) took %v; delay not removed", took)
	}
}

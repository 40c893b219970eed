package rpc

import (
	"bytes"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"met/internal/obs"
)

// Middleware wraps a handler; chain applies a list so the first element
// is outermost (runs first on the way in, last on the way out).
type Middleware func(http.Handler) http.Handler

func chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// statusWriter records the status code a handler sent.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// withRecovery is the outermost ring: a handler panic becomes a 500
// and a stack trace in the log, never a dead process — one bad request
// must not take a region server down.
func withRecovery(lg *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if p := recover(); p != nil {
					lg.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
					writeError(w, http.StatusInternalServerError, "panic", fmt.Sprint(p))
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// withLogging writes one line per request: method, path, status,
// duration.
func withLogging(lg *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			lg.Printf("%s %s %d %s", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond))
		})
	}
}

// Metrics is the per-op latency surface: one lock-free obs.Histogram
// per route, created on first hit. The map is guarded by mu; recording
// itself is atomic (the serving path never blocks on another
// recorder).
type Metrics struct {
	mu  sync.Mutex
	ops map[string]*obs.Histogram
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return &Metrics{ops: make(map[string]*obs.Histogram)} }

// hist returns (creating if needed) the histogram for one route.
func (m *Metrics) hist(op string) *obs.Histogram {
	m.mu.Lock()
	h := m.ops[op]
	if h == nil {
		h = &obs.Histogram{}
		m.ops[op] = h
	}
	m.mu.Unlock()
	return h
}

// WriteProm renders the registry in Prometheus text format.
func (m *Metrics) WriteProm(w *obs.MetricWriter) {
	m.mu.Lock()
	ops := make([]string, 0, len(m.ops))
	for op := range m.ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	hists := make([]*obs.Histogram, len(ops))
	for i, op := range ops {
		hists[i] = m.ops[op]
	}
	m.mu.Unlock()
	w.Header("rpc_op_latency_seconds", "RPC handler latency by op", "summary")
	for i, op := range ops {
		s := hists[i].Snapshot()
		w.Summary("rpc_op_latency_seconds", []obs.Label{{Name: "op", Value: op}}, &s)
	}
}

// withMetrics records every request's latency under the route it
// matches — the pattern minus its method: op="/node/get" — or under
// "other" when it matches none, so the histogram set is bounded by the
// route table whatever paths clients probe. debug is mounted on mux as
// "/"; that match is resolved against debug's own routes. The route is
// matched here rather than read back from r.Pattern afterwards: under a
// deadline the mux runs on the deadline ring's goroutine, and a request
// that times out would race its write. The record is deferred so a
// panicking handler (resolved to a 500 by the outer recovery ring)
// still lands in its route's histogram.
func withMetrics(m *Metrics, mux, debug *http.ServeMux) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			_, route := mux.Handler(r)
			if route == "/" {
				_, route = debug.Handler(r)
			}
			if _, path, ok := strings.Cut(route, " "); ok {
				route = path
			}
			if route == "" {
				route = "other"
			}
			defer func() { m.hist(route).Record(time.Since(start)) }()
			next.ServeHTTP(w, r)
		})
	}
}

// bufferedResponse is an http.ResponseWriter the deadline ring hands
// the handler: everything is staged in memory and copied to the real
// writer only if the handler beats the deadline, so a timeout reply
// never interleaves with handler writes.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{header: make(http.Header)}
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.body.Write(p)
}

// copyTo flushes the staged reply to the real writer.
func (b *bufferedResponse) copyTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if b.status == 0 {
		b.status = http.StatusOK
	}
	w.WriteHeader(b.status)
	_, _ = w.Write(b.body.Bytes())
}

// withDeadline honors X-Met-Deadline (milliseconds of remaining call
// budget): the handler runs on its own goroutine against a buffered
// response; if the budget expires first the client gets 504 and the
// handler's eventual output is discarded. Requests without the header
// run inline, paying nothing.
func withDeadline() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ms, err := strconv.ParseInt(r.Header.Get(HeaderDeadline), 10, 64)
			if err != nil || ms <= 0 {
				if err == nil {
					// An already-expired budget: don't start work the
					// caller has given up on.
					writeError(w, http.StatusGatewayTimeout, CodeDeadline, "deadline already expired")
					return
				}
				next.ServeHTTP(w, r)
				return
			}
			buf := newBufferedResponse()
			done := make(chan struct{})
			var panicked any
			go func() {
				defer close(done)
				// The handler runs on this goroutine, outside the recovery
				// ring's stack: a panic here would kill the whole process if
				// it weren't re-caught and re-raised on the serving stack.
				defer func() { panicked = recover() }()
				next.ServeHTTP(buf, r)
			}()
			timer := time.NewTimer(time.Duration(ms) * time.Millisecond)
			defer timer.Stop()
			select {
			case <-done:
				if panicked != nil {
					panic(panicked) // resolved to a 500 by withRecovery
				}
				buf.copyTo(w)
			case <-timer.C:
				writeError(w, http.StatusGatewayTimeout, CodeDeadline,
					fmt.Sprintf("deadline of %dms exceeded", ms))
			}
		})
	}
}

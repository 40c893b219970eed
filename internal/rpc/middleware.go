package rpc

import (
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sort"
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

// Unwrap lets http.ResponseController reach the writer beneath, so the
// stream upgrade can hijack its connection through the chain.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

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
// per HTTP route, created on first hit, and one per data-plane op,
// created with its server. The map is guarded by mu; recording
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
// matched — the pattern minus its method: op="/master/layout" — or under
// "other" when it matched none, so the histogram set is bounded by the
// route table whatever paths clients probe. The route is read back from
// r.Pattern after the handler: each mux sets it on the request it
// serves, so the debug plane's nested mux, mounted as "/", refines that
// match to its own route. The record is deferred so a panicking handler
// (resolved to a 500 by the outer recovery ring) still lands in its
// route's histogram.
func withMetrics(m *Metrics) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			defer func() {
				route := r.Pattern
				if _, path, ok := strings.Cut(route, " "); ok {
					route = path
				}
				if route == "" {
					route = "other"
				}
				m.hist(route).Record(time.Since(start))
			}()
			next.ServeHTTP(w, r)
		})
	}
}

package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugConfig supplies the data sources behind a debug plane. Nil
// fields disable the corresponding endpoint (it serves 404).
type DebugConfig struct {
	// Metrics writes the /metrics page. A write error mid-page can only
	// drop the connection, which scrapers treat as a failed scrape.
	Metrics func(mw *MetricWriter)
	// Health returns nil when the serving substrate is healthy; the
	// error text becomes the 503 body otherwise.
	Health func() error
	// SlowOps returns the current slow-op log contents for
	// /debug/slowops.
	SlowOps func() []SlowOp
}

// NewMux builds the debug-plane handler: /metrics (Prometheus text
// exposition), /healthz, /debug/vars (expvar), /debug/slowops (JSON)
// and the net/http/pprof family under /debug/pprof/. The pprof
// handlers are mounted explicitly rather than through the package's
// DefaultServeMux side effects, so importing obs never changes the
// global mux.
func NewMux(cfg DebugConfig) *http.ServeMux {
	mux := http.NewServeMux()
	if cfg.Metrics != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			cfg.Metrics(NewMetricWriter(w))
		})
	}
	if cfg.Health != nil {
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			if err := cfg.Health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
		})
	}
	if cfg.SlowOps != nil {
		mux.HandleFunc("/debug/slowops", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			ops := cfg.SlowOps()
			if ops == nil {
				ops = []SlowOp{}
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(ops)
		})
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug plane bound to one listener.
type DebugServer struct {
	lis net.Listener
	srv *http.Server
}

// ServeDebug binds addr (host:port; use ":0" for an ephemeral port)
// and serves the debug plane for cfg in a background goroutine until
// Close.
func ServeDebug(addr string, cfg DebugConfig) (*DebugServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	srv := &http.Server{Handler: NewMux(cfg), ReadHeaderTimeout: 10 * time.Second}
	ds := &DebugServer{lis: lis, srv: srv}
	go srv.Serve(lis)
	return ds, nil
}

// Addr returns the bound address, e.g. "127.0.0.1:38211".
func (s *DebugServer) Addr() string { return s.lis.Addr().String() }

// Close stops the server and releases the listener.
func (s *DebugServer) Close() error { return s.srv.Close() }

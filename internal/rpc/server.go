package rpc

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"met/internal/obs"
)

// Server is one node's HTTP front: a listener, the middleware chain
// around the node's routes, the debug plane and the readiness/drain
// surface. mu guards the listener/server handles across
// Serve/Drain/Close; the serving path itself runs lock-free on the
// atomics.
type Server struct {
	mu  sync.Mutex
	lis net.Listener
	srv *http.Server

	lg       *log.Logger
	metrics  *Metrics
	draining atomic.Bool
}

// NewServer is newServer with no node behind the debug plane.
func NewServer(name string, mux *http.ServeMux, logw io.Writer) *Server {
	return newServer(name, mux, logw, obs.DebugConfig{})
}

// newServer wraps mux in the standard middleware chain (panic recovery
// outermost, then request logging and per-route histograms) and mounts
// /readyz and the debug plane beside its routes. node is the plane's
// source; /metrics leads with the route histograms and the process's
// runtime stats, and without a node.Health /healthz is always 200.
// logw receives the request log; name tags each line.
func newServer(name string, mux *http.ServeMux, logw io.Writer, node obs.DebugConfig) *Server {
	if logw == nil {
		logw = io.Discard
	}
	s := &Server{
		lg:      log.New(logw, name+" ", log.LstdFlags|log.Lmicroseconds),
		metrics: NewMetrics(),
	}
	nodeMetrics := node.Metrics
	node.Metrics = func(mw *obs.MetricWriter) {
		s.metrics.WriteProm(mw)
		obs.WriteProcessMetrics(mw)
		if nodeMetrics != nil {
			nodeMetrics(mw)
		}
	}
	if node.Health == nil {
		node.Health = func() error { return nil }
	}
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/", obs.NewMux(node))
	handler := chain(mux,
		withRecovery(s.lg),
		withLogging(s.lg),
		withMetrics(s.metrics),
	)
	s.srv = &http.Server{Handler: handler}
	return s
}

// Serve binds addr (use ":0" for an ephemeral port) and serves in the
// background; the bound address is available from Addr.
func (s *Server) Serve(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.lis = lis
	srv := s.srv
	s.mu.Unlock()
	go func() {
		if err := srv.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.lg.Printf("serve: %v", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully stops serving: readiness flips off first (load
// balancers and clients stop sending), then the HTTP server shuts
// down — in-flight requests run to completion, new connections are
// refused. Every reply that was sent is a fully-processed one; an
// acknowledged write is never truncated by the stop. That includes the
// handlers of calls whose client has already given up on a deadline:
// Drain returns only once they have finished too.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	return srv.Shutdown(ctx)
}

// Close force-closes the listener and all connections (a hard stop;
// use Drain for graceful).
func (s *Server) Close() error {
	s.draining.Store(true)
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	return srv.Close()
}

// handleReadyz is serving readiness: 503 once draining has begun.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "node is draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ready\n")
}

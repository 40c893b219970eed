package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"met/internal/obs"
)

// Server is one node's HTTP front: a listener, the middleware chain
// around the node's routes, the debug plane and the readiness/drain
// surface, and — on a worker — the frame streams that connections
// upgrade to. http.Server does not track a hijacked connection, so
// Server tracks its streams itself. mu guards the listener/server
// handles and the stream set across Serve/Drain/Close and each
// upgrade; an op on a stream runs lock-free.
type Server struct {
	mu      sync.Mutex
	lis     net.Listener
	srv     *http.Server
	streams map[*stream]struct{}
	running sync.WaitGroup // one per stream goroutine

	lg       *log.Logger
	logOps   bool // the log is not discarded: write a line per op
	metrics  *Metrics
	draining atomic.Bool

	// dispatch runs one op read off a stream and appends its reply
	// payload to out; nil on a node without a data plane.
	dispatch func(op byte, epoch int64, payload, out []byte) ([]byte, error)
	opHists  [numOps]*obs.Histogram
}

// NewServer is newServer with no node behind the debug plane and no
// data plane.
func NewServer(name string, mux *http.ServeMux, logw io.Writer) *Server {
	return newServer(name, mux, logw, obs.DebugConfig{}, nil)
}

// newServer wraps mux in the standard middleware chain (panic recovery
// outermost, then request logging and per-route histograms) and mounts
// /readyz and the debug plane beside its routes. node is the plane's
// source; /metrics leads with the route histograms and the process's
// runtime stats, and without a node.Health /healthz is always 200.
// logw receives the request log; name tags each line. A non-nil
// dispatch mounts GET /node/stream, the upgrade to the data plane's
// frame streams, whose ops it runs.
func newServer(name string, mux *http.ServeMux, logw io.Writer, node obs.DebugConfig,
	dispatch func(op byte, epoch int64, payload, out []byte) ([]byte, error)) *Server {
	if logw == nil {
		logw = io.Discard
	}
	s := &Server{
		lg:       log.New(logw, name+" ", log.LstdFlags|log.Lmicroseconds),
		logOps:   logw != io.Discard,
		metrics:  NewMetrics(),
		streams:  make(map[*stream]struct{}),
		dispatch: dispatch,
	}
	if dispatch != nil {
		for op := opGet; op < numOps; op++ {
			s.opHists[op] = s.metrics.hist(opRoutes[op])
		}
		mux.HandleFunc("GET /node/stream", s.handleStream)
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

// Drain gracefully stops serving: readiness flips off first (load
// balancers and clients stop sending), new upgrades are refused, and
// the HTTP server shuts down — in-flight requests run to completion,
// new connections are refused. Every op a stream has started runs to
// completion and replies, then its stream ends; an idle stream ends at
// once. Every reply that was sent is a fully-processed one; an
// acknowledged write is never truncated by the stop. That includes the
// ops of calls whose client has already given up on a deadline: Drain
// returns only once they have finished too. If ctx ends first, Drain
// force-closes every stream and returns ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	srv := s.srv
	streams := s.streamList()
	s.mu.Unlock()
	for _, st := range streams {
		// A busy stream ends itself after its reply.
		if st.state.CompareAndSwap(streamIdle, streamClosed) {
			st.nc.Close()
		}
	}
	err := srv.Shutdown(ctx)
	done := make(chan struct{})
	go func() {
		s.running.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.closeStreams()
		return ctx.Err()
	}
}

// Close force-closes the listener and all connections, streams
// included, without waiting for anything (a hard stop; use Drain for
// graceful). An op already running finishes in the background; its
// reply is lost.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining.Store(true)
	srv := s.srv
	s.mu.Unlock()
	err := srv.Close()
	s.closeStreams()
	return err
}

// closeStreams closes every stream's connection.
func (s *Server) closeStreams() {
	s.mu.Lock()
	streams := s.streamList()
	s.mu.Unlock()
	for _, st := range streams {
		st.nc.Close()
	}
}

// streamList snapshots the stream set; the caller holds s.mu.
func (s *Server) streamList() []*stream {
	out := make([]*stream, 0, len(s.streams))
	for st := range s.streams {
		out = append(out, st)
	}
	return out
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

// A stream's state: idle (blocked reading its next request), busy
// (running an op), or closed by Drain while idle.
const (
	streamIdle int32 = iota
	streamBusy
	streamClosed
)

// stream is one server-side frame stream: a hijacked connection and
// its read buffer.
type stream struct {
	nc    net.Conn
	br    *bufio.Reader
	state atomic.Int32
}

// handleStream upgrades the connection to a frame stream (101, then
// frames only) and serves it on its own goroutine. A draining server
// refuses with 503.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "node is draining")
		return
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), streamProto) {
		writeError(w, http.StatusBadRequest, "bad-upgrade", "want Upgrade: "+streamProto)
		return
	}
	w.Header().Set("Connection", "Upgrade")
	w.Header().Set("Upgrade", streamProto)
	w.WriteHeader(http.StatusSwitchingProtocols)
	nc, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		s.lg.Printf("upgrade: %v", err)
		return
	}
	st := &stream{nc: nc, br: brw.Reader}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.streams[st] = struct{}{}
	s.running.Add(1)
	s.mu.Unlock()
	go s.serveStream(st)
}

// serveStream reads request frames and answers each until the client
// closes, a frame is malformed, a write fails or the server drains. A
// malformed frame (bad length or CRC) ends the stream without running
// anything: the framing can no longer be trusted.
func (s *Server) serveStream(st *stream) {
	defer s.running.Done()
	defer func() {
		st.nc.Close()
		s.mu.Lock()
		delete(s.streams, st)
		s.mu.Unlock()
	}()
	var in, out []byte
	for {
		f, buf, err := readFrame(st.br, in)
		in = buf
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.lg.Printf("stream %s: %v", st.nc.RemoteAddr(), err)
			}
			return
		}
		if !st.state.CompareAndSwap(streamIdle, streamBusy) {
			return // Drain closed it between ops
		}
		out, err = writeFrame(st.nc, s.serveOp(f, out))
		if err != nil || !st.state.CompareAndSwap(streamBusy, streamIdle) || s.draining.Load() {
			return
		}
		if cap(in) > maxKeptBuf {
			in = nil
		}
		if cap(out) > maxKeptBuf {
			out = nil
		}
	}
}

// serveOp runs one request frame and returns its reply frame, begun in
// out and left for writeFrame to seal. It is the frame's middleware:
// the op's latency lands in its route's histogram, a line per op goes
// to the log, and a panicking op answers statusInternal while the
// stream and the process live on.
func (s *Server) serveOp(f frame, out []byte) (reply []byte) {
	if f.kind == 0 || f.kind >= numOps {
		return append(beginFrame(out, statusBadRequest, f.epoch), fmt.Sprintf("unknown op %d", f.kind)...)
	}
	route, start, status := opRoutes[f.kind], time.Now(), statusOK
	defer func() {
		if p := recover(); p != nil {
			s.lg.Printf("panic serving %s: %v\n%s", route, p, debug.Stack())
			status = statusInternal
			reply = append(beginFrame(out, status, f.epoch), fmt.Sprintf("panic: %v", p)...)
		}
		s.opHists[f.kind].Record(time.Since(start))
		if s.logOps {
			s.lg.Printf("%s %s %s", route, statusNames[status], time.Since(start).Round(time.Microsecond))
		}
	}()
	reply, err := s.dispatch(f.kind, f.epoch, f.payload, beginFrame(out, statusOK, f.epoch))
	if err != nil {
		status = statusOf(err)
		reply = append(beginFrame(out, status, f.epoch), err.Error()...)
	}
	return reply
}

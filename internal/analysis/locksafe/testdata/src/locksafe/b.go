// Fixture for the RPC-layer additions: network I/O under a guarded
// lock. The test registers locksafe.Server and locksafe.connPool as
// guarded types, standing in for met/internal/rpc.Server / MasterNode
// and the client's stream pool.
package locksafe

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
)

// Server mimics rpc.Server: mu guards an address book the serving path
// reads on every request.
type Server struct {
	mu    sync.Mutex
	addrs map[string]string
}

// Network calls under the routing lock stall every concurrent RPC
// behind one slow peer.
func (s *Server) netUnderLock(conn net.Conn, hc *http.Client, req *http.Request) {
	s.mu.Lock()
	_, _ = conn.Read(make([]byte, 1)) // want `blocking call to \(net.Conn\).Read`
	_, _ = conn.Write([]byte("x"))    // want `blocking call to \(net.Conn\).Write`
	_, _ = hc.Do(req)                 // want `blocking call to \(net/http.Client\).Do`
	_, _ = http.Get("http://x/")      // want `blocking call to net/http.Get`
	_, _ = net.Listen("tcp", ":0")    // want `blocking call to net.Listen`
	s.mu.Unlock()
}

// callJSON stands in for met/internal/rpc.callJSON, the rpc layer's one
// JSON control call; the test lists it as blocking the way
// BlockingFuncs lists the real one.
func callJSON(hc *http.Client, method, addr, path string, body, out any) error { return nil }

// A control call under the guarded lock is a full remote round trip.
func (s *Server) controlCallUnderLock(hc *http.Client) {
	s.mu.Lock()
	_ = callJSON(hc, http.MethodPost, s.addrs["rs0"], "/node/epoch", nil, nil) // want `blocking call to locksafe.callJSON`
	s.mu.Unlock()
}

// A response writer is a network sink too: the client may drain it
// arbitrarily slowly.
func (s *Server) replyUnderLock(w http.ResponseWriter) {
	s.mu.Lock()
	_, _ = w.Write([]byte("ok")) // want `blocking call to \(net/http.ResponseWriter\).Write`
	s.mu.Unlock()
}

// The right shape: snapshot the book under the lock, talk to the
// network after releasing it.
func (s *Server) snapshotThenCall(hc *http.Client, req *http.Request) {
	s.mu.Lock()
	addrs := make(map[string]string, len(s.addrs))
	for k, v := range s.addrs {
		addrs[k] = v
	}
	s.mu.Unlock()
	_, _ = hc.Do(req) // unlocked: no diagnostic
}

// Audited exception: a single farewell write on the drain path, where
// no serving traffic can queue behind the lock anymore.
func (s *Server) drainFarewell(conn net.Conn) {
	s.mu.Lock()
	_, _ = conn.Write([]byte("bye")) //lint:allow locksafe drain-path farewell; runs once at shutdown with serving already stopped
	s.mu.Unlock()
}

// connPool mimics rpc.connPool: mu guards the idle streams every op
// pops and pushes.
type connPool struct {
	mu   sync.Mutex
	idle []net.Conn
}

// readFrame, writeFrame and dialStream stand in for the rpc data
// plane's frame helpers; the test lists them as blocking the way
// BlockingFuncs lists the real ones.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error)         { return buf, nil }
func writeFrame(w io.Writer, b []byte) ([]byte, error)              { return b, nil }
func dialStream(ctx context.Context, addr string) (net.Conn, error) { return nil, nil }

// Dialing a new stream under the pool lock holds every other op behind
// one connect and upgrade.
func (p *connPool) dialUnderLock(ctx context.Context, addr string) net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) == 0 {
		nc, _ := dialStream(ctx, addr) // want `blocking call to locksafe.dialStream`
		return nc
	}
	nc := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	return nc
}

// A frame exchanged under the pool lock waits on the peer's reply.
func (p *connPool) frameUnderLock(br *bufio.Reader, nc net.Conn, buf []byte) {
	p.mu.Lock()
	buf, _ = writeFrame(nc, buf) // want `blocking call to locksafe.writeFrame`
	_, _ = readFrame(br, buf)    // want `blocking call to locksafe.readFrame`
	p.mu.Unlock()
}

// The right shape: pop under the lock, dial and talk after releasing
// it.
func (p *connPool) popThenDial(ctx context.Context, addr string) net.Conn {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		nc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return nc
	}
	p.mu.Unlock()
	nc, _ := dialStream(ctx, addr) // unlocked: no diagnostic
	return nc
}

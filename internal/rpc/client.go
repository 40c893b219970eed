package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"met/internal/hbase"
	"met/internal/kv"
)

// Client is the networked counterpart of hbase.Client: it caches the
// master's layout (the route table and each worker's address) and
// routes every data operation straight to the worker hosting the key's
// region, over a pool of frame streams per worker. A failed route —
// connection refused or reset (the worker is dead), a reroute reply
// (the region moved, or the layout changed under us) — re-fetches the
// layout and retries, bounded; a stopped reply (the region server is
// stopped or restarting) backs off and retries the refreshed route, and
// surfaces as hbase.ErrServerStopped once the retries are spent. Each
// fetch publishes a new immutable snapshot; calls in flight load it
// with one atomic read.
type Client struct {
	master string // master base address, "host:port"
	hc     *http.Client

	// Timeout is the per-operation budget, enforced client-side only:
	// an operation that runs out of it returns
	// context.DeadlineExceeded, and its outcome is indeterminate — the
	// server completes whatever it has started (see "Timeouts" in the
	// package doc).
	Timeout time.Duration
	// Retries bounds route refresh attempts per operation.
	Retries int

	layout atomic.Pointer[layout]
	pool   connPool
}

// layout is one fetched layout: the route table and each worker's
// address. Never modified once published.
type layout struct {
	routes *hbase.RouteTable
	addrs  map[string]string
}

// route resolves (table, key) to the owning region and its worker's
// address.
func (l *layout) route(table, key string) (hbase.LayoutRegion, string, error) {
	r, err := l.routes.Lookup(table, key)
	if err != nil {
		return r, "", err
	}
	addr, ok := l.addrs[r.Server]
	if !ok {
		return r, "", fmt.Errorf("%w: no address for %s", errReroute, r.Server)
	}
	return r, addr, nil
}

var _ hbase.KV = (*Client)(nil)

// errReroute marks failures that warrant a layout refresh and retry.
var errReroute = errors.New("rpc: stale route")

// Dial connects to a master and fetches the initial layout.
func Dial(masterAddr string) (*Client, error) {
	c := &Client{
		master:  masterAddr,
		hc:      &http.Client{},
		Timeout: 10 * time.Second,
		Retries: 4,
	}
	if err := c.Refresh(); err != nil {
		return nil, err
	}
	return c, nil
}

// Refresh re-fetches the layout from the master.
func (c *Client) Refresh() error {
	var lay LayoutReply
	if err := callJSON(c.hc, http.MethodGet, c.master, "/master/layout", nil, &lay); err != nil {
		return fmt.Errorf("rpc: fetch layout: %w", err)
	}
	c.layout.Store(&layout{routes: hbase.NewRouteTable(lay.Epoch, lay.Regions), addrs: lay.Addrs})
	return nil
}

// Regions returns a copy of the cached layout's region list.
func (c *Client) Regions() []hbase.LayoutRegion { return c.layout.Load().routes.Regions() }

// do runs one op on a pooled stream to addr, stamped with the routing
// epoch it was routed under, and classifies the reply. The returned
// error is errReroute-wrapped whenever a refreshed route should be
// retried. The reply payload is the caller's.
func (c *Client) do(ctx context.Context, addr string, op byte, epoch int64, body []byte) ([]byte, error) {
	cn, err := c.pool.get(ctx, addr)
	var f frame
	if err == nil {
		if f, err = cn.roundTrip(ctx, op, epoch, body); err != nil {
			cn.nc.Close()
			if cn.pooled {
				// The worker may have restarted or drained: its other idle
				// streams are as dead as this one.
				c.pool.drop(addr)
			}
		}
	}
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, context.DeadlineExceeded
		}
		// Connection refused / reset / a torn or corrupt reply: the
		// worker may be dead and its regions failed over — refresh and
		// re-route.
		return nil, fmt.Errorf("%w: %v", errReroute, err)
	}
	// The payload aliases the stream's buffer: copy it out before the
	// stream goes back to the pool.
	payload := bytes.Clone(f.payload)
	c.pool.put(cn)
	switch f.kind {
	case statusOK:
		return payload, nil
	case statusNotFound:
		return nil, hbase.ErrNotFound
	case statusReroute:
		// wrong-region or stale-epoch: both mean "your layout is old".
		return nil, fmt.Errorf("%w: %s", errReroute, payload)
	case statusStopped:
		// A stopped (restarting or shut-down) region server; once the
		// retries are spent the caller sees the same sentinel the
		// in-process client returns.
		return nil, fmt.Errorf("%w: %w: %s", errReroute, hbase.ErrServerStopped, payload)
	case statusBadRequest, statusInternal:
		return nil, fmt.Errorf("rpc: %s: %s: %s", opRoutes[op], statusNames[f.kind], payload)
	default:
		return nil, fmt.Errorf("rpc: %s: unknown status %d: %s", opRoutes[op], f.kind, payload)
	}
}

// withRetry routes, calls, and — on reroute-class failures — refreshes
// the layout and tries again, up to c.Retries times within the
// operation's deadline. It returns the region the successful attempt
// was routed to.
func (c *Client) withRetry(table, key string, op byte, body []byte) ([]byte, hbase.LayoutRegion, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.Timeout)
	defer cancel()
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if attempt > 0 {
			// The layout may lag the failure (the master has not committed
			// the failover yet): brief backoff, then refetch.
			select {
			case <-time.After(time.Duration(attempt) * 100 * time.Millisecond):
			case <-ctx.Done():
				return nil, hbase.LayoutRegion{}, context.DeadlineExceeded
			}
			if err := c.Refresh(); err != nil {
				lastErr = err
				continue
			}
		}
		l := c.layout.Load()
		region, addr, err := l.route(table, key)
		if err != nil {
			if errors.Is(err, errReroute) {
				lastErr = err
				continue
			}
			return nil, region, err
		}
		payload, err := c.do(ctx, addr, op, l.routes.Epoch(), body)
		if err == nil || !errors.Is(err, errReroute) {
			return payload, region, err
		}
		lastErr = err
	}
	return nil, hbase.LayoutRegion{}, fmt.Errorf("rpc: %s %s/%q failed after %d attempts: %w",
		opRoutes[op], table, key, c.Retries+1, lastErr)
}

// Get returns the newest value of key, or hbase.ErrNotFound.
func (c *Client) Get(table, key string) ([]byte, error) {
	var buf [64]byte
	v, _, err := c.withRetry(table, key, opGet, appendStr(appendStr(buf[:0], table), key))
	return v, err
}

// Put writes a value; acknowledged only after the worker's WAL fsync.
func (c *Client) Put(table, key string, value []byte) error {
	var buf [64]byte
	body := appendBytes(appendStr(appendStr(buf[:0], table), key), value)
	_, _, err := c.withRetry(table, key, opPut, body)
	return err
}

// Delete removes a key.
func (c *Client) Delete(table, key string) error {
	var buf [64]byte
	_, _, err := c.withRetry(table, key, opDelete, appendStr(appendStr(buf[:0], table), key))
	return err
}

// Scan returns up to limit entries with start <= key < end in key
// order, stitching per-region scans across workers with the in-process
// client's loop. Each part's cursor advances from the region its
// request was finally routed to, after any refresh the retries made.
func (c *Client) Scan(table, start, end string, limit int) ([]kv.Entry, error) {
	return hbase.StitchScan(start, end, limit, func(cursor string, limit int) ([]kv.Entry, string, error) {
		body := appendStr(appendStr(appendStr(nil, table), cursor), end)
		body = binary.AppendVarint(body, int64(limit))
		payload, region, err := c.withRetry(table, cursor, opScan, body)
		if err != nil {
			return nil, "", err
		}
		part, err := decodeEntries(payload)
		return part, region.End, err
	})
}

// decodeEntries parses a scan reply (see ServerNode.scan).
func decodeEntries(b []byte) ([]kv.Entry, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: truncated scan count", errMalformed)
	}
	count := uint64(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if count > uint64(len(b)) { // every entry takes at least four bytes
		return nil, fmt.Errorf("%w: %d entries in %d bytes", errMalformed, count, len(b))
	}
	entries := make([]kv.Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		key, rest, err := takeStr(b)
		if err != nil {
			return nil, err
		}
		val, rest, err := takeBytes(rest)
		if err != nil {
			return nil, err
		}
		ts, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return nil, fmt.Errorf("%w: truncated scan timestamp", errMalformed)
		}
		rest = rest[sz:]
		if len(rest) < 1 {
			return nil, fmt.Errorf("%w: truncated scan flags", errMalformed)
		}
		entries = append(entries, kv.Entry{
			Key: key, Value: val, Timestamp: ts, Tombstone: rest[0]&1 != 0,
		})
		b = rest[1:]
	}
	return entries, nil
}

// Quiesce asks every live worker to drain its replication queue — the
// networked QuiesceReplication barrier.
func (c *Client) Quiesce() error {
	for _, addr := range c.layout.Load().addrs {
		if err := callJSON(c.hc, http.MethodPost, addr, "/node/quiesce", nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// Recover asks the master to fail a dead worker's regions over.
func (c *Client) Recover(dead string) (*RecoverReply, error) {
	var reply RecoverReply
	if err := callJSON(c.hc, http.MethodPost, c.master, "/master/recover", recoverReq{Server: dead}, &reply); err != nil {
		return nil, err
	}
	// The layout changed; re-route immediately rather than on the first
	// reroute reply.
	_ = c.Refresh()
	return &reply, nil
}

// conn is one client stream: a connection upgraded to frames, with its
// read buffer and one frame buffer reused by every op it carries. It
// carries one op at a time, so it needs no request ids: a reply is the
// reply to the last request. A conn that fails an op is closed, never
// pooled, so no late reply can be read as the next op's.
type conn struct {
	addr   string
	nc     net.Conn
	br     *bufio.Reader
	buf    []byte
	pooled bool // it has waited in the pool, where it may have gone stale
}

// roundTrip sends one request frame and reads its reply within ctx's
// deadline. The reply's payload aliases cn.buf.
func (cn *conn) roundTrip(ctx context.Context, op byte, epoch int64, body []byte) (frame, error) {
	dl, _ := ctx.Deadline() // none: the zero time clears the last op's
	if err := cn.nc.SetDeadline(dl); err != nil {
		return frame{}, err
	}
	var err error
	if cn.buf, err = writeFrame(cn.nc, append(beginFrame(cn.buf, op, epoch), body...)); err != nil {
		return frame{}, err
	}
	f, buf, err := readFrame(cn.br, cn.buf)
	cn.buf = buf
	return f, err
}

// maxIdlePerAddr bounds the idle streams kept per worker: enough for
// the closed-loop clients one process runs, without keeping a burst's
// worth of sockets open forever.
const maxIdlePerAddr = 64

// maxKeptBuf is the largest frame buffer a stream keeps between ops; a
// larger one (a big value or a long scan) is released after its op.
const maxKeptBuf = 1 << 20

// connPool keeps idle streams per worker address. mu guards the idle
// lists only: dialing and upgrading happen outside it.
type connPool struct {
	mu   sync.Mutex
	idle map[string][]*conn
}

// get pops an idle stream to addr, or dials a new one.
func (p *connPool) get(ctx context.Context, addr string) (*conn, error) {
	p.mu.Lock()
	if list := p.idle[addr]; len(list) > 0 {
		cn := list[len(list)-1]
		p.idle[addr] = list[:len(list)-1]
		p.mu.Unlock()
		return cn, nil
	}
	p.mu.Unlock()
	return dialStream(ctx, addr)
}

// put returns a healthy stream to the pool, or closes it when the pool
// for its address is full.
func (p *connPool) put(cn *conn) {
	if cap(cn.buf) > maxKeptBuf {
		cn.buf = nil
	}
	cn.pooled = true
	p.mu.Lock()
	if p.idle == nil {
		p.idle = make(map[string][]*conn)
	}
	if list := p.idle[cn.addr]; len(list) < maxIdlePerAddr {
		p.idle[cn.addr] = append(list, cn)
		cn = nil
	}
	p.mu.Unlock()
	if cn != nil {
		cn.nc.Close()
	}
}

// drop closes every idle stream to addr.
func (p *connPool) drop(addr string) {
	p.mu.Lock()
	list := p.idle[addr]
	delete(p.idle, addr)
	p.mu.Unlock()
	for _, cn := range list {
		cn.nc.Close()
	}
}

package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"met/internal/hbase"
	"met/internal/kv"
)

// Client is the networked counterpart of hbase.Client: it caches the
// master's layout (the route table and each worker's address) and
// routes every data operation straight to the worker hosting the key's
// region. A failed route — connection refused (the worker is dead), 409
// wrong-region (the region moved), 409 stale-epoch (the layout changed
// under us) — re-fetches the layout and retries, bounded; 503 (the
// region server is stopped or restarting) backs off and retries the
// refreshed route, and surfaces as hbase.ErrServerStopped once the
// retries are spent. Each fetch publishes a new immutable snapshot;
// calls in flight load it with one atomic read.
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

// call sends one binary data-plane request, stamped with the routing
// epoch it was routed under, and classifies the reply. The returned
// error is errReroute-wrapped whenever a refreshed route should be
// retried.
func (c *Client) call(ctx context.Context, addr, path string, epoch int64, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderEpoch, strconv.FormatInt(epoch, 10))
	resp, err := c.hc.Do(req)
	var payload []byte
	if err == nil {
		payload, err = io.ReadAll(io.LimitReader(resp.Body, maxBody))
		resp.Body.Close()
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, context.DeadlineExceeded
		}
		// Connection refused / reset / a torn reply: the worker may be
		// dead and its regions failed over — refresh and re-route.
		return nil, fmt.Errorf("%w: %v", errReroute, err)
	}
	switch text := bytes.TrimSpace(payload); resp.StatusCode {
	case http.StatusOK:
		return payload, nil
	case http.StatusNotFound:
		return nil, hbase.ErrNotFound
	case http.StatusConflict:
		// wrong-region or stale-epoch: both mean "your layout is old".
		return nil, fmt.Errorf("%w: %s", errReroute, text)
	case http.StatusServiceUnavailable:
		// The only 503 a data call gets is a stopped (restarting or
		// shut-down) region server; once the retries are spent the
		// caller sees the same sentinel the in-process client returns.
		return nil, fmt.Errorf("%w: %w: %s", errReroute, hbase.ErrServerStopped, text)
	default:
		return nil, fmt.Errorf("rpc: %s %s: %s", path, resp.Status, text)
	}
}

// withRetry routes, calls, and — on reroute-class failures — refreshes
// the layout and tries again, up to c.Retries times within the
// operation's deadline. It returns the region the successful attempt
// was routed to.
func (c *Client) withRetry(table, key, path string, body []byte) ([]byte, hbase.LayoutRegion, error) {
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
		payload, err := c.call(ctx, addr, path, l.routes.Epoch(), body)
		if err == nil || !errors.Is(err, errReroute) {
			return payload, region, err
		}
		lastErr = err
	}
	return nil, hbase.LayoutRegion{}, fmt.Errorf("rpc: %s %s/%q failed after %d attempts: %w",
		path, table, key, c.Retries+1, lastErr)
}

// Get returns the newest value of key, or hbase.ErrNotFound.
func (c *Client) Get(table, key string) ([]byte, error) {
	body := appendStr(appendStr(nil, table), key)
	v, _, err := c.withRetry(table, key, "/node/get", body)
	return v, err
}

// Put writes a value; acknowledged only after the worker's WAL fsync.
func (c *Client) Put(table, key string, value []byte) error {
	body := appendBytes(appendStr(appendStr(nil, table), key), value)
	_, _, err := c.withRetry(table, key, "/node/put", body)
	return err
}

// Delete removes a key.
func (c *Client) Delete(table, key string) error {
	body := appendStr(appendStr(nil, table), key)
	_, _, err := c.withRetry(table, key, "/node/delete", body)
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
		payload, region, err := c.withRetry(table, cursor, "/node/scan", body)
		if err != nil {
			return nil, "", err
		}
		part, err := decodeEntries(payload)
		return part, region.End, err
	})
}

// decodeEntries parses a scan reply.
func decodeEntries(b []byte) ([]kv.Entry, error) {
	count, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, errors.New("rpc: truncated scan count")
	}
	b = b[sz:]
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
			return nil, errors.New("rpc: truncated scan timestamp")
		}
		rest = rest[sz:]
		if len(rest) < 1 {
			return nil, errors.New("rpc: truncated scan flags")
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
	// The layout changed; re-route immediately rather than on first 409.
	_ = c.Refresh()
	return &reply, nil
}

package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"met/internal/hbase"
	"met/internal/kv"
)

// Client is the networked counterpart of hbase.Client: it caches the
// master's layout (regions, addresses, epoch) and routes every data
// operation straight to the worker hosting the key's region. A failed
// route — connection refused (the worker is dead), 409 wrong-region
// (the region moved), 409 stale-epoch (the layout changed under us) —
// re-fetches the layout and retries, bounded; 503 (the region server is
// stopped or restarting) backs off and retries the refreshed route, and
// surfaces as hbase.ErrServerStopped once the retries are spent. mu
// guards the cached layout; calls in flight share it read-mostly.
type Client struct {
	master string // master base address, "host:port"
	hc     *http.Client

	// Timeout is the per-operation budget, propagated to servers via
	// X-Met-Deadline so a slow handler gives up server-side too.
	Timeout time.Duration
	// Retries bounds route refresh attempts per operation.
	Retries int

	mu      sync.Mutex
	epoch   int64
	regions []hbase.LayoutRegion
	addrs   map[string]string
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
	resp, err := c.hc.Get("http://" + c.master + "/master/layout")
	if err != nil {
		return fmt.Errorf("rpc: fetch layout: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("rpc: fetch layout: %s", resp.Status)
	}
	var lay LayoutReply
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&lay); err != nil {
		return fmt.Errorf("rpc: decode layout: %w", err)
	}
	c.mu.Lock()
	c.epoch, c.regions, c.addrs = lay.Epoch, lay.Regions, lay.Addrs
	c.mu.Unlock()
	return nil
}

// Epoch returns the cached routing epoch.
func (c *Client) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Regions returns a copy of the cached layout's region list.
func (c *Client) Regions() []hbase.LayoutRegion {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]hbase.LayoutRegion, len(c.regions))
	copy(out, c.regions)
	return out
}

// route resolves (table, key) to the owning region and its worker's
// address under the cached layout.
func (c *Client) route(table, key string) (hbase.LayoutRegion, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.regions {
		if r.Table != table {
			continue
		}
		if key >= r.Start && (r.End == "" || key < r.End) {
			addr, ok := c.addrs[r.Server]
			if !ok {
				return r, "", fmt.Errorf("%w: no address for %s", errReroute, r.Server)
			}
			return r, addr, nil
		}
	}
	return hbase.LayoutRegion{}, "", fmt.Errorf("rpc: no region for %s/%q", table, key)
}

// call sends one binary data-plane request and classifies the reply.
// The returned error is errReroute-wrapped whenever a refreshed route
// should be retried.
func (c *Client) call(ctx context.Context, addr, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderEpoch, strconv.FormatInt(c.Epoch(), 10))
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(HeaderDeadline, strconv.FormatInt(ms, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, context.DeadlineExceeded
		}
		// Connection refused / reset: the worker may be dead and its
		// regions failed over — refresh and re-route.
		return nil, fmt.Errorf("%w: %v", errReroute, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errReroute, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return payload, nil
	case http.StatusNotFound:
		return nil, hbase.ErrNotFound
	case http.StatusConflict:
		// wrong-region or stale-epoch: both mean "your layout is old".
		return nil, fmt.Errorf("%w: %s", errReroute, errBodyText(payload))
	case http.StatusServiceUnavailable:
		// The only 503 a data call gets is a stopped (restarting or
		// shut-down) region server; once the retries are spent the
		// caller sees the same sentinel the in-process client returns.
		return nil, fmt.Errorf("%w: %w: %s", errReroute, hbase.ErrServerStopped, errBodyText(payload))
	case http.StatusGatewayTimeout:
		return nil, context.DeadlineExceeded
	default:
		return nil, fmt.Errorf("rpc: %s %s: %s", path, resp.Status, errBodyText(payload))
	}
}

func errBodyText(payload []byte) string {
	var eb errorBody
	if json.Unmarshal(payload, &eb) == nil && eb.Error != "" {
		return eb.Code + ": " + eb.Error
	}
	return string(payload)
}

// withRetry routes, calls, and — on reroute-class failures — refreshes
// the layout and tries again, up to c.Retries times within the
// operation's deadline.
func (c *Client) withRetry(table, key, path string, body []byte) ([]byte, error) {
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
				return nil, context.DeadlineExceeded
			}
			if err := c.Refresh(); err != nil {
				lastErr = err
				continue
			}
		}
		_, addr, err := c.route(table, key)
		if err != nil {
			if errors.Is(err, errReroute) {
				lastErr = err
				continue
			}
			return nil, err
		}
		payload, err := c.call(ctx, addr, path, body)
		if err == nil || !errors.Is(err, errReroute) {
			return payload, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("rpc: %s %s/%q failed after %d attempts: %w",
		path, table, key, c.Retries+1, lastErr)
}

// Get returns the newest value of key, or hbase.ErrNotFound.
func (c *Client) Get(table, key string) ([]byte, error) {
	body := appendStr(appendStr(nil, table), key)
	return c.withRetry(table, key, "/node/get", body)
}

// Put writes a value; acknowledged only after the worker's WAL fsync.
func (c *Client) Put(table, key string, value []byte) error {
	body := appendBytes(appendStr(appendStr(nil, table), key), value)
	_, err := c.withRetry(table, key, "/node/put", body)
	return err
}

// Delete removes a key.
func (c *Client) Delete(table, key string) error {
	body := appendStr(appendStr(nil, table), key)
	_, err := c.withRetry(table, key, "/node/delete", body)
	return err
}

// Scan returns up to limit entries with start <= key < end in key
// order, stitching per-region scans across workers exactly like the
// in-process client.
func (c *Client) Scan(table, start, end string, limit int) ([]kv.Entry, error) {
	var out []kv.Entry
	cursor := start
	for {
		if limit >= 0 && len(out) >= limit {
			return out[:limit], nil
		}
		region, _, err := c.route(table, cursor)
		if err != nil {
			if len(out) > 0 && !errors.Is(err, errReroute) {
				return out, nil
			}
			return nil, err
		}
		remaining := -1
		if limit >= 0 {
			remaining = limit - len(out)
		}
		body := appendStr(appendStr(appendStr(nil, table), cursor), end)
		body = binary.AppendVarint(body, int64(remaining))
		payload, err := c.withRetry(table, cursor, "/node/scan", body)
		if err != nil {
			return nil, err
		}
		part, err := decodeEntries(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
		if region.End == "" || (end != "" && region.End >= end) {
			return out, nil
		}
		cursor = region.End
	}
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
	c.mu.Lock()
	addrs := make([]string, 0, len(c.addrs))
	for _, a := range c.addrs {
		addrs = append(addrs, a)
	}
	c.mu.Unlock()
	for _, addr := range addrs {
		resp, err := c.hc.Post("http://"+addr+"/node/quiesce", "application/json", nil)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("rpc: quiesce %s: %s", addr, resp.Status)
		}
	}
	return nil
}

// Recover asks the master to fail a dead worker's regions over.
func (c *Client) Recover(dead string) (*RecoverReply, error) {
	buf, _ := json.Marshal(map[string]string{"server": dead})
	resp, err := c.hc.Post("http://"+c.master+"/master/recover", "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rpc: recover: %s: %s", resp.Status, errBodyText(payload))
	}
	var reply RecoverReply
	if err := json.Unmarshal(payload, &reply); err != nil {
		return nil, err
	}
	// The layout changed; re-route immediately rather than on first 409.
	_ = c.Refresh()
	return &reply, nil
}

package hbase

import (
	"errors"

	"met/internal/kv"
)

// ErrNotFound mirrors kv.ErrNotFound at the client surface.
var ErrNotFound = kv.ErrNotFound

// KV is the data-plane surface of a cluster — the put/get/delete/scan
// interface of Section 2 — and the one thing a workload driver (ycsb,
// tpcc, metbench's scenarios) depends on. *Client serves it in-process
// and *rpc.Client over the wire, so a driver runs against either
// cluster unchanged. An implementation must return kv.ErrNotFound (or
// an error wrapping it) from Get on a miss, and must report topology
// churn it could not route around — a server that is down, a store
// retired by a split or a restart — as an error wrapping
// ErrServerStopped or kv.ErrClosed: drivers count exactly those two as
// transient and everything else as a failed operation. Scan returns up
// to limit entries (all of them when limit < 0) with start <= key < end
// in key order; an empty end means the end of the table.
type KV interface {
	Get(table, key string) ([]byte, error)
	Put(table, key string, value []byte) error
	Delete(table, key string) error
	Scan(table, start, end string, limit int) ([]kv.Entry, error)
}

var _ KV = (*Client)(nil)

// Client provides the put/get/delete/scan key-value interface of
// Section 2, routing every operation to the region server currently
// hosting the key's region. Like the real HBase client it consults the
// master's metadata ("meta table") — the route table of the last
// committed layout — and re-routes when a route turns out stale.
type Client struct {
	master *Master
}

// NewClient returns a client bound to the cluster's master.
func NewClient(m *Master) *Client { return &Client{master: m} }

// withRetry runs op on the server rt names for (table, key), starting
// from the current route table. An attempt that hit a moved region
// (ErrWrongRegionServer) or a store retired mid-flight by a split or
// restart (kv.ErrClosed) is re-routed: once regardless — after a split
// the daughters serve the key on the same route — and then for as long
// as the layout keeps changing under the operation, because each such
// failure came from a route that was already stale. A server that is
// down keeps failing with ErrServerStopped; waiting it out is the
// caller's policy, as with real HBase clients. Routing takes no lock
// but the master's shared one, for the server lookup.
func (c *Client) withRetry(table, key string, op func(rs *RegionServer) error) error {
	rt := c.master.layout.routes.Load()
	for attempt := 0; ; attempt++ {
		host, err := rt.hostFor(table, key)
		if err != nil {
			return err
		}
		rs, err := c.master.Server(host)
		if err != nil {
			return err
		}
		err = op(rs)
		if !errors.Is(err, ErrWrongRegionServer) && !errors.Is(err, kv.ErrClosed) {
			return err
		}
		next := c.master.layout.routes.Load()
		if attempt > 0 && next == rt {
			return err
		}
		rt = next
	}
}

// Get returns the newest value of key, or ErrNotFound.
func (c *Client) Get(table, key string) ([]byte, error) {
	var out []byte
	err := c.withRetry(table, key, func(rs *RegionServer) error {
		v, err := rs.Get(table, key)
		out = v
		return err
	})
	return out, err
}

// Put writes a value. Writes are atomic and immediately visible to
// subsequent reads.
func (c *Client) Put(table, key string, value []byte) error {
	return c.withRetry(table, key, func(rs *RegionServer) error {
		return rs.Put(table, key, value)
	})
}

// Delete removes a key.
func (c *Client) Delete(table, key string) error {
	return c.withRetry(table, key, func(rs *RegionServer) error {
		return rs.Delete(table, key)
	})
}

// Scan returns up to limit entries with start <= key < end in key order,
// stitching together per-region scans across servers. The cursor
// advances from the end of the region that actually served each part,
// not from the table's view of it: while a split is between opening the
// daughters and renaming them in the table, the server already answers
// from the low daughter, and jumping to the parent's end would skip the
// high daughter's rows without an error.
func (c *Client) Scan(table, start, end string, limit int) ([]kv.Entry, error) {
	var out []kv.Entry
	cursor := start
	for {
		if limit >= 0 && len(out) >= limit {
			return out[:limit], nil
		}
		remaining := -1
		if limit >= 0 {
			remaining = limit - len(out)
		}
		var part []kv.Entry
		var served *Region
		err := c.withRetry(table, cursor, func(rs *RegionServer) error {
			var err error
			part, served, err = rs.scan(table, cursor, end, remaining)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
		if served.EndKey() == "" || (end != "" && served.EndKey() >= end) {
			return out, nil
		}
		cursor = served.EndKey()
	}
}

// ReadModifyWrite implements YCSB's read-modify-write on a single row
// over any KV: read the value, transform it, write it back. HBase offers
// record-level atomicity only, which is all the paper's workloads
// require.
func ReadModifyWrite(c KV, table, key string, modify func([]byte) []byte) error {
	v, err := c.Get(table, key)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	return c.Put(table, key, modify(v))
}

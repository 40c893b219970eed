// Package rpc is the thin wire layer that turns the in-process cluster
// into a networked, multi-process one: HTTP with JSON bodies for the
// control plane (layout, register, recover, adopt) and the debug plane,
// and persistent frame streams for the data plane (get/put/delete/scan
// — uvarint-framed fields in length-prefixed, CRC'd frames, no per-op
// HTTP or JSON on the hot path).
//
// # Topology
//
// One master process (MasterNode, wrapping hbase.LayoutMaster — the
// catalog's exclusive owner) plus one worker process per region server
// (ServerNode, wrapping the hbase.RegionServer that OpenServerNode
// opened). Workers register with the master at startup
// (POST /master/register) and receive their manifest; clients fetch
// the layout (GET /master/layout) and route data operations straight
// to workers — the master is on no data path, exactly like HBase's.
//
// A client reaches a worker's data plane on the worker's one listener:
// it sends GET /node/stream with Upgrade: met-frames, the worker
// answers 101 and hijacks the connection, and from then on the
// connection carries frames only, one request and then its reply at a
// time:
//
//	u32 len | kind | i64 routing epoch | payload | crc32c
//
// A request's kind is its op code, a reply's its status: ok, not-found,
// reroute, stopped, bad-request or internal; every status but ok
// carries the error text as its payload. A scan's ok reply is a u32 row
// count, then the rows' uvarint-framed fields: the worker encodes each
// row straight from the store's blocks into the reply while its visit
// holds them (hbase.RegionServer.ScanFunc) and patches the count in
// once the visit has ended. A frame longer than the bound a control
// request's body has, or whose CRC does not match, ends the stream
// without running anything. Client keeps an idle pool
// of streams per worker and one op in flight on each, so a reply needs
// no request id; a stream that fails an op is closed, never reused.
//
// # Middleware
//
// Every server runs the same composable middleware chain around its
// HTTP routes, outermost first:
//
//	panic recovery → request logging → per-route latency histograms →
//	handler
//
// Recovery converts a handler panic into a 500 without killing the
// process (one bad request must not take a region server down).
// Logging writes one line per request (method, path, status, duration)
// to the node's log. Histograms (obs.Histogram — the same lock-free
// buckets the engine's telemetry uses) are keyed by the matched route,
// never by the raw path, so the set is bounded by the route table; one
// op="other" holds every path that matches nothing.
//
// A stream's upgrade request passes through the chain like any other
// (it logs one GET /node/stream 101 line). The frames after it do not:
// the stream's serve loop applies the same three rings to each op. A
// panicking op answers an internal frame and the stream serves the
// next one; each op logs one line (route, status, duration); and its
// latency lands in the histogram its HTTP route used to fill,
// rpc_op_latency_seconds{op="/node/get"} and so on for put, delete and
// scan.
//
// # Timeouts
//
// A deadline belongs to the caller alone: Client.Timeout bounds each
// operation client-side, as the stream connection's I/O deadline, and
// no deadline travels on the wire. A call that returns
// context.DeadlineExceeded is indeterminate. The client closes that
// stream; the server runs every op it has started to completion, so a
// timed-out Put may or may not have been applied. Drain waits for
// those ops too: once it returns, every op the node started has
// finished.
//
// # Routing epochs
//
// The master's layout carries a routing epoch that advances on every
// layout change (today: failover). Every request frame carries the
// epoch the client routed it under, in the frame header; the master
// pushes the new epoch to live workers after committing a recovery,
// and a worker that sees a client epoch older than its own answers
// reroute ("stale-epoch") before touching the store — the signal to
// re-fetch the layout and re-route rather than retry blindly. A worker
// that no longer (or never) hosts the key's region answers reroute the
// same way. Connection-refused and a broken stream get the identical
// treatment client-side, so a killed worker re-routes as soon as the
// master has failed its regions over; a broken pooled stream also drops
// the worker's other idle streams, which a restart broke too.
//
// # Health, drain and the debug plane
//
// Beside its routes every node mounts the debug plane (obs.NewMux) on
// the same listener. On a worker it is the region server's whole
// observability surface, from the code the in-process cluster uses
// (hbase.RegionServer.DebugConfig): /metrics carries the route and op
// histograms, the process's runtime stats and the server's full met_*
// tree; /healthz is 503 once the region server has stopped;
// /debug/slowops, /debug/vars and /debug/pprof/ answer as they do
// in-process. The master serves the route histograms and process stats.
// /readyz belongs to this package: serving readiness, 503 while
// draining.
//
// Drain flips readiness off and refuses new upgrades (503 "draining"),
// gracefully shuts the HTTP server down — in-flight requests complete,
// new connections are refused — and ends every stream: an idle one at
// once, a busy one once its op has finished and replied. So every
// acknowledged write is acknowledged by a fully-processed op, never
// truncated by the stop. http.Server does not track hijacked
// connections, so Server tracks its streams itself; Drain force-closes
// them when its context ends, and Close closes them at once without
// waiting.
package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Error codes carried in JSON error bodies ({"code": ..., "error": ...});
// a stale-epoch reroute frame's text starts with CodeStaleEpoch.
const (
	CodeStaleEpoch  = "stale-epoch"
	CodeWrongRegion = "wrong-region"
	CodeDraining    = "draining"
)

// errorBody is the JSON error envelope every non-2xx reply carries.
type errorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// writeError replies with a JSON error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Code: code, Error: msg})
}

// writeJSON replies 200 with a JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the client's decode will fail.
		return
	}
}

// callJSON is the one JSON control call: it sends body, marshalled (no
// body when nil), to http://addr+path and decodes a 200 reply into out
// when out is non-nil. Any other status is an error carrying the
// reply's error envelope.
func callJSON(hc *http.Client, method, addr, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, "http://"+addr+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if json.Unmarshal(payload, &eb) != nil || eb.Error == "" {
			eb.Error = string(payload)
		}
		return fmt.Errorf("rpc: %s %s: %s: %s (%s)", method, path, resp.Status, eb.Error, eb.Code)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(payload, out)
}

// maxBody bounds request bodies and data-plane frames (a put's value
// plus framing slack; the engine's values are row-sized, not blobs).
const maxBody = 16 << 20

// --- binary data-plane codec -------------------------------------------
//
// A frame's payload is fields that are uvarint length-prefixed byte
// strings, concatenated in order. Integers are bare uvarints (or varints where negative values
// are legal). The framing is self-delimiting, so decode errors are
// always "short buffer", never a mis-split.

// appendStr appends one length-prefixed field.
func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBytes appends one length-prefixed byte field.
func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// takeStr decodes one length-prefixed field, returning the rest.
func takeStr(b []byte) (string, []byte, error) {
	p, rest, err := takeBytes(b)
	return string(p), rest, err
}

// takeBytes decodes one length-prefixed byte field, returning the rest.
func takeBytes(b []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("%w: truncated field length", errMalformed)
	}
	b = b[sz:]
	if uint64(len(b)) < n {
		return nil, nil, fmt.Errorf("%w: field of %d bytes in %d-byte remainder", errMalformed, n, len(b))
	}
	return b[:n], b[n:], nil
}

package rpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"met/internal/hbase"
	"met/internal/kv"
)

// ServerNode is one worker process's RPC front: the data plane
// (get/put/delete/scan on frame streams) plus the control endpoints
// the master drives failover through (adopt, refollow, epoch push,
// quiesce), all behind the standard middleware chain.
type ServerNode struct {
	*Server
	rs    *hbase.RegionServer
	epoch atomic.Int64
}

// NewServerNode builds the RPC front for an opened region server.
// epoch is the routing epoch from the node's manifest; the master
// pushes advances after layout changes.
func NewServerNode(rs *hbase.RegionServer, epoch int64, logw io.Writer) *ServerNode {
	n := &ServerNode{rs: rs}
	n.epoch.Store(epoch)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /node/adopt", n.handleAdopt)
	mux.HandleFunc("POST /node/refollow", n.handleRefollow)
	mux.HandleFunc("POST /node/epoch", n.handleEpoch)
	mux.HandleFunc("POST /node/quiesce", n.handleQuiesce)
	n.Server = newServer(rs.Name(), mux, logw, rs.DebugConfig(), n.dispatch)
	return n
}

// RegionServer exposes the wrapped server (for tests and metnode).
func (n *ServerNode) RegionServer() *hbase.RegionServer { return n.rs }

// dataOps is the data plane's dispatch table, indexed by op code. Each op
// decodes its request payload, calls the engine and appends its reply
// payload to out.
var dataOps = [numOps]func(n *ServerNode, payload, out []byte) ([]byte, error){
	opGet:    (*ServerNode).get,
	opPut:    (*ServerNode).put,
	opDelete: (*ServerNode).delete,
	opScan:   (*ServerNode).scan,
}

var (
	// errStaleEpoch rejects an op routed with a layout older than the
	// node's: the client missed at least one layout change and may be
	// talking to the wrong server entirely.
	errStaleEpoch = errors.New(CodeStaleEpoch)
	// errMalformed marks a request payload that does not decode.
	errMalformed = errors.New("rpc: malformed payload")
)

// dispatch is the node's data plane: the epoch gate, then the op.
func (n *ServerNode) dispatch(op byte, epoch int64, payload, out []byte) ([]byte, error) {
	if cur := n.epoch.Load(); epoch < cur {
		return out, fmt.Errorf("%w: client epoch %d behind node epoch %d", errStaleEpoch, epoch, cur)
	}
	return dataOps[op](n, payload, out)
}

// statusOf maps an op's error onto the wire: not-found and reroute are
// routing facts the client handles, everything else is a fault.
func statusOf(err error) byte {
	switch {
	case errors.Is(err, kv.ErrNotFound):
		return statusNotFound
	case errors.Is(err, errStaleEpoch), errors.Is(err, hbase.ErrWrongRegionServer), errors.Is(err, kv.ErrClosed):
		// A stale layout or a moved/split/recovered region: the client
		// must re-fetch the layout and re-route.
		return statusReroute
	case errors.Is(err, hbase.ErrServerStopped):
		return statusStopped
	case errors.Is(err, errMalformed):
		return statusBadRequest
	default:
		return statusInternal
	}
}

// decodeKey decodes a get or delete request: table | key.
func decodeKey(payload []byte) (table, key string, err error) {
	table, rest, err := takeStr(payload)
	if err != nil {
		return "", "", err
	}
	key, _, err = takeStr(rest)
	return table, key, err
}

// decodePut decodes a put request: table | key | value. value aliases
// payload.
func decodePut(payload []byte) (table, key string, value []byte, err error) {
	table, rest, err := takeStr(payload)
	if err != nil {
		return "", "", nil, err
	}
	if key, rest, err = takeStr(rest); err != nil {
		return "", "", nil, err
	}
	value, _, err = takeBytes(rest)
	return table, key, value, err
}

// decodeScan decodes a scan request: table | start | end | varint limit.
func decodeScan(payload []byte) (table, start, end string, limit int, err error) {
	table, rest, err := takeStr(payload)
	if err != nil {
		return "", "", "", 0, err
	}
	if start, rest, err = takeStr(rest); err != nil {
		return "", "", "", 0, err
	}
	if end, rest, err = takeStr(rest); err != nil {
		return "", "", "", 0, err
	}
	l, sz := binary.Varint(rest)
	if sz <= 0 {
		return "", "", "", 0, fmt.Errorf("%w: truncated scan limit", errMalformed)
	}
	return table, start, end, int(l), nil
}

func (n *ServerNode) get(payload, out []byte) ([]byte, error) {
	table, key, err := decodeKey(payload)
	if err != nil {
		return out, err
	}
	v, err := n.rs.Get(table, key)
	return append(out, v...), err
}

// put hands the engine a value that aliases the stream's read buffer;
// the store copies it before Put returns.
func (n *ServerNode) put(payload, out []byte) ([]byte, error) {
	table, key, value, err := decodePut(payload)
	if err != nil {
		return out, err
	}
	return out, n.rs.Put(table, key, value)
}

func (n *ServerNode) delete(payload, out []byte) ([]byte, error) {
	table, key, err := decodeKey(payload)
	if err != nil {
		return out, err
	}
	return out, n.rs.Delete(table, key)
}

// scan scans one hosted region's slice of [start, end) and encodes up
// to limit entries straight from the store's blocks into the reply: a
// u32 row count (little-endian, patched once the visit has ended), then
// per entry key | value | uvarint timestamp | flags (bit 0 = tombstone).
// Cross-region stitching is the client's job (it has the layout).
func (n *ServerNode) scan(payload, out []byte) ([]byte, error) {
	table, start, end, limit, err := decodeScan(payload)
	if err != nil {
		return out, err
	}
	at := len(out)
	out = append(out, 0, 0, 0, 0)
	var rows uint32
	_, err = n.rs.ScanFunc(table, start, end, limit, func(e kv.Entry) bool {
		out = appendStr(out, e.Key)
		out = appendBytes(out, e.Value)
		out = binary.AppendUvarint(out, e.Timestamp)
		var flags byte
		if e.Tombstone {
			flags |= 1
		}
		out = append(out, flags)
		rows++
		return true
	})
	if err != nil {
		return out, err
	}
	binary.LittleEndian.PutUint32(out[at:], rows)
	return out, nil
}

// handleAdopt runs the worker half of a failover: seed the new region
// from the replica copy and open it for serving. The master commits
// the region's table row as soon as the adoption has succeeded.
func (n *ServerNode) handleAdopt(w http.ResponseWriter, r *http.Request) {
	var spec hbase.AdoptSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad-body", err.Error())
		return
	}
	rep, err := n.rs.AdoptRegion(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "adopt-failed", err.Error())
		return
	}
	writeJSON(w, rep)
}

// handleRefollow repoints one hosted region's replica targets.
func (n *ServerNode) handleRefollow(w http.ResponseWriter, r *http.Request) {
	var up hbase.FollowerUpdate
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&up); err != nil {
		writeError(w, http.StatusBadRequest, "bad-body", err.Error())
		return
	}
	if err := n.rs.Refollow(up); err != nil {
		writeError(w, http.StatusConflict, CodeWrongRegion, err.Error())
		return
	}
	w.WriteHeader(http.StatusOK)
}

// handleEpoch accepts the master's epoch push after a layout change;
// ops carrying older epochs start bouncing with a reroute reply.
func (n *ServerNode) handleEpoch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Epoch int64 `json:"epoch"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad-body", err.Error())
		return
	}
	for {
		cur := n.epoch.Load()
		if req.Epoch <= cur || n.epoch.CompareAndSwap(cur, req.Epoch) {
			break
		}
	}
	w.WriteHeader(http.StatusOK)
}

// handleQuiesce blocks until the node's replicator has shipped all
// pending work — the per-node half of the cluster-wide barrier.
func (n *ServerNode) handleQuiesce(w http.ResponseWriter, r *http.Request) {
	n.rs.QuiesceReplication()
	w.WriteHeader(http.StatusOK)
}

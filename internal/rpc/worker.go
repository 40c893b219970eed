package rpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"met/internal/hbase"
	"met/internal/kv"
)

// ServerNode is one worker process's RPC front: the data plane
// (get/put/delete/scan, binary-framed) plus the control endpoints the
// master drives failover through (adopt, refollow, epoch push,
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
	mux.HandleFunc("POST /node/get", n.data(n.get))
	mux.HandleFunc("POST /node/put", n.data(n.put))
	mux.HandleFunc("POST /node/delete", n.data(n.delete))
	mux.HandleFunc("POST /node/scan", n.data(n.scan))
	mux.HandleFunc("POST /node/adopt", n.handleAdopt)
	mux.HandleFunc("POST /node/refollow", n.handleRefollow)
	mux.HandleFunc("POST /node/epoch", n.handleEpoch)
	mux.HandleFunc("POST /node/quiesce", n.handleQuiesce)
	n.Server = newServer(rs.Name(), mux, logw, rs.DebugConfig())
	return n
}

// RegionServer exposes the wrapped server (for tests and metnode).
func (n *ServerNode) RegionServer() *hbase.RegionServer { return n.rs }

// checkEpoch rejects data calls routed with a stale layout: a client
// epoch below the node's means the client missed at least one layout
// change and may be talking to the wrong server entirely.
func (n *ServerNode) checkEpoch(w http.ResponseWriter, r *http.Request) bool {
	h := r.Header.Get(HeaderEpoch)
	if h == "" {
		return true
	}
	ce, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-epoch", err.Error())
		return false
	}
	if ce < n.epoch.Load() {
		writeError(w, http.StatusConflict, CodeStaleEpoch,
			"client epoch "+h+" behind node epoch "+strconv.FormatInt(n.epoch.Load(), 10))
		return false
	}
	return true
}

// data is the frame every data op runs in: the epoch gate, the bounded
// body read, and the mapping of the op's error onto the wire. op keeps
// only its own steps: decode the body, call the engine, encode the
// reply.
func (n *ServerNode) data(op func(w http.ResponseWriter, body []byte) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !n.checkEpoch(w, r) {
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad-body", err.Error())
			return
		}
		if err := op(w, body); err != nil {
			dataError(w, err)
		}
	}
}

// dataError maps engine errors onto the wire: not-found and
// wrong-region are routing facts the client handles, everything else
// is a server fault.
func dataError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, kv.ErrNotFound):
		writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
	case errors.Is(err, hbase.ErrWrongRegionServer), errors.Is(err, kv.ErrClosed):
		// A moved/split/recovered region: the client must re-fetch the
		// layout and re-route, same as a stale epoch.
		writeError(w, http.StatusConflict, CodeWrongRegion, err.Error())
	case errors.Is(err, hbase.ErrServerStopped):
		writeError(w, http.StatusServiceUnavailable, "stopped", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func (n *ServerNode) get(w http.ResponseWriter, body []byte) error {
	table, rest, err := takeStr(body)
	if err != nil {
		return err
	}
	key, _, err := takeStr(rest)
	if err != nil {
		return err
	}
	v, err := n.rs.Get(table, key)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(v)
	return nil
}

func (n *ServerNode) put(w http.ResponseWriter, body []byte) error {
	table, rest, err := takeStr(body)
	if err != nil {
		return err
	}
	key, rest, err := takeStr(rest)
	if err != nil {
		return err
	}
	val, _, err := takeBytes(rest)
	if err != nil {
		return err
	}
	return n.rs.Put(table, key, val)
}

func (n *ServerNode) delete(w http.ResponseWriter, body []byte) error {
	table, rest, err := takeStr(body)
	if err != nil {
		return err
	}
	key, _, err := takeStr(rest)
	if err != nil {
		return err
	}
	return n.rs.Delete(table, key)
}

// scan scans one hosted region's slice of [start, end) and returns up
// to limit entries, binary-framed: uvarint count, then per entry key |
// value | uvarint timestamp | flags (bit 0 = tombstone). Cross-region
// stitching is the client's job (it has the layout).
func (n *ServerNode) scan(w http.ResponseWriter, body []byte) error {
	table, rest, err := takeStr(body)
	if err != nil {
		return err
	}
	start, rest, err := takeStr(rest)
	if err != nil {
		return err
	}
	end, rest, err := takeStr(rest)
	if err != nil {
		return err
	}
	limit, sz := binary.Varint(rest)
	if sz <= 0 {
		return errors.New("rpc: truncated scan limit")
	}
	entries, err := n.rs.Scan(table, start, end, int(limit))
	if err != nil {
		return err
	}
	out := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		out = appendStr(out, e.Key)
		out = appendBytes(out, e.Value)
		out = binary.AppendUvarint(out, e.Timestamp)
		var flags byte
		if e.Tombstone {
			flags |= 1
		}
		out = append(out, flags)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(out)
	return nil
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
// data calls carrying older epochs start bouncing with 409.
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

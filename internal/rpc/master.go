package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"

	"met/internal/hbase"
)

// MasterNode is the master process's RPC front: the layout/registration
// control plane and the wire half of failover. It wraps the
// catalog-owning hbase.LayoutMaster and keeps the one piece of state
// the catalog does not: which address each live worker serves on.
// mu guards the address book; layout state lives in the LayoutMaster
// behind its own lock.
type MasterNode struct {
	*Server
	lm *hbase.LayoutMaster
	hc *http.Client

	mu    sync.Mutex
	addrs map[string]string // server name -> "host:port"
}

// NewMasterNode builds the RPC front for an opened layout master.
func NewMasterNode(lm *hbase.LayoutMaster, logw io.Writer) *MasterNode {
	n := &MasterNode{
		lm:    lm,
		hc:    &http.Client{Timeout: 30 * time.Second},
		addrs: make(map[string]string),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /master/register", n.handleRegister)
	mux.HandleFunc("GET /master/layout", n.handleLayout)
	mux.HandleFunc("POST /master/recover", n.handleRecover)
	n.Server = NewServer("master", mux, logw)
	return n
}

// LayoutReply is GET /master/layout's body: everything a client needs
// to route — the epoch, the region map, and each server's address.
type LayoutReply struct {
	Epoch   int64                `json:"epoch"`
	Regions []hbase.LayoutRegion `json:"regions"`
	Addrs   map[string]string    `json:"addrs"`
	Servers []string             `json:"servers"`
}

// registerReq is a worker announcing itself and its serving address.
type registerReq struct {
	Server string `json:"server"`
	Addr   string `json:"addr"`
}

// Register is a worker's call to POST /master/register: it announces
// server's serving address (empty for the manifest-only first phase)
// and returns the server's manifest. A master still binding its
// listener refuses the connection; Register retries that for up to 30
// seconds.
func Register(masterAddr, server, addr string) (hbase.NodeManifest, error) {
	var man hbase.NodeManifest
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := callJSON(http.DefaultClient, http.MethodPost, masterAddr, "/master/register",
			registerReq{Server: server, Addr: addr}, &man)
		if !errors.Is(err, syscall.ECONNREFUSED) || time.Now().After(deadline) {
			return man, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// handleRegister records the worker's address and hands back its
// manifest: config, replication factor, assigned regions, epoch.
// Registration is idempotent and two-phase by design: a worker first
// registers with an empty address to fetch its manifest (it cannot
// bind its data listener before it has opened its regions), then
// re-registers with the bound address once it serves.
func (n *MasterNode) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerReq
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad-body", err.Error())
		return
	}
	man, err := n.lm.Manifest(req.Server)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown-server", err.Error())
		return
	}
	if req.Addr != "" {
		n.mu.Lock()
		n.addrs[req.Server] = req.Addr
		n.mu.Unlock()
	}
	writeJSON(w, man)
}

// handleLayout serves the routing table.
func (n *MasterNode) handleLayout(w http.ResponseWriter, r *http.Request) {
	epoch, regions := n.lm.Layout()
	n.mu.Lock()
	addrs := make(map[string]string, len(n.addrs))
	for k, v := range n.addrs {
		addrs[k] = v
	}
	n.mu.Unlock()
	writeJSON(w, LayoutReply{
		Epoch: epoch, Regions: regions, Addrs: addrs, Servers: n.lm.ServerNames(),
	})
}

// recoverReq names the dead worker; RecoverReply is the orchestration's
// account of what moved where.
type recoverReq struct {
	Server string `json:"server"`
}

// RecoverReply summarizes one orchestrated failover.
type RecoverReply struct {
	Epoch   int64             `json:"epoch"`
	Regions []RecoveredRegion `json:"regions"`
}

// RecoveredRegion pairs a recovery plan entry with the adopting
// worker's report.
type RecoveredRegion = hbase.RecoveredRegion

// handleRecover runs a dead worker's failover. A failed reply leaves
// whatever regions did fail over committed and routable and the dead
// worker a member; POSTing again recovers the remainder.
func (n *MasterNode) handleRecover(w http.ResponseWriter, r *http.Request) {
	var req recoverReq
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad-body", err.Error())
		return
	}
	reply, err := n.recover(req.Server)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "recover-failed", err.Error())
		return
	}
	writeJSON(w, reply)
}

// recover hands hbase.LayoutMaster.RecoverServer — the plan, adopt,
// commit loop shared with the in-process master — the two steps that
// cross the wire, then pushes the new routing epoch to the survivors.
func (n *MasterNode) recover(dead string) (*RecoverReply, error) {
	regions, err := n.lm.RecoverServer(dead,
		func(spec hbase.AdoptSpec) (hbase.AdoptionReport, error) {
			var rep hbase.AdoptionReport
			addr, ok := n.addrOf(spec.Source)
			if !ok {
				return rep, fmt.Errorf("rpc: no address for adopter %s", spec.Source)
			}
			err := callJSON(n.hc, http.MethodPost, addr, "/node/adopt", spec, &rep)
			return rep, err
		},
		func(up hbase.FollowerUpdate) {
			// Best effort: a missed refollow is reconciled by the next
			// recovery's re-pick.
			if addr, ok := n.addrOf(up.Server); ok {
				if err := callJSON(n.hc, http.MethodPost, addr, "/node/refollow", up, nil); err != nil {
					n.lg.Printf("recover %s: refollow %s on %s: %v", dead, up.Region, up.Server, err)
				}
			}
		})
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	delete(n.addrs, dead)
	n.mu.Unlock()
	reply := &RecoverReply{Epoch: n.lm.Epoch(), Regions: regions}
	// Best effort too: a worker that misses the push just keeps serving
	// stale-route reroutes one layout change later than ideal.
	for _, sn := range n.lm.ServerNames() {
		if addr, ok := n.addrOf(sn); ok {
			if err := callJSON(n.hc, http.MethodPost, addr, "/node/epoch", map[string]int64{"epoch": reply.Epoch}, nil); err != nil {
				n.lg.Printf("recover %s: epoch push to %s: %v", dead, sn, err)
			}
		}
	}
	return reply, nil
}

// addrOf looks up a worker's registered address.
func (n *MasterNode) addrOf(server string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.addrs[server]
	return a, ok
}

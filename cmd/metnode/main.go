// Command metnode runs ONE cluster process: either the layout master
// (the catalog owner and failover orchestrator) or a single region
// server, each serving its half of the met/internal/rpc protocol. A
// networked cluster is one master plus N server processes over a
// shared data directory:
//
//	metnode -role master -data DIR [-addr 127.0.0.1:0] [-addr-file F]
//	metnode -role server -name rs0 -data DIR -master HOST:PORT
//	        [-addr 127.0.0.1:0] [-addr-file F]
//
// The data directory must already hold a bootstrapped cluster (a META
// catalog with committed membership — `metbench -durable DIR` or any
// durable run creates one). The master process opens the catalog
// exclusively; server processes never touch it, fetching their
// manifest (config, assigned regions, routing epoch) from the master
// over RPC instead, so exactly one process owns each WAL.
//
// A server process serves its data plane on its one listener too:
// clients upgrade a connection (GET /node/stream, Upgrade: met-frames)
// to a persistent frame stream and run their get/put/delete/scan ops
// on it, so no second port or address file is needed. The same
// listener serves the debug plane — /metrics (a server's whole met_*
// tree beside the rpc histograms and process stats), /healthz,
// /readyz, /debug/slowops, /debug/vars, /debug/pprof/ — so `curl
// HOST:PORT/metrics` shows what any node is doing. With -v the process
// logs one line per HTTP request and one per data-plane op.
//
// With -addr-file the process writes its bound address (host:port,
// one line) to the file once it is serving — listeners default to
// port 0, so parents discover the chosen port by reading the file.
// SIGINT/SIGTERM drain gracefully within 10 s: the readiness probe
// flips to 503 and new streams are refused, in-flight requests and ops
// finish and reply, idle streams close at once, and the engine shuts
// down cleanly. SIGKILL is the failure mode the cluster is built to
// survive.
package main

import (
	"context"
	"flag"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"met/internal/hbase"
	"met/internal/rpc"
)

func main() {
	role := flag.String("role", "", "process role: master or server")
	name := flag.String("name", "", "this region server's catalog name (role=server)")
	data := flag.String("data", "", "cluster data directory (role=master)")
	master := flag.String("master", "", "master address host:port (role=server)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address here once serving")
	verbose := flag.Bool("v", false, "log every HTTP request and every data-plane op (one line per op) to stderr")
	flag.Parse()

	logw := io.Writer(io.Discard)
	if *verbose {
		logw = os.Stderr
	}
	switch *role {
	case "master":
		if *data == "" {
			log.Fatal("metnode: -role master requires -data DIR")
		}
		runMaster(*data, *addr, *addrFile, logw)
	case "server":
		if *name == "" || *master == "" {
			log.Fatal("metnode: -role server requires -name NAME and -master ADDR")
		}
		runServer(*name, *master, *addr, *addrFile, logw)
	default:
		log.Fatal("metnode: -role must be master or server")
	}
}

// runMaster owns the catalog and serves the control plane until a
// termination signal drains it.
func runMaster(dataDir, addr, addrFile string, logw io.Writer) {
	lm, err := hbase.OpenLayoutMaster(dataDir)
	if err != nil {
		log.Fatalf("metnode: open layout master: %v", err)
	}
	node := rpc.NewMasterNode(lm, logw)
	if err := node.Serve(addr); err != nil {
		log.Fatalf("metnode: serve: %v", err)
	}
	writeAddrFile(addrFile, node.Addr())
	log.Printf("metnode: master serving on %s (%d servers in catalog)", node.Addr(), len(lm.ServerNames()))

	waitSignal()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = node.Drain(ctx)
	node.Close()
	lm.Close()
}

// runServer fetches its manifest from the master, opens its regions
// (WAL replay and all), serves the data plane, and announces its bound
// address back so clients can route to it.
func runServer(name, masterAddr, addr, addrFile string, logw io.Writer) {
	// Phase one: manifest only (empty address — we cannot serve before
	// the regions are open). The master may still be binding; Register
	// retries.
	man, err := rpc.Register(masterAddr, name, "")
	if err != nil {
		log.Fatalf("metnode: register with master %s: %v", masterAddr, err)
	}
	rs, err := hbase.OpenServerNode(man)
	if err != nil {
		log.Fatalf("metnode: open server node %s: %v", name, err)
	}
	node := rpc.NewServerNode(rs, man.Epoch, logw)
	if err := node.Serve(addr); err != nil {
		log.Fatalf("metnode: serve: %v", err)
	}
	// Phase two: announce the bound address; from here the master can
	// route recovery work (adoptions, epoch pushes) at this process.
	if _, err := rpc.Register(masterAddr, name, node.Addr()); err != nil {
		log.Fatalf("metnode: announce address: %v", err)
	}
	writeAddrFile(addrFile, node.Addr())
	log.Printf("metnode: %s serving on %s (%d regions, epoch %d)",
		name, node.Addr(), rs.NumRegions(), man.Epoch)

	waitSignal()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = node.Drain(ctx)
	node.Close()
	rs.Shutdown()
}

// writeAddrFile publishes the bound address atomically (write-then-
// rename), so a polling parent never reads a half-written file.
func writeAddrFile(path, addr string) {
	if path == "" {
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		log.Fatalf("metnode: write addr file: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		log.Fatalf("metnode: publish addr file: %v", err)
	}
}

// waitSignal blocks until SIGINT or SIGTERM.
func waitSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
}

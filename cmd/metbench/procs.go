package main

import (
	"fmt"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"met"
	"met/internal/rpc"
)

// procState records the real OS processes a -procs run drove, for the
// JSON report (CI asserts the count).
type procState struct {
	MasterPID  int            `json:"master_pid"`
	WorkerPIDs map[string]int `json:"worker_pids"`
	Killed     []string       `json:"killed,omitempty"`
}

// child is one spawned metnode process.
type child struct {
	name string
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed by the reaper once the process exited
}

// children are every metnode process this run spawned.
var children []*child

// spawn starts one metnode and reaps it on exit so kills never leave
// zombies behind.
func spawn(bin string, args ...string) *child {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatalf("metbench: spawn %s %v: %v", bin, args, err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(c.done)
	}()
	children = append(children, c)
	return c
}

// fatalf is log.Fatalf for every path that may run after spawn: it
// kills and reaps each child still running first, because log.Fatalf
// exits without running the deferred cleanup.
func fatalf(format string, v ...any) {
	for _, c := range children {
		c.kill9()
	}
	log.Fatalf(format, v...)
}

// kill9 delivers an un-catchable SIGKILL — the real process-death the
// failover path exists for — and waits for the corpse to be reaped.
func (c *child) kill9() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// terminate asks for a graceful drain and waits briefly.
func (c *child) terminate() {
	_ = c.cmd.Process.Signal(os.Interrupt)
	select {
	case <-c.done:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// waitAddrFile polls for a metnode's published address.
func waitAddrFile(path string) string {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(path); err == nil {
			return strings.TrimSpace(string(b))
		}
		if time.Now().After(deadline) {
			fatalf("metbench: timed out waiting for %s", path)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitReady polls a node's readiness probe.
func waitReady(addr string) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			fatalf("metbench: %s never became ready", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// findNodeBin resolves the metnode binary: an explicit -node-bin, a
// sibling of this executable, or $PATH.
func findNodeBin(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	if self, err := os.Executable(); err == nil {
		sib := filepath.Join(filepath.Dir(self), "metnode")
		if _, err := os.Stat(sib); err == nil {
			return sib
		}
	}
	if p, err := exec.LookPath("metnode"); err == nil {
		return p
	}
	fatalf("metbench: -procs needs the metnode binary (build cmd/metnode and pass -node-bin, or put it next to metbench)")
	return ""
}

// tailLossBound is the mid-burst kill's loss bound per dead region: the
// acknowledged records the tail shipper may not have appended to a
// follower yet when the primary dies.
const tailLossBound = 2 * 64

// runProcs is the networked multi-process scenario: bootstrap a durable
// cluster in this process, stop it, and restart it as 1 + N real OS
// processes (metnode master + metnode servers) over the RPC layer. The
// bench drives acknowledged writes through the networked client, then
// (with -failover) proves the loss bounds against real process death:
//
//   - Phase A: quiesce replication, kill -9 one worker, quarantine its
//     primary directories AND its WAL (its disk died with it), recover
//     through the master process. Loss must be exactly zero.
//   - Phase B: write a burst and kill -9 a second worker mid-burst with
//     no quiesce. Loss must stay within tailLossBound records per dead
//     region.
//
// Any violation exits non-zero, so CI runs this as a per-PR gate.
func runProcs(dataDir string, cfg met.ServerConfig, servers, ops int, seed uint64,
	nodeBin string, doFailover bool, jsonOut string) {
	if servers < 3 {
		fmt.Fprintln(os.Stderr, "metbench: -procs raises -servers to 3 (a victim needs two survivors)")
		servers = 3
	}
	nodeBin = findNodeBin(nodeBin)
	// Small heap so flushes ship real SSTables at bench volumes; the
	// shipped WAL tail covers what the SSTables don't. The heap lands in
	// the catalog and comes back to every worker through its manifest.
	cfg.HeapBytes = 1 << 20

	// Bootstrap in-process: committed membership, tables, nothing else.
	cluster, err := met.NewClusterConfig(servers, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	bootstrapTables(cluster.Master)
	var names []string
	for _, rs := range cluster.Master.Servers() {
		names = append(names, rs.Name())
	}
	cluster.Master.HardStop()

	// Restart as real processes.
	runDir := filepath.Join(dataDir, "run")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("procs: starting 1 master + %d server processes (%s)...\n", servers, nodeBin)
	masterFile := filepath.Join(runDir, "master.addr")
	masterProc := spawn(nodeBin, "-role", "master", "-data", dataDir, "-addr-file", masterFile)
	masterAddr := waitAddrFile(masterFile)
	workers := make(map[string]*child, len(names))
	for _, name := range names {
		f := filepath.Join(runDir, name+".addr")
		workers[name] = spawn(nodeBin, "-role", "server", "-name", name,
			"-master", masterAddr, "-addr-file", f)
		workers[name].name = name
	}
	for _, name := range names {
		workers[name].addr = waitAddrFile(filepath.Join(runDir, name+".addr"))
		waitReady(workers[name].addr)
	}
	defer func() {
		for _, w := range workers {
			if w != nil {
				w.kill9()
			}
		}
		masterProc.terminate()
	}()
	procs := &procState{MasterPID: masterProc.cmd.Process.Pid, WorkerPIDs: map[string]int{}}
	for name, w := range workers {
		procs.WorkerPIDs[name] = w.cmd.Process.Pid
	}
	fmt.Printf("procs: cluster up — master pid %d, workers %v\n", procs.MasterPID, procs.WorkerPIDs)

	c, err := rpc.Dial(masterAddr)
	if err != nil {
		fatalf("metbench: dial master: %v", err)
	}
	acked := newAckLog(seed)
	fmt.Printf("procs: writing %d rows over RPC across %d worker processes...\n", ops, servers)
	acked.write(c, ops, "v")
	acked.mustVerify(c, "procs with every process alive")

	if !doFailover {
		fmt.Printf("procs: OK — %d rows via %d processes\n", len(acked.rows), servers+1)
		writeProcsResult(jsonOut, ops, servers, procs, 0, len(acked.rows))
		return
	}

	// killAndRecover kill -9s the live worker hosting the most regions
	// (by the client's refreshed view of the layout), takes its disk
	// away, recovers it through the master process and returns how many
	// regions died with it.
	killAndRecover := func(phase string) (deadRegions int) {
		if err := c.Refresh(); err != nil {
			fatalf("%v", err)
		}
		assignment := make(map[string]string)
		for _, r := range c.Regions() {
			assignment[r.Name] = r.Server
		}
		victim, regions := pickVictim(assignment)
		fmt.Printf("procs: %s — kill -9 %s (pid %d, %d regions), quarantining its disk...\n",
			phase, victim, workers[victim].cmd.Process.Pid, len(regions))
		workers[victim].kill9()
		quarantine(dataDir, regions, victim)
		workers[victim] = nil
		procs.Killed = append(procs.Killed, victim)
		reply, err := c.Recover(victim)
		if err != nil {
			fatalf("metbench: procs recover %s: %v", victim, err)
		}
		for _, rr := range reply.Regions {
			fmt.Printf("procs: %s -> %s on %s (%d replica SSTables, %d tail records, recovered ts %d)\n",
				rr.Spec.Region, rr.Spec.NewRegion, rr.Spec.Source,
				rr.Report.ReplicaFiles, rr.Report.TailWrites, rr.Report.RecoveredTS)
		}
		return len(regions)
	}

	// Phase A: quiesced kill. After the replication barrier the replicas
	// (SSTables + shipped WAL tail) cover every acknowledged write, so a
	// process death plus total disk loss must cost nothing.
	if err := c.Quiesce(); err != nil {
		fatalf("metbench: procs quiesce: %v", err)
	}
	killAndRecover("phase A, after quiesce")
	acked.mustVerify(c, "procs phase A (quiesced kill — must be exactly zero)")

	// Phase B: mid-burst kill, no quiesce. Only the tail appends the
	// shipper had not made yet are lost: at most tailLossBound
	// acknowledged records per dead region.
	fmt.Printf("procs: phase B — %d-row burst, then kill -9 mid-burst with no quiesce...\n", ops)
	acked.write(c, ops, "hot")
	deadRegions := killAndRecover("phase B, mid-burst")
	missing := acked.verify(c)
	fmt.Printf("procs: after mid-burst kill — %d acked rows, %d missing\n", len(acked.rows), missing)
	bound := tailLossBound * deadRegions
	if missing > bound {
		fatalf("metbench: procs phase B lost %d acknowledged writes; the bound is %d (%d records x %d regions)",
			missing, bound, tailLossBound, deadRegions)
	}
	// The cluster keeps serving on the survivors.
	if err := c.Put("users", "zz-post-failover", []byte("alive")); err != nil {
		fatalf("metbench: procs cluster dead after recovery: %v", err)
	}
	fmt.Printf("procs: OK — quiesced kill lost 0, mid-burst kill lost %d <= %d bound, %d processes driven, 2 killed\n",
		missing, bound, servers+1)
	writeProcsResult(jsonOut, ops, servers, procs, missing, len(acked.rows))
}

// writeProcsResult emits the machine-readable report; the quiesced
// phase's loss is zero by the time anything is reported.
func writeProcsResult(jsonOut string, ops, servers int, procs *procState, lostBurst, acked int) {
	if jsonOut == "" {
		return
	}
	writeResultJSON(jsonOut, &result{
		Workload: "procs", Ops: ops, Servers: servers, Durable: true,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Completed:           int64(acked),
		LostWritesUnflushed: int64(lostBurst),
		Procs:               procs,
	})
}

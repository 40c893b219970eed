package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"met/internal/hbase"
	"met/internal/hdfs"
	"met/internal/rpc"
)

const (
	numServers = 3
	numRegions = 6 // two per server under the stock round-robin placement
	replicas   = 2
	loaders    = 16
)

// nodeProcs is the GOMAXPROCS every metnode is started with: the
// machine's cores shared out among the region servers, at least one. Left
// at the Go default (every process sized for the whole machine) the three
// servers' garbage collectors each start workers on every core; on two
// cores that ran more threads than the machine has, cost read_cold over
// a quarter of its throughput and quadrupled its run-to-run spread
// (README.md, "Repeatability").
func nodeProcs() int { return max(1, runtime.NumCPU()/numServers) }

// serverConfig is the one configuration every workload runs under: the
// stock 0.39/0.26 cache/memstore split and 64 KB blocks, on a heap
// small enough that write_heavy cycles flushes and compactions inside a
// run. Every Put is acknowledged only after the group-commit fsync (the
// engine's only flush policy; nothing here relaxes it).
func serverConfig(dataDir string) hbase.ServerConfig {
	cfg := hbase.DefaultServerConfig()
	cfg.HeapBytes = heapBytes
	cfg.DataDir = dataDir
	return cfg
}

// bootstrap creates the durable cluster in-process, loads every record
// at version 0, flushes every store, waits for replication and
// hard-stops, leaving a data directory that real processes reopen.
func bootstrap(dataDir string, w *workload) error {
	m, err := hbase.NewDurableMaster(hdfs.NewNamenode(replicas), dataDir)
	if err != nil {
		return err
	}
	defer m.HardStop()
	for i := 0; i < numServers; i++ {
		if _, err := m.AddServer(fmt.Sprintf("rs%d", i), serverConfig(dataDir)); err != nil {
			return err
		}
	}
	if _, err := m.CreateTable(w.table(), w.ycsb.SplitKeys()); err != nil {
		return err
	}
	perServer := map[string]int{}
	for _, host := range m.Assignment() {
		perServer[host]++
	}
	for _, rs := range m.Servers() {
		if perServer[rs.Name()] != numRegions/numServers {
			return fmt.Errorf("bootstrap: placement %v is not %d regions per server", perServer, numRegions/numServers)
		}
	}

	client := hbase.NewClient(m)
	var wg sync.WaitGroup
	errs := make([]error, loaders)
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := int64(l); i < w.records; i += loaders {
				key := w.ycsb.Key(i)
				if err := client.Put(w.table(), key, makeValue(nil, key, 0)); err != nil {
					errs[l] = err
					return
				}
			}
		}(l)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("bootstrap: load: %w", err)
	}
	for _, rs := range m.Servers() {
		for _, r := range rs.Regions() {
			if err := r.Store().Flush(); err != nil {
				return fmt.Errorf("bootstrap: flush %s: %w", r.Name(), err)
			}
		}
	}
	m.QuiesceReplication()
	return nil
}

// cluster is the networked cluster under test: one layout master and
// three region servers behind internal/rpc, either as metnode OS
// processes (nodeBin set) or hosted inside this process on loopback
// listeners (the traced pass and -quick), which is the same wire minus
// the fork/exec and lets the bench hold the RegionServers.
type cluster struct {
	dataDir string
	nodeBin string // "" hosts the nodes in-process

	client *rpc.Client

	master  *exec.Cmd
	workers []*exec.Cmd

	lm         *hbase.LayoutMaster
	masterNode *rpc.MasterNode
	nodes      []*rpc.ServerNode
}

func serverNames() []string {
	names := make([]string, numServers)
	for i := range names {
		names[i] = fmt.Sprintf("rs%d", i)
	}
	return names
}

// startCluster brings the master and every worker up over dataDir and
// returns once each /readyz answers 200.
func startCluster(dataDir, nodeBin string) (*cluster, error) {
	c := &cluster{dataDir: dataDir, nodeBin: nodeBin}
	if err := c.startMaster(); err != nil {
		c.kill()
		return nil, err
	}
	if err := c.startWorkers(); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// addrFile is where the metnode called name publishes its address.
func (c *cluster) addrFile(name string) string {
	return filepath.Join(c.dataDir, "run", name+".addr")
}

func (c *cluster) masterAddr() string {
	if c.masterNode != nil {
		return c.masterNode.Addr()
	}
	return readAddr(c.addrFile("master"))
}

func (c *cluster) startMaster() error {
	if c.nodeBin == "" {
		lm, err := hbase.OpenLayoutMaster(c.dataDir)
		if err != nil {
			return err
		}
		c.lm = lm
		c.masterNode = rpc.NewMasterNode(lm, io.Discard)
		return c.masterNode.Serve("127.0.0.1:0")
	}
	if err := os.MkdirAll(filepath.Join(c.dataDir, "run"), 0o755); err != nil {
		return err
	}
	cmd, err := c.spawn("master", "-role", "master", "-data", c.dataDir, "-addr-file", c.addrFile("master"))
	if err != nil {
		return err
	}
	c.master = cmd
	return waitReady(c.addrFile("master"))
}

// startWorkers opens every region server (WAL replay and region open
// included), waits for readiness and dials a fresh client.
func (c *cluster) startWorkers() error {
	master := c.masterAddr()
	for _, name := range serverNames() {
		if c.nodeBin == "" {
			node, err := hostWorker(master, name)
			if err != nil {
				return err
			}
			c.nodes = append(c.nodes, node)
			continue
		}
		_ = os.Remove(c.addrFile(name)) // a respawn must not read the dead worker's port
		cmd, err := c.spawn(name, "-role", "server", "-name", name, "-master", master, "-addr-file", c.addrFile(name))
		if err != nil {
			return err
		}
		c.workers = append(c.workers, cmd)
	}
	if c.nodeBin != "" {
		for _, name := range serverNames() {
			if err := waitReady(c.addrFile(name)); err != nil {
				return err
			}
		}
	}
	client, err := rpc.Dial(master)
	c.client = client
	return err
}

// spawn starts one metnode whose log goes to dataDir/run/<name>.log.
// Pdeathsig makes the kernel kill the child if the bench dies first, so
// no run can leave a server behind.
func (c *cluster) spawn(name string, args ...string) (*exec.Cmd, error) {
	logf, err := os.OpenFile(filepath.Join(c.dataDir, "run", name+".log"),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(c.nodeBin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nodeProcs()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", c.nodeBin, err)
	}
	return cmd, nil
}

// hostWorker runs metnode's worker start-up inside this process:
// register for the manifest, open the server node, serve, announce the
// bound address.
func hostWorker(master, name string) (*rpc.ServerNode, error) {
	var man hbase.NodeManifest
	if err := register(master, name, "", &man); err != nil {
		return nil, err
	}
	rs, err := hbase.OpenServerNode(man)
	if err != nil {
		return nil, err
	}
	node := rpc.NewServerNode(rs, man.Epoch, io.Discard)
	if err := node.Serve("127.0.0.1:0"); err != nil {
		rs.Shutdown()
		return nil, err
	}
	if err := register(master, name, node.Addr(), &man); err != nil {
		node.Close()
		rs.Shutdown()
		return nil, err
	}
	return node, nil
}

func register(master, name, addr string, man *hbase.NodeManifest) error {
	body, _ := json.Marshal(map[string]string{"server": name, "addr": addr})
	resp, err := http.Post("http://"+master+"/master/register", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("register %s: %s", name, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(man)
}

func readAddr(addrFile string) string {
	b, _ := os.ReadFile(addrFile)
	return strings.TrimSpace(string(b))
}

// waitReady polls for a node's published address and then its
// readiness probe.
func waitReady(addrFile string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if addr := readAddr(addrFile); addr != "" {
			if resp, err := http.Get("http://" + addr + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s: node never became ready", addrFile)
}

// killWorkers is the crash the acked_lost check needs: SIGKILL for
// processes; for hosted nodes a listener close plus Shutdown, which
// like HardStop flushes no store. Either way only WAL and SSTables
// survive. Each corpse is reaped before returning.
func (c *cluster) killWorkers() {
	for _, cmd := range c.workers {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	c.workers = nil
	for _, n := range c.nodes {
		n.Close()
		n.RegionServer().Shutdown()
	}
	c.nodes = nil
}

// kill tears the whole cluster down without draining; a nil cluster
// (one that failed to start, and cleaned up after itself) is a no-op.
func (c *cluster) kill() {
	if c == nil {
		return
	}
	c.killWorkers()
	if c.master != nil {
		_ = c.master.Process.Kill()
		_ = c.master.Wait()
		c.master = nil
	}
	if c.masterNode != nil {
		c.masterNode.Close()
		c.lm.Close()
		c.masterNode = nil
	}
}

// pids lists the cluster's processes (this one when hosted in-process).
func (c *cluster) pids() []int {
	if c.nodeBin == "" {
		return []int{os.Getpid()}
	}
	out := []int{c.master.Process.Pid}
	for _, w := range c.workers {
		out = append(out, w.Process.Pid)
	}
	return out
}

// workerAddrs lists the workers' serving addresses.
func (c *cluster) workerAddrs() []string {
	var out []string
	for _, n := range c.nodes {
		out = append(out, n.Addr())
	}
	if c.nodeBin != "" {
		for _, name := range serverNames() {
			out = append(out, readAddr(c.addrFile(name)))
		}
	}
	return out
}

// cpuSeconds is the user+system CPU the given processes have used, from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks/s).
func cpuSeconds(pids []int) (float64, error) {
	var ticks int64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// The command name (field 2) may contain spaces; fields after the
		// closing parenthesis are positional.
		f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		if len(f) < 13 {
			return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
		}
		ut, _ := strconv.ParseInt(f[11], 10, 64)
		st, _ := strconv.ParseInt(f[12], 10, 64)
		ticks += ut + st
	}
	return float64(ticks) / 100, nil
}

// hostTicks reads the machine-wide CPU line of /proc/stat: the ticks a
// hypervisor took from this machine's CPUs while they had work (steal)
// and all ticks counted.
func hostTicks() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, field := range f[1:9] {
		v, _ := strconv.ParseInt(field, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// hostSample is the CPU the given processes have used, the resident
// memory of the cluster's own processes and the machine's tick counters
// at one window boundary.
type hostSample struct {
	cpu          float64
	rssMB        float64
	steal, total int64
}

// sampleHost takes n+1 samples, one at begin and one after each of n
// windows, and delivers them (or the first error) when the last is taken.
func sampleHost(pids, nodePids []int, begin time.Time, window time.Duration, n int) <-chan hostSeries {
	out := make(chan hostSeries, 1)
	go func() {
		var hs hostSeries
		for i := 0; i <= n && hs.err == nil; i++ {
			time.Sleep(time.Until(begin.Add(time.Duration(i) * window)))
			var s hostSample
			if s.cpu, hs.err = cpuSeconds(pids); hs.err == nil {
				s.steal, s.total, hs.err = hostTicks()
			}
			if hs.err == nil {
				s.rssMB, hs.err = statusMB(nodePids, "VmRSS:")
			}
			hs.samples = append(hs.samples, s)
		}
		out <- hs
	}()
	return out
}

type hostSeries struct {
	samples []hostSample
	err     error
}

// statusMB sums one memory field of /proc/<pid>/status — "VmRSS:" (now
// resident) or "VmHWM:" (its peak) — over the given processes.
func statusMB(pids []int, field string) (float64, error) {
	var kb int64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, field); ok {
				n, _ := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
				kb += n
			}
		}
	}
	return float64(kb) / 1024, nil
}

// handlerTotals scrapes every worker's /metrics and returns, per data
// path, the running sum (seconds) and count of rpc_op_latency_seconds
// across workers; the caller subtracts two scrapes.
func (c *cluster) handlerTotals() (sum, count map[string]float64, err error) {
	sum, count = map[string]float64{}, map[string]float64{}
	series := map[string]map[string]float64{
		`rpc_op_latency_seconds_sum{op="`:   sum,
		`rpc_op_latency_seconds_count{op="`: count,
	}
	for _, addr := range c.workerAddrs() {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return nil, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		for _, line := range strings.Split(string(body), "\n") {
			for prefix, into := range series {
				if rest, ok := strings.CutPrefix(line, prefix); ok {
					op, val, _ := strings.Cut(rest, `"} `)
					v, _ := strconv.ParseFloat(strings.TrimSpace(val), 64)
					into[op] += v
				}
			}
		}
	}
	return sum, count, nil
}

// Command bench is the repository's benchmark: four YCSB-shaped
// workloads driven closed-loop from this one process against a durable
// cluster of 1 master + 3 region-server metnode OS processes, with a
// per-layer budget measured from outside the program. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1 [-out FILE]
//	bench -compare A.json B.json
//	bench -spec            # print BENCHMARK.json
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"met/internal/kv"
)

// options is one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// quick hosts the "process" cluster in this process too and shrinks
	// warm-ups and probes: the smoke test's mode, needing no metnode
	// binary. Its numbers are not comparable with a real run's.
	quick   bool
	nodeBin string
	workDir string // scratch for data directories, removed afterwards
}

func main() {
	var o options
	workloadName := flag.String("workload", "all", "workload to run: read_hot, read_cold, write_heavy, mixed_scan or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same operations")
	flag.Float64Var(&o.seconds, "seconds", float64(runSeconds), "length of each measured phase")
	trace := flag.Int("trace", 0, "1 adds the traced in-process pass and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: no OS processes, short warm-ups (numbers not comparable)")
	flag.StringVar(&o.nodeBin, "node-bin", filepath.Join(".bench_build", "bin", "metnode"), "metnode binary")
	flag.StringVar(&o.workDir, "work-dir", filepath.Join(".bench_build", "run"), "scratch directory for cluster data (on the filesystem to be measured)")
	out := flag.String("out", "", "append this run's full record (environment, every metric) to FILE")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	o.trace = *trace != 0

	switch {
	case *spec:
		b, _ := json.MarshalIndent(benchmarkSpec(), "", "  ")
		fmt.Println(string(b))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	var ws []*workload
	if *workloadName == "all" {
		ws = workloads()
	} else if w := findWorkload(*workloadName); w != nil {
		ws = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	o.workDir = filepath.Join(o.workDir, fmt.Sprint(os.Getpid()))
	ok := true
	for _, w := range ws {
		rec, err := runWorkload(o, w)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		rec.print(os.Stdout)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		fmt.Println(rec.resultLine(rec.Trace))
		ok = ok && rec.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// record is one run of one workload: what the numbers are relative to,
// every metric measured, and the checks made on them.
type record struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Trace    bool        `json:"trace"`
	Seconds  float64     `json:"seconds"`
	Env      environment `json:"env"`

	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Checks    []string `json:"checks"` // each "ok: ..." or "FAILED: ..." or "note: ..."

	Metrics map[string]float64 `json:"metrics"`
	// Windows is the multi-process phase second by second, so a reader
	// of an -out file can see what the reported medians were taken over.
	Windows []window `json:"windows,omitempty"`

	spans []span
}

// window is one second of the multi-process phase: the ops that
// completed in it, their latency percentiles, the CPU the bench and the
// metnode processes used, and the share of the machine's CPU time the
// hypervisor took away meanwhile.
type window struct {
	Ops        int     `json:"ops"`
	P50US      float64 `json:"p50_us"`
	P95US      float64 `json:"p95_us"`
	CPUMS      float64 `json:"cpu_ms"`
	RSSMB      float64 `json:"rss_mb"` // at the window's end
	StealShare float64 `json:"steal_share"`
}

// windowsOf cuts a phase's spans at the sampler's boundaries (an op
// belongs to the window it completed in).
func windowsOf(spans []span, host []hostSample, length time.Duration) []window {
	ws := make([]window, len(host)-1)
	lat := make([][]int64, len(ws))
	for _, s := range spans {
		if i := int(s.end / length.Nanoseconds()); i < len(ws) {
			lat[i] = append(lat[i], s.end-s.start)
		}
	}
	for i := range ws {
		slices.Sort(lat[i])
		a, b := host[i], host[i+1]
		ws[i] = window{
			Ops: len(lat[i]), P50US: percentileUS(lat[i], 0.5), P95US: percentileUS(lat[i], 0.95),
			CPUMS:      (b.cpu - a.cpu) * 1e3,
			RSSMB:      b.rssMB,
			StealShare: ratio(float64(b.steal-a.steal), float64(b.total-a.total)),
		}
	}
	return ws
}

// maxStealShare is the most CPU time the hypervisor may take from the
// machine during a window that still counts as undisturbed. On a quiet
// sandbox a second shows 0 to 1 stolen ticks of 200; while another
// tenant of the host is busy it shows 20 to 100, and a pure spin loop
// runs at a half to a tenth of its speed.
const maxStealShare = 0.01

// quietWindows returns the windows the reported medians are taken over:
// those the hypervisor left alone, or, when fewer than a quarter were,
// that quarter with the least stolen time. What other tenants do to the
// host is the one disturbance a guest can read off a counter, and it is
// no property of the program measured.
func quietWindows(ws []window) []window {
	sorted := slices.Clone(ws)
	slices.SortStableFunc(sorted, func(a, b window) int { return cmp.Compare(a.StealShare, b.StealShare) })
	n := (len(sorted) + 3) / 4
	for n < len(sorted) && sorted[n].StealShare <= maxStealShare {
		n++
	}
	return sorted[:n]
}

// environment is what a result is relative to.
type environment struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NodeProcs    int     `json:"node_gomaxprocs"`
	Clients      int     `json:"clients"`
	Topology     string  `json:"topology"`
	HeapBytes    int64   `json:"heap_bytes"`
	Records      int64   `json:"records"`
	ValueBytes   int     `json:"value_bytes"`
	Filesystem   string  `json:"data_dir_filesystem"`
	FlushPolicy  string  `json:"flush_policy"`
	WALProbeUS   float64 `json:"durable.wal_append_probe_us"`
	LatencyScope string  `json:"latency_scope"`
}

func newEnvironment(o options, w *workload, clients int) environment {
	topology := fmt.Sprintf("1 master + %d region-server metnode processes, replication %d", numServers, replicas)
	if o.quick {
		topology = "quick: all nodes hosted in the bench process"
	}
	return environment{
		Commit:      gitCommit(),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NodeProcs:   nodeProcs(),
		Clients:     clients,
		Topology:    topology,
		HeapBytes:   heapBytes,
		Records:     w.records,
		ValueBytes:  valueBytes,
		Filesystem:  filesystemOf(o.workDir),
		FlushPolicy: "stock: a Put is acknowledged only after the group-commit WAL fsync",
		LatencyScope: "latencies are this sandbox's, not a device's: the OS page cache serves reads and fsync may be cheap; " +
			"compare only runs made on the same machine",
	}
}

// gitCommit reads HEAD without running git (the driver's checkout is
// not a repository, and nothing outside the checkout may be read).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	b, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// filesystemOf names the filesystem type holding dir, from the longest
// matching mount point in /proc/self/mounts.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fstype = mp, f[2]
		}
	}
	return fstype
}

// runWorkload runs every phase of one workload and returns its record.
// An error means the run could not be made; a run that was made but
// failed a check comes back with Correct false.
func runWorkload(o options, w *workload) (*record, error) {
	clients := min(runtime.NumCPU(), 4)
	rec := &record{
		Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Env:     newEnvironment(o, w, clients),
		Metrics: map[string]float64{},
	}
	m := rec.Metrics
	phase := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		phase /= 2 // half for the multi-process phase, half for the traced pass
	}
	warm, probeN := 2*time.Second, 300
	nodeBin := o.nodeBin
	if o.quick {
		warm, probeN, nodeBin = 100*time.Millisecond, 30, ""
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.workDir)

	// Set-up, timed: bootstrap + load + flush + quiesce + start until
	// every /readyz is 200. An untraced run does it at least three times
	// on fresh directories, and up to seven while that takes under three
	// seconds, and reports the median, so one slow fsync burst does not
	// decide setup_s; the last cluster is the one measured.
	minSetups, maxSetups := 3, 7
	if o.trace || o.quick {
		minSetups, maxSetups = 1, 1
	}
	var c *cluster
	var setupNS []int64
	for i, begin := 0, time.Now(); i < minSetups || (i < maxSetups && time.Since(begin) < 3*time.Second); i++ {
		if c != nil {
			c.kill()
			if err := os.RemoveAll(c.dataDir); err != nil {
				return nil, err
			}
		}
		dataDir := filepath.Join(o.workDir, fmt.Sprintf("data%d", i))
		t0 := time.Now()
		if err := bootstrap(dataDir, w); err != nil {
			return nil, err
		}
		var err error
		if c, err = startCluster(dataDir, nodeBin); err != nil {
			return nil, err
		}
		setupNS = append(setupNS, time.Since(t0).Nanoseconds())
	}
	defer func() { c.kill() }()
	m["setup_s"] = medianUS(setupNS) / 1e6 // us -> s

	d := newDriver(w, o.seed, clients)
	if err := procsPhase(rec, c, d, warm, phase); err != nil {
		return nil, err
	}
	if o.trace {
		// The traced pass hosts the same cluster, on the same data
		// directory, inside this process.
		c.kill()
		dataDir := c.dataDir
		var err error
		if c, err = startCluster(dataDir, ""); err != nil {
			return nil, err
		}
		if err := tracedPhase(rec, c, d, warm/2, phase, !o.quick); err != nil {
			return nil, err
		}
	}
	if err := probes(m, filepath.Join(o.workDir, "probe"), w, probeN); err != nil {
		return nil, err
	}
	rec.Env.WALProbeUS = m["durable.wal_append_probe_us"]

	rec.Correct = rec.Failed == 0
	for _, chk := range rec.Checks {
		if strings.HasPrefix(chk, "FAILED") {
			rec.Correct = false
		}
	}
	return rec, nil
}

// check records one verified property of the run.
func (r *record) check(ok bool, format string, args ...any) {
	prefix := "ok: "
	if !ok {
		prefix = "FAILED: "
	}
	r.Checks = append(r.Checks, prefix+fmt.Sprintf(format, args...))
}

func (r *record) note(format string, args ...any) {
	r.Checks = append(r.Checks, "note: "+fmt.Sprintf(format, args...))
}

// checkOps records whether every op of a phase returned verified data.
func (r *record) checkOps(phase string, p phaseResult) {
	if p.failed > 0 {
		r.check(false, "%s: %d of %d ops failed or returned wrong data; first: %v", phase, p.failed, p.attempted, p.firstErr)
	} else {
		r.check(true, "%s: all %d ops returned verified data", phase, p.attempted)
	}
}

// procsPhase is the end-to-end measurement: warm up, drive the cluster
// for dur through rpc.Client alone, read CPU and memory of the
// processes from /proc and the handler histograms from /metrics, then
// quiesce, kill -9 every worker, respawn and read the acknowledged
// versions back.
func procsPhase(rec *record, c *cluster, d *driver, warm, dur time.Duration) error {
	m := rec.Metrics
	api := []kvAPI{c.client}
	if r := d.run(api, warm); r.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %w", r.failed, r.attempted, r.firstErr)
	}
	self := []int{os.Getpid()}
	all := self
	if c.nodeBin != "" {
		all = append(c.pids(), self...)
	}
	hSum0, hCount0, err := c.handlerTotals()
	if err != nil {
		return err
	}
	cpuSelf0, _ := cpuSeconds(self)

	// The phase is cut into windows of a second; at each boundary a
	// sampler reads the processes' CPU and the machine's steal counter.
	n := max(1, int(dur/time.Second))
	window := dur / time.Duration(n)
	hostCh := sampleHost(all, c.pids(), time.Now(), window, n)
	r := d.run(api, dur)
	host := <-hostCh
	if host.err != nil {
		return host.err
	}

	cpuSelf1, _ := cpuSeconds(self)
	hSum1, hCount1, err := c.handlerTotals()
	if err != nil {
		return err
	}
	rss, err := statusMB(c.pids(), "VmHWM:")
	if err != nil {
		return err
	}

	rec.Attempted += r.attempted
	rec.Failed += r.failed
	rec.checkOps("multi-process phase", r)
	rec.Windows = windowsOf(r.spans, host.samples, window)
	quiet := quietWindows(rec.Windows)
	var rate, p50, p95, cpu, resident []float64
	for _, w := range rec.Windows {
		resident = append(resident, w.RSSMB)
	}
	_, m["rss_mb"], _ = quartiles(resident)
	for _, w := range quiet {
		rate = append(rate, float64(w.Ops)/window.Seconds())
		p50, p95 = append(p50, w.P50US), append(p95, w.P95US)
		cpu = append(cpu, ratio(w.CPUMS, float64(w.Ops)/1e3))
	}
	_, m["ops_per_s"], _ = quartiles(rate)
	_, m["p50_us"], _ = quartiles(p50)
	_, m["p95_us"], _ = quartiles(p95)
	_, m["cpu_ms_per_kop"], _ = quartiles(cpu)
	m["quiet_windows"], m["windows"] = float64(len(quiet)), float64(len(rec.Windows))
	cpuAll := host.samples[n].cpu - host.samples[0].cpu
	every := durations(r.spans, numOps, depthRPC)
	m["p99_us"] = percentileUS(every, 0.99)
	m["samples"] = float64(len(every))
	m["rss_peak_mb"] = rss
	m["error_share"] = ratio(float64(r.failed), float64(r.attempted))
	m["client.cpu_share"] = ratio(cpuSelf1-cpuSelf0, cpuAll)
	if c.nodeBin != "" && d.w.name == "read_hot" && m["client.cpu_share"] > 0.5 {
		rec.note("the bench process used %.0f%% of the CPU on read_hot: the load generator, not the cluster, may bound throughput", 100*m["client.cpu_share"])
	}
	for op := opGet; op < numOps; op++ {
		lat := durations(r.spans, op, depthRPC)
		name := opNames[op]
		m[name+"_p50_us"] = percentileUS(lat, 0.5)
		m[name+"_samples"] = float64(len(lat))
		if len(lat) >= p99Samples {
			m[name+"_p99_us"] = percentileUS(lat, 0.99)
		}
		// Handler mean from the workers' own histograms over the same
		// interval; what is left of the client's mean is the wire: kernel,
		// HTTP and client framing across the process boundary.
		path := "/node/" + name
		handler := ratio(hSum1[path]-hSum0[path], hCount1[path]-hCount0[path]) * 1e6
		m["rpc.handler_"+name+"_mean_us"] = handler
		if handler > 0 && op != opScan { // a stitched Scan is several handler calls
			m["rpc.wire_"+name+"_mean_us"] = meanUS(lat) - handler
		}
	}

	t0 := time.Now()
	if err := c.client.Quiesce(); err != nil {
		return err
	}
	m["replication.quiesce_s"] = time.Since(t0).Seconds()
	disk, err := dirBytes(c.dataDir)
	if err != nil {
		return err
	}
	m["durable.disk_bytes_per_user_byte"] = ratio(float64(disk), float64(d.w.records*int64(valueBytes+len(d.w.ycsb.Key(0)))))

	c.killWorkers()
	t0 = time.Now()
	if err := c.startWorkers(); err != nil {
		return err
	}
	m["hbase.restart_ready_s"] = time.Since(t0).Seconds()
	checked, lost := d.ackedLost(c.client)
	m["acked_lost"] = float64(lost)
	rec.check(lost == 0, "acked_lost: %d of %d sampled keys missing or stale after quiesce + kill -9 of every worker + restart", lost, checked)
	return nil
}

// tracedPhase is the per-layer measurement over a cluster hosted in this
// process: op i enters at depth i mod 3, every op against the same live
// stores, so a layer's self time is the difference between the medians
// of adjacent depths; the engine's exported counters are read around it.
func tracedPhase(rec *record, c *cluster, d *driver, warm, dur time.Duration, sizing bool) error {
	m := rec.Metrics
	apis := layerAPIs(c)
	if r := d.run(apis, warm); r.failed > 0 {
		return fmt.Errorf("traced warm-up: %d of %d ops failed: %w", r.failed, r.attempted, r.firstErr)
	}
	begin := snapEngines(c)
	midCh := make(chan engineSnap, 1)
	go func() {
		time.Sleep(dur / 2)
		midCh <- snapEngines(c)
	}()
	r := d.run(apis, dur)
	mid, end := <-midCh, snapEngines(c)

	rec.Attempted += r.attempted
	rec.Failed += r.failed
	rec.checkOps("traced pass", r)
	rec.spans = r.spans

	for op := opGet; op < numOps; op++ {
		var med [numDepths]float64
		for depth := range med {
			med[depth] = percentileUS(durations(r.spans, op, depth), 0.5)
		}
		name := opNames[op]
		m["rpc."+name+"_self_us"] = med[depthRPC] - med[depthHBase]
		m["hbase."+name+"_self_us"] = med[depthHBase] - med[depthKV]
		m["kv."+name+"_us"] = med[depthKV]
	}
	// In a closed loop throughput is clients / mean latency; the traced
	// topology's full-path rate over the untraced one prices the
	// different topology.
	rpcMean := meanUS(durations(r.spans, numOps, depthRPC))
	m["trace.ops_ratio"] = ratio(ratio(float64(d.clients)*1e6, rpcMean), m["ops_per_s"])

	engineMetrics(m, begin, mid, end, r.wall, r.scanRows)
	if d.w.readOnly {
		bg := backgroundWork(begin, end)
		rec.check(bg == 0, "read-only workload moved WAL/flush/compaction/replication counters by %d", bg)
	}
	if sizing {
		sizingChecks(rec, d.w, begin, mid, end)
	}
	return allocProbe(m, apis, d, 200)
}

// sizingChecks verifies that the workload still has the shape it was
// sized for. The cache ratios fail the run: a cache that now holds
// read_cold measures something else. How many background cycles fit in
// the pass depends on the machine's speed, so that is only noted.
func sizingChecks(rec *record, w *workload, begin, mid, end engineSnap) {
	m := rec.Metrics
	switch w.name {
	case "read_hot":
		rec.check(m["kv.cache_hit_ratio"] >= 0.99, "read_hot cache hit ratio %.3f >= 0.99", m["kv.cache_hit_ratio"])
	case "read_cold":
		rec.check(m["kv.cache_hit_ratio"] <= 0.5, "read_cold cache hit ratio %.3f <= 0.5", m["kv.cache_hit_ratio"])
	case "write_heavy":
		flushes := minPerServer(begin, end, func(s kv.Stats) int64 { return s.Flushes })
		compactions := minPerServer(begin, end, func(s kv.Stats) int64 { return s.Compactions })
		half, full := writeAmp(begin.kv, mid.kv), m["kv.write_amp"]
		levelled := full > 0 && half > 0.85*full && half < 1.15*full
		msg := fmt.Sprintf("write_heavy: in the traced pass every server completed %d+ flushes (want >= 6) and %d+ compactions (want >= 2); "+
			"write amplification %.2f at half-time, %.2f at the end (want within 15%%)", flushes, compactions, half, full)
		if flushes >= 6 && compactions >= 2 && levelled {
			rec.check(true, "%s", msg)
		} else {
			rec.note("%s: background work has not levelled off within the pass; use a longer --seconds to read write_amp", msg)
		}
	}
}

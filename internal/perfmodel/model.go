package perfmodel

import (
	"fmt"
	"math"
	"sort"

	"met/internal/hbase"
)

// RegionPerf describes one data partition to the model.
type RegionPerf struct {
	SizeBytes float64
	// HotDataFrac of the region's bytes receive HotTrafficFrac of its
	// requests (the within-region popularity curve; the paper's YCSB
	// hotspot distribution is uniform inside hot and cold sets).
	HotDataFrac    float64
	HotTrafficFrac float64
	// Locality is the fraction of the region's data local to its
	// current server (the HDFS locality index).
	Locality float64
}

// NodePerf describes one region server to the model.
type NodePerf struct {
	Name    string
	Config  hbase.ServerConfig
	Offline bool
	// BackgroundDiskBytesPerSec is extra disk traffic from major
	// compactions currently running on this node.
	BackgroundDiskBytesPerSec float64
	// ColdFraction models a cache still warming after a restart: the
	// steady-state hit ratio is scaled by (1 - ColdFraction). Zero
	// (the default) means fully warm.
	ColdFraction float64
}

// OpMix is a workload's operation mix (fractions sum to 1; RMW counts as
// one op that both reads and writes).
type OpMix struct {
	Read  float64
	Write float64
	Scan  float64
	RMW   float64
}

// WorkloadPerf describes one closed-loop tenant.
type WorkloadPerf struct {
	Name    string
	Threads int
	// TargetOpsPerSec caps throughput (0 = unthrottled).
	TargetOpsPerSec float64
	Mix             OpMix
	RecordBytes     float64
	AvgScanRecords  float64
	// RegionShares routes the workload's requests: fraction of its
	// operations touching each region (sums to 1).
	RegionShares map[string]float64
	// Active scales the workload on/off (0..1); phase 2 of the
	// elasticity experiment switches workloads off.
	Active bool
	// GrowthBytesPerOp is how many bytes each operation adds to the
	// workload's regions on average (insert-heavy workloads grow their
	// data set; WorkloadD grows ~1 KB per insert).
	GrowthBytesPerOp float64
}

// Model is a snapshot of cluster + workloads to solve for one instant.
type Model struct {
	Cost      CostModel
	Nodes     map[string]*NodePerf
	Regions   map[string]*RegionPerf
	Placement map[string]string // region -> node
	Workloads []*WorkloadPerf
}

// NewModel returns an empty model with default costs (or the calibrated
// override installed by SetDefaultCostModel).
func NewModel() *Model {
	return &Model{
		Cost:      activeCostModel(),
		Nodes:     make(map[string]*NodePerf),
		Regions:   make(map[string]*RegionPerf),
		Placement: make(map[string]string),
	}
}

// Solution reports the solved equilibrium.
type Solution struct {
	// ThroughputOps maps workload name to operations per second.
	ThroughputOps map[string]float64
	// NodeCPU, NodeDisk, NodeNet are per-node utilizations (0..1).
	NodeCPU  map[string]float64
	NodeDisk map[string]float64
	NodeNet  map[string]float64
	// ResponseTime maps workload name to mean seconds per op.
	ResponseTime map[string]float64
	// CacheHit maps node name to its weighted read hit ratio.
	CacheHit map[string]float64
	// PageHit maps node name to its OS page-cache coverage.
	PageHit map[string]float64
	// Stall maps node name to its GC/flush stall (seconds).
	Stall map[string]float64
	// NodeHandlers maps node name to RPC handler pool utilization.
	NodeHandlers map[string]float64
}

// Total returns the cluster-wide throughput.
func (s Solution) Total() float64 {
	var sum float64
	for _, x := range s.ThroughputOps {
		sum += x
	}
	return sum
}

// demands are the per-op resource seconds for one (workload, region).
type demands struct {
	cpu, disk, net float64
}

// regionsOn returns the regions placed on node n, sorted.
func (m *Model) regionsOn(n string) []string {
	var out []string
	for r, host := range m.Placement {
		if host == n {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks referential integrity.
func (m *Model) Validate() error {
	for r, n := range m.Placement {
		if _, ok := m.Regions[r]; !ok {
			return fmt.Errorf("perfmodel: placement references unknown region %q", r)
		}
		if _, ok := m.Nodes[n]; !ok {
			return fmt.Errorf("perfmodel: region %q placed on unknown node %q", r, n)
		}
	}
	for _, w := range m.Workloads {
		var sum float64
		for r, s := range w.RegionShares {
			if _, ok := m.Regions[r]; !ok {
				return fmt.Errorf("perfmodel: workload %s routes to unknown region %q", w.Name, r)
			}
			sum += s
		}
		if len(w.RegionShares) > 0 && math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("perfmodel: workload %s shares sum to %v", w.Name, sum)
		}
		mixSum := w.Mix.Read + w.Mix.Write + w.Mix.Scan + w.Mix.RMW
		if math.Abs(mixSum-1) > 1e-6 {
			return fmt.Errorf("perfmodel: workload %s mix sums to %v", w.Name, mixSum)
		}
	}
	return nil
}

// hitRatio estimates a region's block-cache hit probability given the
// cache bytes allocated to it: the cache fills with the most popular
// data first (LRU steady state), so coverage follows the two-segment
// popularity curve.
func hitRatio(r *RegionPerf, cacheBytes float64) float64 {
	if r.SizeBytes <= 0 {
		return 1
	}
	if cacheBytes >= r.SizeBytes {
		return 1
	}
	hotBytes := r.SizeBytes * r.HotDataFrac
	coldBytes := r.SizeBytes - hotBytes
	if hotBytes <= 0 {
		return cacheBytes / r.SizeBytes
	}
	if cacheBytes <= hotBytes {
		return r.HotTrafficFrac * cacheBytes / hotBytes
	}
	coldCov := 0.0
	if coldBytes > 0 {
		coldCov = (cacheBytes - hotBytes) / coldBytes
	}
	return r.HotTrafficFrac + (1-r.HotTrafficFrac)*coldCov
}

// writeAmp returns the flush/compaction write amplification for a region
// given its per-region memstore budget.
func (c CostModel) writeAmp(memstorePerRegion float64) float64 {
	if memstorePerRegion <= 0 {
		return c.FlushAmpMax
	}
	amp := c.FlushAmpBase * math.Sqrt(c.FlushRefBytes/memstorePerRegion)
	if amp < 1 {
		amp = 1
	}
	if amp > c.FlushAmpMax {
		amp = c.FlushAmpMax
	}
	return amp
}

// opDemands computes resource demands for workload w's single-record
// read, write, and scan on region r hosted by node n, given the region's
// cache hit probability.
func (m *Model) opDemands(w *WorkloadPerf, r *RegionPerf, n *NodePerf, hit, pageHit float64) (read, write, scan demands) {
	c := m.Cost
	blockBytes := float64(n.Config.BlockBytes)
	// A warming block cache hits less than steady state; the OS page
	// cache survives process restarts, so it stays warm.
	hit *= 1 - n.ColdFraction
	miss := 1 - hit

	// Read: CPU always; a block-cache miss is served from the OS page
	// cache when the node's hosted bytes fit there, and only otherwise
	// pays a random disk I/O — remote when the block is not local.
	read.cpu = c.CPURead + miss*c.CPUMiss
	remoteMiss := miss * (1 - r.Locality)
	blockXfer := blockBytes / c.DiskBytesPerSec
	diskMiss := miss * (1 - pageHit)
	// Every disk miss costs one random block I/O somewhere; in
	// aggregate the datanodes' disk work is symmetric across the
	// cluster, so the full disk demand is charged here. A non-local
	// miss additionally pays the network fetch round trip and transfer.
	read.disk = diskMiss * (c.DiskSeek + blockXfer)
	read.net = remoteMiss * (c.NetRemoteRTT + blockBytes/c.NetBytesPerSec)

	// Write: CPU + WAL sequential bytes + amortized flush/compaction
	// I/O, scaled by the write amplification from the node's memstore
	// share.
	numRegions := len(m.regionsOn(n.Name))
	if numRegions < 1 {
		numRegions = 1
	}
	memPerRegion := float64(n.Config.MemstoreBytes()) / float64(numRegions)
	amp := c.writeAmp(memPerRegion)
	write.cpu = c.CPUWrite + c.CPUWriteBackground
	write.disk = w.RecordBytes * (c.WALBytesFactor + amp) / c.DiskBytesPerSec
	// Replication of WAL/flush data to one other datanode.
	write.net = w.RecordBytes / c.NetBytesPerSec

	// Scan: setup + per-record and per-block CPU. Scans bypass the
	// block cache (standard HBase practice to avoid polluting it) and
	// read through the OS page cache; the uncached fraction pays
	// fractional seeks — fewer with larger blocks, the Table 1 scan
	// profile's rationale — plus sequential transfer.
	records := w.AvgScanRecords
	if records < 1 {
		records = 1
	}
	bytes := records * w.RecordBytes
	blocks := bytes / blockBytes
	scan.cpu = c.CPUScanSetup + records*c.CPUScanRecord + blocks*c.CPUScanBlock
	scanDiskMiss := 1 - pageHit
	scan.disk = scanDiskMiss * (blocks*c.DiskSeek + bytes/c.DiskBytesPerSec)
	scan.net = scanDiskMiss * (1 - r.Locality) * (blocks*c.NetRemoteRTT + bytes/c.NetBytesPerSec)
	return read, write, scan
}

// station indexes one queueing resource of one node.
type station struct {
	node string
	res  int // 0 = cpu, 1 = disk, 2 = net
}

// Solve finds the closed-loop equilibrium using Schweitzer's approximate
// Mean Value Analysis over a multiclass closed queueing network: each
// workload is a class with a population of Threads, each node contributes
// three queueing stations (CPU, disk, network), and the client round
// trip is a delay (think-time) term. Cache hit ratios — which depend on
// the throughputs through the traffic-proportional cache allocation —
// are refreshed inside the same fixed-point loop.
func (m *Model) Solve() Solution {
	c := m.Cost
	sol := Solution{
		ThroughputOps: make(map[string]float64),
		NodeCPU:       make(map[string]float64),
		NodeDisk:      make(map[string]float64),
		NodeNet:       make(map[string]float64),
		ResponseTime:  make(map[string]float64),
		CacheHit:      make(map[string]float64),
		PageHit:       make(map[string]float64),
		Stall:         make(map[string]float64),
		NodeHandlers:  make(map[string]float64),
	}
	var active []*WorkloadPerf
	for _, w := range m.Workloads {
		if w.Active && w.Threads > 0 {
			active = append(active, w)
		} else {
			sol.ThroughputOps[w.Name] = 0
		}
	}
	nodeNames := make([]string, 0, len(m.Nodes))
	for n := range m.Nodes {
		nodeNames = append(nodeNames, n)
	}
	sort.Strings(nodeNames)
	stations := make([]station, 0, 4*len(nodeNames))
	stIdx := make(map[station]int)
	for _, n := range nodeNames {
		for res := 0; res < 4; res++ { // cpu, disk, net, rpc handlers
			s := station{node: n, res: res}
			stIdx[s] = len(stations)
			stations = append(stations, s)
		}
	}
	if len(active) == 0 || len(stations) == 0 {
		for _, n := range nodeNames {
			sol.NodeCPU[n], sol.NodeDisk[n], sol.NodeNet[n] = 0, 0, 0
			sol.CacheHit[n] = 1
		}
		return sol
	}

	nC, nS := len(active), len(stations)
	X := make([]float64, nC)
	// Q[c][s]: class-c queue length at station s; start spread evenly.
	Q := make([][]float64, nC)
	demand := make([][]float64, nC) // per-op demand of class c at station s
	offline := make([]float64, nC)  // per-op delay from offline regions
	regionHit := make(map[string]float64)
	nodePageHit := make(map[string]float64)
	nodeStall := make(map[string]float64)
	for ci, w := range active {
		Q[ci] = make([]float64, nS)
		demand[ci] = make([]float64, nS)
		X[ci] = float64(w.Threads) / (c.ClientRTT + 1e-3)
		for s := range Q[ci] {
			Q[ci][s] = float64(w.Threads) / float64(nS)
		}
	}

	// speed[s] discounts a disk station for background compaction load.
	speed := make([]float64, nS)

	for iter := 0; iter < 300; iter++ {
		// 1. Cache allocation and hit ratios from current throughputs.
		for _, name := range nodeNames {
			n := m.Nodes[name]
			regions := m.regionsOn(name)
			if len(regions) == 0 {
				sol.CacheHit[name] = 1
				continue
			}
			traffic := make(map[string]float64)
			var total, writeBytes float64
			for ci, w := range active {
				readFrac := w.Mix.Read + w.Mix.RMW + w.Mix.Scan
				writeFrac := w.Mix.Write + w.Mix.RMW
				for _, r := range regions {
					share := w.RegionShares[r]
					if share <= 0 {
						continue
					}
					t := X[ci] * share * readFrac
					traffic[r] += t
					total += t
					writeBytes += X[ci] * share * writeFrac * w.RecordBytes
				}
			}
			churn := 1 + c.CacheChurn*writeBytes/c.DiskBytesPerSec*10
			effCache := float64(n.Config.BlockCacheBytes()) / churn
			var hitSum float64
			for _, r := range regions {
				share := 1 / float64(len(regions))
				if total > 0 {
					share = traffic[r] / total
				}
				h := hitRatio(m.Regions[r], effCache*share)
				regionHit[r] = h
				hitSum += h * share
			}
			sol.CacheHit[name] = hitSum
			// OS page cache coverage of the node's hosted bytes,
			// degraded by the same write churn.
			var hosted float64
			for _, r := range regions {
				hosted += m.Regions[r].SizeBytes
			}
			if c.HostedReplicationFactor > 1 {
				hosted *= c.HostedReplicationFactor
			}
			ph := 1.0
			if hosted > 0 {
				ph = c.PageCacheBytes / churn / hosted
				if ph > 1 {
					ph = 1
				}
			}
			nodePageHit[name] = ph
			sol.PageHit[name] = ph
			// GC/flush stall from this node's flush pressure.
			memstore := float64(n.Config.MemstoreBytes())
			if memstore < 1 {
				memstore = 1
			}
			pressure := writeBytes / memstore
			stall := c.FlushPressureStall * pressure * pressure
			if stall > c.GCStallMax {
				stall = c.GCStallMax
			}
			nodeStall[name] = stall
			sol.Stall[name] = stall
		}

		// 2. Demands per class per station.
		for si, s := range stations {
			speed[si] = 1
			if s.res == 1 {
				bg := m.Nodes[s.node].BackgroundDiskBytesPerSec / c.DiskBytesPerSec
				if bg > 0.9 {
					bg = 0.9
				}
				speed[si] = 1 - bg
			}
		}
		for ci, w := range active {
			for s := range demand[ci] {
				demand[ci][s] = 0
			}
			offline[ci] = 0
			for r, share := range w.RegionShares {
				node := m.Placement[r]
				n, ok := m.Nodes[node]
				if !ok || n.Offline {
					offline[ci] += share * c.OfflinePenalty
					continue
				}
				offline[ci] += share * nodeStall[node]
				rd, wr, sc := m.opDemands(w, m.Regions[r], n, regionHit[r], nodePageHit[node])
				mix := w.Mix
				dCPU := mix.Read*rd.cpu + mix.Write*wr.cpu + mix.Scan*sc.cpu + mix.RMW*(rd.cpu+wr.cpu)
				dDisk := mix.Read*rd.disk + mix.Write*wr.disk + mix.Scan*sc.disk + mix.RMW*(rd.disk+wr.disk)
				dNet := mix.Read*rd.net + mix.Write*wr.net + mix.Scan*sc.net + mix.RMW*(rd.net+wr.net)
				// RPC handler residency: reads and scans hold a handler
				// through their service time, I/O and any GC/flush
				// stall; writes release theirs to the group-commit
				// path. The pool has Config.Handlers threads, so the
				// effective queueing demand is residency / pool size.
				stall := nodeStall[node]
				handlers := float64(n.Config.Handlers)
				if handlers < 1 {
					handlers = 1
				}
				readRes := rd.cpu + rd.disk + stall
				scanRes := sc.cpu + sc.disk + stall
				writeRes := wr.cpu
				dHandler := mix.Read*readRes + mix.Write*writeRes + mix.Scan*scanRes + mix.RMW*(readRes+writeRes)
				demand[ci][stIdx[station{node, 0}]] += share * dCPU
				demand[ci][stIdx[station{node, 1}]] += share * dDisk / speed[stIdx[station{node, 1}]]
				demand[ci][stIdx[station{node, 2}]] += share * dNet
				demand[ci][stIdx[station{node, 3}]] += share * dHandler / handlers
			}
		}

		// 3. One Schweitzer AMVA sweep.
		maxDelta := 0.0
		for ci, w := range active {
			N := float64(w.Threads)
			var R float64
			Rs := make([]float64, nS)
			for s := 0; s < nS; s++ {
				if demand[ci][s] == 0 {
					continue
				}
				// Queue seen on arrival: everyone else's queue plus
				// (N-1)/N of our own.
				var qOthers float64
				for cj := range active {
					if cj == ci {
						qOthers += Q[cj][s] * (N - 1) / N
					} else {
						qOthers += Q[cj][s]
					}
				}
				Rs[s] = demand[ci][s] * (1 + qOthers)
				R += Rs[s]
			}
			R += c.ClientRTT + offline[ci]
			R += (w.Mix.Write + w.Mix.RMW) * c.WriteSyncLatency
			R += w.Mix.Scan * w.AvgScanRecords * c.ScanClientPerRecord
			newX := N / R
			if w.TargetOpsPerSec > 0 && newX > w.TargetOpsPerSec {
				newX = w.TargetOpsPerSec
			}
			if d := math.Abs(newX - X[ci]); d > maxDelta {
				maxDelta = d
			}
			X[ci] = 0.5*X[ci] + 0.5*newX
			for s := 0; s < nS; s++ {
				Q[ci][s] = 0.5*Q[ci][s] + 0.5*X[ci]*Rs[s]
			}
			sol.ResponseTime[w.Name] = R
		}
		if maxDelta < 0.1 && iter > 20 {
			break
		}
	}

	for ci, w := range active {
		sol.ThroughputOps[w.Name] = X[ci]
	}
	// Utilizations for reporting.
	for _, n := range nodeNames {
		sol.NodeCPU[n], sol.NodeDisk[n], sol.NodeNet[n] = 0, 0, 0
	}
	for ci := range active {
		for si, s := range stations {
			u := X[ci] * demand[ci][si] * speed[si]
			switch s.res {
			case 0:
				sol.NodeCPU[s.node] += u
			case 1:
				sol.NodeDisk[s.node] += u
			case 2:
				sol.NodeNet[s.node] += u
			case 3:
				sol.NodeHandlers[s.node] += u
			}
		}
	}
	for _, n := range nodeNames {
		bg := m.Nodes[n].BackgroundDiskBytesPerSec / c.DiskBytesPerSec
		sol.NodeDisk[n] = math.Min(sol.NodeDisk[n]+bg, 1)
		sol.NodeCPU[n] = math.Min(sol.NodeCPU[n], 1)
		sol.NodeNet[n] = math.Min(sol.NodeNet[n], 1)
	}
	return sol
}

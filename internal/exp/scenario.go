package exp

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"met/internal/core"
	"met/internal/hbase"
	"met/internal/metrics"
	"met/internal/perfmodel"
	"met/internal/placement"
	"met/internal/sim"
	"met/internal/ycsb"
)

// Strategy names the placement-and-configuration strategies of
// Section 3.3.
type Strategy int

// The three strategies of the motivation experiment.
const (
	RandomHomogeneous Strategy = iota
	ManualHomogeneous
	ManualHeterogeneous
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case RandomHomogeneous:
		return "Random-Homogeneous"
	case ManualHomogeneous:
		return "Manual-Homogeneous"
	case ManualHeterogeneous:
		return "Manual-Heterogeneous"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// regionMeta carries scenario-level knowledge about one region.
type regionMeta struct {
	name     string
	workload ycsb.Workload
	share    float64 // fraction of the workload's requests
	accType  placement.AccessType
}

// Scenario is a fully built multi-tenant YCSB deployment description.
type Scenario struct {
	Model   *perfmodel.Model
	Regions []regionMeta
}

// regionName builds the canonical region identifier.
func ycsbRegionName(w ycsb.Workload, idx int) string {
	return fmt.Sprintf("%s,p%d", w.TableName(), idx)
}

// accessTypeOf classifies a workload the way Section 3.3 does by
// inspection (the controller re-derives this from observed counters; the
// scenario needs it for the Manual-Heterogeneous oracle placement).
func accessTypeOf(w ycsb.Workload) placement.AccessType {
	switch {
	case w.ScanProportion > 0.6:
		return placement.Scan
	case w.ReadProportion > 0.6:
		return placement.Read
	case w.UpdateProportion+w.InsertProportion > 0.6:
		return placement.Write
	default:
		// Mixes — including read-modify-write, which is as much a
		// write as a read — group as Read/Write, matching Section 3.3.
		return placement.ReadWrite
	}
}

// mixOf converts a YCSB workload's proportions to the model's OpMix.
func mixOf(w ycsb.Workload) perfmodel.OpMix {
	return perfmodel.OpMix{
		Read:  w.ReadProportion,
		Write: w.UpdateProportion + w.InsertProportion,
		Scan:  w.ScanProportion,
		RMW:   w.RMWProportion,
	}
}

// BuildYCSBScenario constructs the Section 3 environment: the six paper
// workloads, their 21 regions with the hotspot-derived per-partition
// shares and within-partition popularity, and `servers` nodes. Placement
// and configuration are applied separately via ApplyStrategy.
func BuildYCSBScenario(servers int, threadScale float64) *Scenario {
	sc := &Scenario{Model: perfmodel.NewModel()}
	recordBytes := 1100.0 // 1 KB value + key/qualifier overhead

	for _, w := range ycsb.PaperWorkloads() {
		shares := w.PartitionShares()
		wl := &perfmodel.WorkloadPerf{
			Name:            w.Name,
			Threads:         int(math.Max(1, float64(w.Threads)*threadScale)),
			TargetOpsPerSec: w.TargetOpsPerSec,
			Mix:             mixOf(w),
			RecordBytes:     recordBytes,
			AvgScanRecords:  float64(w.MaxScanLength+1) / 2,
			RegionShares:    make(map[string]float64),
			Active:          true,
		}
		if w.InsertProportion > 0 {
			wl.GrowthBytesPerOp = w.InsertProportion * recordBytes
		}
		n := float64(w.RecordCount)
		hot := n * 0.4
		per := n / float64(w.Partitions)
		for p := 0; p < w.Partitions; p++ {
			rname := ycsbRegionName(w, p)
			lo, hi := per*float64(p), per*float64(p+1)
			hotOverlap := math.Max(0, math.Min(hi, hot)-lo)
			hotDataFrac := hotOverlap / per
			// Traffic to the hot overlap inside this partition.
			hotTraffic := 0.0
			if hot > 0 {
				hotTraffic = 0.5 * hotOverlap / hot
			}
			coldOverlap := per - hotOverlap
			coldTraffic := 0.0
			if n-hot > 0 {
				coldTraffic = 0.5 * coldOverlap / (n - hot)
			}
			share := hotTraffic + coldTraffic
			hotTrafficFrac := 0.0
			if share > 0 {
				hotTrafficFrac = hotTraffic / share
			}
			sc.Model.Regions[rname] = &perfmodel.RegionPerf{
				SizeBytes:      per * recordBytes,
				HotDataFrac:    hotDataFrac,
				HotTrafficFrac: hotTrafficFrac,
				Locality:       1,
			}
			wl.RegionShares[rname] = shares[p]
			sc.Regions = append(sc.Regions, regionMeta{
				name: rname, workload: w, share: shares[p], accType: accessTypeOf(w),
			})
		}
		sc.Model.Workloads = append(sc.Model.Workloads, wl)
	}
	for i := 0; i < servers; i++ {
		name := fmt.Sprintf("rs%d", i)
		sc.Model.Nodes[name] = &perfmodel.NodePerf{Name: name, Config: hbase.DefaultServerConfig()}
	}
	return sc
}

// NodeNames returns the scenario's node names, sorted.
func (sc *Scenario) NodeNames() []string { return slices.Sorted(maps.Keys(sc.Model.Nodes)) }

// run drives a deployment of the scenario for duration, clients ramping
// up over the first 2 minutes; attach (optional) wires a controller to
// the deployment once it ticks.
func (sc *Scenario) run(duration sim.Time, attach func(*Deployment)) *Deployment {
	d := NewDeployment(sim.NewScheduler(), sc.Model)
	d.RampUp = 2 * sim.Minute
	d.Start(duration)
	if attach != nil {
		attach(d)
	}
	d.Sched.RunUntil(duration)
	return d
}

// partitionsByLoad converts the scenario regions to placement partitions
// whose load is the expected request share (thread-weighted).
func (sc *Scenario) partitionsByLoad() []placement.Partition {
	var parts []placement.Partition
	for _, rm := range sc.Regions {
		// Weight by the workload's thread count so cross-tenant loads
		// compare (requests-per-interval is what MeT itself uses).
		load := rm.share * float64(rm.workload.Threads)
		reads := int64(load * 1000 * (rm.workload.ReadFraction()))
		writes := int64(load * 1000 * rm.workload.WriteFraction())
		scans := int64(load * 1000 * rm.workload.ScanFraction())
		parts = append(parts, placement.Partition{
			Name:     rm.name,
			Requests: metrics.RequestCounts{Reads: reads, Writes: writes, Scans: scans},
		})
	}
	return parts
}

// ApplyStrategy sets node configurations and region placement per the
// named strategy. rng drives Random-Homogeneous placement (pass a
// different seed per run to reproduce the paper's variance).
func (sc *Scenario) ApplyStrategy(s Strategy, rng *sim.RNG) {
	nodes := sc.NodeNames()
	if s == RandomHomogeneous || s == ManualHomogeneous {
		for _, n := range nodes {
			sc.Model.Nodes[n].Config = hbase.DefaultServerConfig()
		}
	}
	switch s {
	case RandomHomogeneous:
		// HBase's random balancer: even counts, random identity.
		var regions []string
		for _, rm := range sc.Regions {
			regions = append(regions, rm.name)
		}
		maps.Copy(sc.Model.Placement, (&hbase.RandomBalancer{RNG: rng}).Assign(regions, nodes))
	case ManualHomogeneous:
		// The paper's method: hot partitions dispersed, and "data
		// partitions were distributed so that the number of read/write
		// requests would be evenly balanced across all nodes", then an
		// exhaustive search — "We evaluated 15 possible distributions
		// and we chose the one that showed better throughput." Each
		// candidate therefore spreads the write-heavy partitions
		// round-robin (every node carries a similar write load — the
		// opposite of isolation) and shuffles the rest for balanced
		// counts, continuing the round robin where the writes left off;
		// the measured throughput is the model's solved total.
		var writeRegions, otherRegions []string
		for _, rm := range sc.Regions {
			if rm.accType == placement.Write {
				writeRegions = append(writeRegions, rm.name)
			} else {
				otherRegions = append(otherRegions, rm.name)
			}
		}
		k := len(writeRegions) % len(nodes)
		rotated := append(append([]string(nil), nodes[k:]...), nodes[:k]...)
		balancer := &hbase.RandomBalancer{RNG: rng}
		var best map[string]string
		bestTotal := -1.0
		for trial := 0; trial < 15; trial++ {
			maps.Copy(sc.Model.Placement, balancer.Assign(writeRegions, nodes))
			maps.Copy(sc.Model.Placement, balancer.Assign(otherRegions, rotated))
			if total := sc.Model.Solve().Total(); total > bestTotal {
				bestTotal = total
				best = maps.Clone(sc.Model.Placement)
			}
		}
		maps.Copy(sc.Model.Placement, best)
	case ManualHeterogeneous:
		sc.applyHeterogeneous(nodes)
	}
}

// applyHeterogeneous reproduces Section 3.3's oracle: group workloads by
// access pattern, attribute nodes proportionally (the read/write group
// got two of the five), configure each node per Table 1, and balance
// within groups.
func (sc *Scenario) applyHeterogeneous(nodes []string) {
	profiles := core.Table1Profiles()
	groups := make(map[placement.AccessType][]placement.Partition)
	metaByName := make(map[string]regionMeta)
	for _, rm := range sc.Regions {
		metaByName[rm.name] = rm
	}
	for _, p := range sc.partitionsByLoad() {
		t := metaByName[p.Name].accType
		groups[t] = append(groups[t], p)
	}
	nodesPer := placement.NodesPerGroup(groups, len(nodes))
	next := 0
	for _, t := range placement.AccessTypes {
		ps := groups[t]
		if len(ps) == 0 {
			continue
		}
		n := nodesPer[t]
		if n == 0 {
			n = 1
		}
		var slot []string
		for i := 0; i < n && next < len(nodes); i++ {
			slot = append(slot, nodes[next])
			next++
		}
		if len(slot) == 0 {
			slot = nodes[len(nodes)-1:]
		}
		for _, name := range slot {
			n := sc.Model.Nodes[name]
			n.Config = n.Config.WithProfile(profiles[t])
		}
		assign := placement.AssignLPT(slot, ps, placement.PartitionsPerNodeCap(len(ps), len(slot)))
		for n, parts := range assign {
			for _, p := range parts {
				sc.Model.Placement[p.Name] = n
			}
		}
	}
}

// SetWorkloadActive switches one tenant on or off (phase 2 of the
// elasticity experiment).
func (sc *Scenario) SetWorkloadActive(name string, active bool) {
	for _, w := range sc.Model.Workloads {
		if w.Name == name {
			w.Active = active
		}
	}
}

// Package core implements MeT: the workload-aware elasticity controller
// of the paper (Section 4). It contains the three components of Figure 2
// — Monitor, Decision Maker and Actuator — and the four Decision Maker
// stages of Figure 3:
//
//	StageA  determine whether the cluster's load is acceptable;
//	StageB  Algorithm 1 — quadratic node addition / linear removal;
//	StageC  the Distribution Algorithm — classification, grouping and
//	        LPT assignment (Algorithm 2, via met/internal/placement);
//	StageD  Output Computation — Algorithm 3's set-intersection
//	        matching that minimizes moves and reconfigurations.
//
// The controller is substrate-agnostic and clock-agnostic. It sees and
// changes a deployment only through the small Cluster interface: the
// Monitor observes it and the Actuator runs one plan on it. Both the
// functional hbase cluster (MasterCluster, this package) and the
// simulated deployment (met/internal/exp) implement Cluster. Nothing in
// the package keeps time: the caller ticks the Controller once per
// SamplePeriod, on the virtual clock of the experiments or between the
// batches of a real run.
package core

import (
	"met/internal/hbase"
	"met/internal/placement"
)

// Profiles maps each access-pattern group to the node configuration MeT
// applies to servers assigned to that group — Table 1 of the paper. A
// profile sets only the knobs ServerConfig.WithProfile copies; the heap
// and everything else stay the deployment's.
type Profiles map[placement.AccessType]hbase.ServerConfig

// Table1Profiles returns the paper's node configuration profiles:
//
//	Node profile  Cache size  Memstore size  Block size
//	Read          55%         10%            32 KB
//	Write         10%         55%            64 KB
//	Read/Write    45%         20%            32 KB
//	Scan          55%         10%            128 KB
func Table1Profiles() Profiles {
	mk := func(cache, mem float64, blockKB int) hbase.ServerConfig {
		return hbase.ServerConfig{
			BlockCacheFraction: cache,
			MemstoreFraction:   mem,
			BlockBytes:         blockKB << 10,
			Handlers:           10,
		}
	}
	return Profiles{
		placement.Read:      mk(0.55, 0.10, 32),
		placement.Write:     mk(0.10, 0.55, 64),
		placement.ReadWrite: mk(0.45, 0.20, 32),
		placement.Scan:      mk(0.55, 0.10, 128),
	}
}

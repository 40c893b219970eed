package exp

import (
	"fmt"
	"io"

	"met/internal/core"
	"met/internal/hbase"
	"met/internal/perfmodel"
	"met/internal/sim"
)

// tpccOpsPerTx is the average number of record operations one TPC-C
// transaction issues under the standard mix (NewOrder ~25, Payment ~7,
// Delivery ~40, OrderStatus ~5, StockLevel ~22 — weighted ≈ 17).
const tpccOpsPerTx = 17.0

// tpccNewOrderShare is the NewOrder fraction of the standard mix.
const tpccNewOrderShare = 0.45

// BuildTPCCScenario models the Section 6.3 deployment: 30 warehouses
// (≈15 GB) on 6 region servers, 300 clients, tables horizontally
// partitioned by warehouse. The model splits the client population into
// four classes matching the table groups' very different access
// patterns, each routed over 6 warehouse-range regions (item is one
// global region):
//
//	item        — read-only lookups (the hottest read traffic);
//	stock       — read-modify-write per order line;
//	orders      — orders/order_line/new_order/history, insert-heavy;
//	customer    — customer/district/warehouse, mixed with hot rows.
func BuildTPCCScenario(servers int) *Scenario {
	sc := &Scenario{Model: perfmodel.NewModel()}
	type group struct {
		name      string
		mix       perfmodel.OpMix
		share     float64 // of total record operations
		sizeBytes float64
		regions   int
		scanLen   float64
		growth    float64 // bytes added per op
	}
	groups := []group{
		{name: "item", mix: perfmodel.OpMix{Read: 1}, share: 0.26, sizeBytes: 0.12e9, regions: 1},
		{name: "stock", mix: perfmodel.OpMix{RMW: 1}, share: 0.27, sizeBytes: 2.0e9, regions: servers},
		{name: "orders", mix: perfmodel.OpMix{Read: 0.05, Write: 0.90, Scan: 0.05}, share: 0.32, sizeBytes: 10.0e9, regions: servers, scanLen: 12, growth: 350},
		{name: "customer", mix: perfmodel.OpMix{Read: 0.35, Write: 0.15, RMW: 0.50}, share: 0.15, sizeBytes: 2.5e9, regions: servers},
	}
	const totalThreads = 300
	for _, g := range groups {
		wl := &perfmodel.WorkloadPerf{
			Name:           "tpcc-" + g.name,
			Threads:        int(float64(totalThreads) * g.share),
			Mix:            g.mix,
			RecordBytes:    450, // TPC-C rows are a few hundred bytes
			AvgScanRecords: g.scanLen,
			RegionShares:   make(map[string]float64),
			Active:         true,
		}
		if wl.AvgScanRecords == 0 {
			wl.AvgScanRecords = 1
		}
		wl.GrowthBytesPerOp = g.growth
		for i := 0; i < g.regions; i++ {
			rname := fmt.Sprintf("tpcc_%s,w%d", g.name, i)
			sc.Model.Regions[rname] = &perfmodel.RegionPerf{
				Name:      rname,
				SizeBytes: g.sizeBytes / float64(g.regions),
				// NURand gives mild skew within a warehouse range.
				HotDataFrac:    0.25,
				HotTrafficFrac: 0.55,
				Locality:       1,
			}
			wl.RegionShares[rname] = 1 / float64(g.regions)
			sc.Regions = append(sc.Regions, regionMeta{name: rname, share: wl.RegionShares[rname]})
		}
		sc.Model.Workloads = append(sc.Model.Workloads, wl)
	}
	for i := 0; i < servers; i++ {
		name := fmt.Sprintf("rs%d", i)
		sc.Model.Nodes[name] = &perfmodel.NodePerf{Name: name, Config: tpccBaselineConfig()}
	}
	// The usual distributed-TPC-C placement the paper describes: node i
	// serves warehouse range i of every table (5 warehouses per region
	// server), with one admin adjustment a tuned baseline would make:
	// the insert-heaviest range of the item host's warehouse moves off
	// it, since the item region (the hottest single region) lives there.
	for r := range sc.Model.Regions {
		var idx int
		fmt.Sscanf(r[len(r)-2:], "w%d", &idx)
		sc.Model.Placement[r] = fmt.Sprintf("rs%d", idx%servers)
	}
	sc.Model.Placement["tpcc_item,w0"] = "rs0"
	sc.Model.Placement["tpcc_orders,w0"] = fmt.Sprintf("rs%d", servers-1)
	return sc
}

// tpccBaselineConfig is the paper's experimentally selected homogeneous
// configuration for TPC-C: 50% cache, 15% memstore, 32 KB blocks.
func tpccBaselineConfig() hbase.ServerConfig {
	return hbase.ServerConfig{
		HeapBytes:          3 << 30,
		BlockCacheFraction: 0.50,
		MemstoreFraction:   0.15,
		BlockBytes:         32 << 10,
		Handlers:           10,
	}
}

// Table2Result reports the PyTPCC experiment.
type Table2Result struct {
	ManualHomogeneous float64 // tpmC, setting (i)
	MeTWithReconfig   float64 // tpmC, setting (ii)
	MeTNoReconfig     float64 // tpmC, setting (iii)
}

// RunTable2 reproduces Table 2: (i) a 45-minute run with the manual
// homogeneous configuration; (ii) the same start, with MeT attached at
// minute 4; (iii) a full run under the distribution and configuration
// MeT converged to, without any reconfiguration overhead.
func RunTable2(seed uint64) *Table2Result {
	res := &Table2Result{}
	duration := 45 * sim.Minute

	// Setting (i): manual homogeneous baseline.
	res.ManualHomogeneous = tpmcOf(BuildTPCCScenario(6).run(duration, nil))

	// Setting (ii): MeT from minute 4.
	sc := BuildTPCCScenario(6)
	converged := sc.run(duration, func(d *Deployment) {
		params := core.DefaultParams()
		params.MinNodes = len(d.Model.Nodes)
		params.MaxNodes = len(d.Model.Nodes) // Table 2 studies reconfiguration only
		runner := NewMeTRunner(d, params)
		seedTypes(runner, sc)
		d.control(4*sim.Minute, duration, runner.Tick)
	})
	res.MeTWithReconfig = tpmcOf(converged)

	// Setting (iii): MeT's converged configuration from the start.
	sc = BuildTPCCScenario(6)
	// Copy configs and placement from the converged model; locality
	// fully restored (the paper's setting iii starts clean).
	for name, n := range converged.Model.Nodes {
		if _, ok := sc.Model.Nodes[name]; ok {
			sc.Model.Nodes[name].Config = n.Config
		}
	}
	for r, host := range converged.Model.Placement {
		if _, ok := sc.Model.Nodes[host]; ok {
			sc.Model.Placement[r] = host
		}
	}
	res.MeTNoReconfig = tpmcOf(sc.run(duration, nil))
	return res
}

// tpmcOf converts a deployment's completed record operations into tpmC.
func tpmcOf(d *Deployment) float64 {
	minutes := 0.0
	if len(d.Series) > 0 {
		minutes = d.Series[len(d.Series)-1].At.Minutes()
	}
	if minutes <= 0 {
		return 0
	}
	tx := d.TotalOps() / tpccOpsPerTx
	return tx * tpccNewOrderShare / minutes
}

// Print renders Table 2.
func (r *Table2Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 2 — PyTPCC average throughput (tpmC), 30 warehouses, 6 region servers, 300 clients, 45 min\n")
	fmt.Fprintf(w, "  i)   Manual-Homogeneous           %8.0f   (paper: 25380)\n", r.ManualHomogeneous)
	fmt.Fprintf(w, "  ii)  MeT with reconfig overhead   %8.0f   (paper: 31020)\n", r.MeTWithReconfig)
	fmt.Fprintf(w, "  iii) MeT w/o reconfig overhead    %8.0f   (paper: 33720)\n", r.MeTNoReconfig)
	if r.ManualHomogeneous > 0 {
		fmt.Fprintf(w, "  Het improvement (iii/i): %.0f%% (paper: 33%%); reconfig overhead (1 - ii/iii): %.0f%% (paper: 8%%)\n",
			100*(r.MeTNoReconfig/r.ManualHomogeneous-1), 100*(1-r.MeTWithReconfig/r.MeTNoReconfig))
	}
}

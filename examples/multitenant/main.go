// Multitenant: run the paper's six YCSB workloads against a functional
// cluster managed by MeT, and watch the controller classify partitions
// and reconfigure nodes heterogeneously — the Section 3 scenario end to
// end on real data paths.
package main

import (
	"fmt"
	"log"

	"met"
	"met/internal/hbase"
	"met/internal/sim"
	"met/internal/ycsb"
)

func main() {
	cluster, err := met.NewCluster(5)
	if err != nil {
		log.Fatal(err)
	}

	// The six paper workloads, shrunk to example scale: one ycsb.Runner
	// per tenant, each a single closed-loop client seeded once. A runner
	// takes any hbase.KV, so cluster.Client could be an rpc.Dial client
	// against metnode processes instead.
	rng := sim.NewRNG(42)
	var runners []*ycsb.Runner
	for _, w := range ycsb.PaperWorkloads() {
		w.RecordCount = 3000
		if w.Name == "D" {
			w.RecordCount = 300
		}
		w.FieldLengthBytes = 64
		r, err := ycsb.NewRunner(w, cluster.Client, 1, rng.Uint64())
		if err != nil {
			log.Fatal(err)
		}
		if err := r.CreateTable(cluster.Master); err != nil {
			log.Fatal(err)
		}
		if err := r.Load(0); err != nil {
			log.Fatal(err)
		}
		runners = append(runners, r)
	}
	fmt.Println("loaded 6 tenants")

	// MeT over the cluster: nominal capacity tuned so this example's
	// load reads as heavy.
	params := met.DefaultParams()
	params.MinSamples = 2
	params.MinNodes = 5
	params.MaxNodes = 5
	ctrl := met.NewController(cluster, params, 40)

	// Prime the monitor so the bulk-load writes above do not count as
	// workload traffic, then interleave load with monitoring samples
	// (one per round). Each runner's key stream carries over from one
	// Run to the next, so every round is fresh traffic.
	ctrl.Tick()
	ctrl.Monitor.Reset()
	for round := 0; round < 6; round++ {
		for _, r := range runners {
			if err := r.Run(400); err != nil {
				log.Fatal(err)
			}
		}
		ctrl.Tick()
	}
	if err := ctrl.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decisions: %d, actuations: %d\n", ctrl.Decisions(), ctrl.Actuations())

	// The cluster is now heterogeneous: print each node's profile and
	// the tenants it serves.
	for _, rs := range cluster.Master.Servers() {
		tables := map[string]bool{}
		for _, r := range rs.Regions() {
			tables[r.Table()] = true
		}
		var names []string
		for t := range tables {
			names = append(names, t)
		}
		fmt.Printf("%s [%s] serves %v\n", rs.Name(), rs.Config(), names)
	}

	// Data still fully available after all the rolling reconfigs.
	total := int64(0)
	for _, r := range runners {
		total += r.TotalCompleted()
	}
	fmt.Printf("completed %d operations with 0 errors\n", total)
	_ = hbase.DefaultServerConfig() // keep the import for doc purposes
}

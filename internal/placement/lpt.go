package placement

import "sort"

// Assignment maps node names to the partitions they host.
type Assignment map[string][]Partition

// PartitionsPerNodeCap returns the paper's per-node partition bound:
// ceil(#partitions / #nodes), "estimated by dividing the number of data
// partitions in the group by the number of nodes in the group".
func PartitionsPerNodeCap(numPartitions, numNodes int) int {
	if numNodes <= 0 {
		return numPartitions
	}
	return (numPartitions + numNodes - 1) / numNodes
}

// AssignLPT is Algorithm 2: sort partitions by decreasing load (Longest
// Processing Time), repeatedly give the heaviest remaining partition to
// the least-loaded node that still has room under max partitions per
// node. nodes must be non-empty when partitions is non-empty; max <= 0
// means uncapped.
func AssignLPT(nodes []string, partitions []Partition, max int) Assignment {
	out := make(Assignment, len(nodes))
	for _, n := range nodes {
		out[n] = nil
	}
	if len(nodes) == 0 || len(partitions) == 0 {
		return out
	}
	sorted := append([]Partition(nil), partitions...)
	// Decreasing load; ties by name for determinism.
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Load() != sorted[j].Load() {
			return sorted[i].Load() > sorted[j].Load()
		}
		return sorted[i].Name < sorted[j].Name
	})
	loads := make(map[string]float64, len(nodes))
	nodeOrder := append([]string(nil), nodes...)
	sort.Strings(nodeOrder)
	for _, p := range sorted {
		best := ""
		for _, n := range nodeOrder {
			if max > 0 && len(out[n]) >= max {
				continue // node already full
			}
			if best == "" || loads[n] < loads[best] {
				best = n
			}
		}
		if best == "" {
			// Every node is at the cap; spill onto the least loaded to
			// avoid stranding the partition.
			for _, n := range nodeOrder {
				if best == "" || loads[n] < loads[best] {
					best = n
				}
			}
		}
		out[best] = append(out[best], p)
		loads[best] += p.Load()
	}
	return out
}

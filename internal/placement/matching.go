package placement

import "sort"

// NodeState describes one node in a cluster distribution: its
// configuration profile and the partitions it hosts.
type NodeState struct {
	Node       string
	Type       AccessType
	Partitions []string
}

// TargetSet is one node's worth of the optimal distribution before it is
// matched to a concrete node.
type TargetSet struct {
	Type       AccessType
	Partitions []string
}

// ComputeOutput is Algorithm 3: given the current distribution and the
// optimizer's suggested one, produce the concrete per-node assignment
// that minimizes node reconfigurations and partition moves. On firstTime
// the suggestion is applied verbatim to the current nodes in order
// (InitialReconfiguration). Otherwise each node is matched with the
// remaining target set most similar to what it already holds — a
// best-effort set-intersection matching that prefers (a) larger overlap
// and (b) an unchanged configuration type.
func ComputeOutput(current []NodeState, optimal []TargetSet, firstTime bool) []NodeState {
	nodes := append([]NodeState(nil), current...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })
	remaining := append([]TargetSet(nil), optimal...)

	var result []NodeState
	if firstTime {
		for i, n := range nodes {
			if i < len(remaining) {
				result = append(result, NodeState{Node: n.Node, Type: remaining[i].Type, Partitions: sortedCopy(remaining[i].Partitions)})
			} else {
				result = append(result, NodeState{Node: n.Node, Type: n.Type})
			}
		}
		return result
	}

	// Greedy matching, most-overlapping node first so large intact sets
	// are preserved before fragments are handed out.
	type match struct {
		nodeIdx, setIdx int
		overlap         int
		sameType        bool
	}
	usedNode := make([]bool, len(nodes))
	usedSet := make([]bool, len(remaining))
	assigned := make([]NodeState, 0, len(nodes))
	for round := 0; round < len(nodes) && round < len(remaining); round++ {
		best := match{nodeIdx: -1, setIdx: -1, overlap: -1}
		for ni, n := range nodes {
			if usedNode[ni] {
				continue
			}
			for si, s := range remaining {
				if usedSet[si] {
					continue
				}
				ov := intersectionSize(n.Partitions, s.Partitions)
				same := n.Type == s.Type
				better := ov > best.overlap ||
					(ov == best.overlap && same && !best.sameType)
				if better {
					best = match{nodeIdx: ni, setIdx: si, overlap: ov, sameType: same}
				}
			}
		}
		if best.nodeIdx < 0 {
			break
		}
		usedNode[best.nodeIdx] = true
		usedSet[best.setIdx] = true
		assigned = append(assigned, NodeState{
			Node:       nodes[best.nodeIdx].Node,
			Type:       remaining[best.setIdx].Type,
			Partitions: sortedCopy(remaining[best.setIdx].Partitions),
		})
	}
	// Nodes with no matched set keep their type and lose their
	// partitions (they will be drained / removed by the Actuator).
	for ni, n := range nodes {
		if !usedNode[ni] {
			assigned = append(assigned, NodeState{Node: n.Node, Type: n.Type})
		}
	}
	// Leftover sets (more sets than nodes should not happen; guard by
	// spreading them over the nodes in order, mirroring the paper's
	// final foreach).
	si := 0
	for i := range assigned {
		if si >= len(remaining) {
			break
		}
		for si < len(remaining) && usedSet[si] {
			si++
		}
		if si >= len(remaining) {
			break
		}
		if len(assigned[i].Partitions) == 0 {
			assigned[i].Type = remaining[si].Type
			assigned[i].Partitions = sortedCopy(remaining[si].Partitions)
			usedSet[si] = true
		}
	}
	sort.Slice(assigned, func(i, j int) bool { return assigned[i].Node < assigned[j].Node })
	return assigned
}

func intersectionSize(a, b []string) int {
	set := make(map[string]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	n := 0
	for _, y := range b {
		if set[y] {
			n++
		}
	}
	return n
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// Package placement implements the algorithmic heart of MeT's Decision
// Maker (Section 4.2.3 and 4.2.4 of the paper):
//
//   - Classification of data partitions into read / write / scan /
//     read-write groups by the 60% threshold rules;
//   - Grouping: proportional attribution of nodes to groups;
//   - Assignment: the Longest Processing Time (LPT) greedy makespan
//     algorithm (Graham 1969) with the paper's extra constraint of a
//     maximum number of partitions per node (Algorithm 2);
//   - Output computation: best-effort set-intersection matching between
//     the current and optimal distributions, minimizing region moves and
//     node reconfigurations (Algorithm 3);
//   - An exhaustive-search baseline used by the paper's Manual-*
//     strategies ("we conducted an exhaustive search to find the best
//     distribution").
package placement

import (
	"fmt"
	"sort"

	"met/internal/metrics"
)

// AccessType is the access-pattern class of a partition or node profile.
type AccessType int

// The four groups of Section 3.3 / 4.2.3.
const (
	ReadWrite AccessType = iota // the "every other case" default
	Read
	Write
	Scan
)

// AccessTypes lists all classes in a stable order.
var AccessTypes = []AccessType{ReadWrite, Read, Write, Scan}

// String implements fmt.Stringer.
func (a AccessType) String() string {
	switch a {
	case Read:
		return "read"
	case Write:
		return "write"
	case Scan:
		return "scan"
	case ReadWrite:
		return "read-write"
	default:
		return fmt.Sprintf("AccessType(%d)", int(a))
	}
}

// Thresholds parameterizes classification. The paper's values: a
// partition is read if >60% of requests are reads, write if >60% are
// writes, scan if >60% of read requests are scans, read-write otherwise.
type Thresholds struct {
	ReadFraction  float64
	WriteFraction float64
	ScanFraction  float64
}

// Classify assigns one partition's request counters to a group. Reads
// and scans are both "read requests" for the read rule; the scan rule
// then separates scan-dominated partitions, mirroring the paper's
// criteria i–iv. A partition with no requests defaults to read-write.
func Classify(c metrics.RequestCounts, th Thresholds) AccessType {
	total := c.Total()
	if total == 0 {
		return ReadWrite
	}
	readReqs := c.Reads + c.Scans
	if float64(readReqs)/float64(total) > th.ReadFraction {
		// Read-dominated; scans within reads pick the scan profile.
		if readReqs > 0 && float64(c.Scans)/float64(readReqs) > th.ScanFraction {
			return Scan
		}
		return Read
	}
	if float64(c.Writes)/float64(total) > th.WriteFraction {
		return Write
	}
	return ReadWrite
}

// Partition is one data partition (an HBase Region) as the Decision
// Maker sees it: a name, its request counters over the monitoring window,
// and the scalar load used as the LPT job cost (total requests).
type Partition struct {
	Name     string
	Requests metrics.RequestCounts
}

// Load returns the LPT job cost: the partition's total request count.
func (p Partition) Load() float64 { return float64(p.Requests.Total()) }

// ClassifyAll buckets partitions into the four groups.
func ClassifyAll(parts []Partition, th Thresholds) map[AccessType][]Partition {
	out := make(map[AccessType][]Partition)
	for _, p := range parts {
		t := Classify(p.Requests, th)
		out[t] = append(out[t], p)
	}
	return out
}

// NodesPerGroup computes how many nodes each group receives:
// (#partitions in group / total #partitions) × total nodes, per the
// paper's Grouping formula, using largest-remainder rounding so the
// counts sum exactly to totalNodes and every non-empty group gets at
// least one node (a group with partitions but zero nodes would strand
// data).
func NodesPerGroup(groups map[AccessType][]Partition, totalNodes int) map[AccessType]int {
	out := make(map[AccessType]int)
	totalParts := 0
	for _, ps := range groups {
		totalParts += len(ps)
	}
	if totalParts == 0 || totalNodes <= 0 {
		return out
	}
	type share struct {
		t         AccessType
		base      int
		remainder float64
	}
	var shares []share
	assigned := 0
	for _, t := range AccessTypes {
		ps := groups[t]
		if len(ps) == 0 {
			continue
		}
		exact := float64(len(ps)) / float64(totalParts) * float64(totalNodes)
		base := int(exact)
		shares = append(shares, share{t: t, base: base, remainder: exact - float64(base)})
		assigned += base
	}
	// Hand out leftovers by largest remainder (ties: stable order).
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].remainder > shares[j].remainder })
	left := totalNodes - assigned
	for i := range shares {
		if left <= 0 {
			break
		}
		shares[i].base++
		left--
	}
	for _, s := range shares {
		out[s.t] = s.base
	}
	// Every non-empty group needs >= 1 node; steal from the largest.
	for {
		fixed := true
		for _, s := range shares {
			if out[s.t] == 0 {
				biggest := s.t
				for _, o := range shares {
					if out[o.t] > out[biggest] {
						biggest = o.t
					}
				}
				if out[biggest] <= 1 {
					break // cannot steal; fewer nodes than groups
				}
				out[biggest]--
				out[s.t]++
				fixed = false
			}
		}
		if fixed {
			break
		}
	}
	return out
}

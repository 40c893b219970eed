package core

import (
	"fmt"
	"time"

	"met/internal/hbase"
	"met/internal/metrics"
)

// SamplePeriod is the Monitor's polling period, 30 s in the paper: the
// period at which whoever drives a Controller ticks it.
const SamplePeriod = 30 * time.Second

// Member is one node of a Cluster as the Actuator sees it.
type Member struct {
	Name    string
	Config  hbase.ServerConfig
	Serving bool
}

// Cluster is the one view of a deployment MeT has: the Monitor
// observes through it and the Actuator acts on it. MasterCluster adapts
// the in-process hbase.Master, and the simulated deployment
// (met/internal/exp) implements it on the virtual clock. AddNode and
// RestartNode call done once the node serves: before they return on a
// cluster that acts synchronously, later on one that does not.
type Cluster interface {
	// Observe returns one poll's sample of every serving node and
	// every region.
	Observe() ([]metrics.NodeObservation, []metrics.RegionObservation)
	// Members returns every node, sorted by name.
	Members() []Member
	// Assignment returns a copy of the region -> host map.
	Assignment() map[string]string
	// Locality returns a region's locality index and whether it
	// carries traffic.
	Locality(region string) (index float64, active bool)
	AddNode(name string, cfg hbase.ServerConfig, done func()) error
	RestartNode(name string, cfg hbase.ServerConfig, done func()) error
	MoveRegion(region, node string) error
	// RemoveNode drops a node that hosts no region.
	RemoveNode(name string) error
	// MajorCompact rewrites a region's data locally and returns the
	// bytes it rewrites.
	MajorCompact(region string) (int64, error)
}

// MasterCluster is the in-process hbase.Master as a Cluster. Its adds
// and restarts complete before they return, so a plan on it runs to the
// end inside Apply. Every hosted region counts as carrying traffic.
//
// Observe measures each server's CPU, I/O wait and memory from its
// previous and current stats snapshots (hbase.SystemUsage); the
// simulated deployment supplies modeled utilizations instead.
type MasterCluster struct {
	*hbase.Master

	prev map[string]hbase.ServerStats // each server's last snapshot
}

// Observe implements Cluster from one Stats snapshot per server.
func (c *MasterCluster) Observe() ([]metrics.NodeObservation, []metrics.RegionObservation) {
	var nodes []metrics.NodeObservation
	var regions []metrics.RegionObservation
	next := make(map[string]hbase.ServerStats)
	for _, rs := range c.Servers() {
		// The node's whole state in one snapshot; a decision rule that
		// wants engine, WAL or replication health finds it in st too.
		st := rs.Stats()
		nodes = append(nodes, metrics.NodeObservation{Node: st.Name, System: hbase.SystemUsage(c.prev[st.Name], st)})
		next[st.Name] = st
		for _, r := range st.PerRegion {
			regions = append(regions, metrics.RegionObservation{Region: r.Name, Node: st.Name, Requests: r.Requests})
		}
	}
	c.prev = next // forget servers that left
	return nodes, regions
}

// Members implements Cluster.
func (c *MasterCluster) Members() []Member {
	var out []Member
	for _, rs := range c.Servers() {
		out = append(out, Member{Name: rs.Name(), Config: rs.Config(), Serving: rs.Running()})
	}
	return out
}

// Locality implements Cluster from the host's namenode index over the
// region's files.
func (c *MasterCluster) Locality(region string) (float64, bool) {
	rs, ok := c.host(region)
	if !ok {
		return 1, false
	}
	return rs.RegionLocality(region), true
}

// AddNode implements Cluster. Through the master, so a durable
// cluster's catalog records the new server.
func (c *MasterCluster) AddNode(name string, cfg hbase.ServerConfig, done func()) error {
	_, err := c.AddServer(name, cfg)
	return then(err, done)
}

// RestartNode implements Cluster. Through the master, so a durable
// cluster's catalog records the new profile and a cold start re-creates
// the server as reprofiled.
func (c *MasterCluster) RestartNode(name string, cfg hbase.ServerConfig, done func()) error {
	return then(c.RestartServer(name, cfg), done)
}

// then calls done when a synchronous step succeeded.
func then(err error, done func()) error {
	if err == nil {
		done()
	}
	return err
}

// RemoveNode implements Cluster.
func (c *MasterCluster) RemoveNode(name string) error { return c.DecommissionServer(name) }

// MajorCompact implements Cluster on the region's host.
func (c *MasterCluster) MajorCompact(region string) (int64, error) {
	rs, ok := c.host(region)
	if !ok {
		return 0, fmt.Errorf("core: region %q has no live host", region)
	}
	return rs.MajorCompact(region)
}

// host returns the server the layout assigns region.
func (c *MasterCluster) host(region string) (*hbase.RegionServer, bool) {
	name, ok := c.HostOf(region)
	if !ok {
		return nil, false
	}
	rs, err := c.Server(name)
	return rs, err == nil
}

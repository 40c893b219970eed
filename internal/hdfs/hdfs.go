// Package hdfs simulates the Hadoop Distributed File System layer that
// HBase region servers sit on: a namenode tracking which datanodes hold
// replicas of each file's blocks, replica placement with a
// local-node-first policy, and — crucially for the paper — the per-node
// **locality index**: the fraction of a region server's data that is
// stored on its co-located datanode and therefore does not cross the
// network when read.
//
// MeT's Actuator watches this index: after regions move between servers
// their files remain on the old datanodes, locality drops, and a major
// compaction (which rewrites the region's files on the new local
// datanode) is the only way to restore it. Tiramola never compacts, which
// is one of the mechanisms behind Figure 5 and 6.
package hdfs

import (
	"errors"
	"sort"
	"sync"
)

// ErrNoDatanodes is returned when writing with no registered datanodes.
var ErrNoDatanodes = errors.New("hdfs: no live datanodes")

// ErrUnknownFile is returned when operating on an unregistered file.
var ErrUnknownFile = errors.New("hdfs: unknown file")

// BlockSize is the fixed HDFS block size used by the simulation (the
// real default of 64 MB).
const BlockSize int64 = 64 << 20

// blockInfo records where a block's replicas live.
type blockInfo struct {
	size     int64
	replicas []string // datanode names
}

// fileInfo is the namenode's record of one file.
type fileInfo struct {
	size   int64
	blocks []blockInfo
}

// Namenode is the metadata service: files, blocks, replica locations.
// It is safe for concurrent use: region servers mirror flushes into it
// from the parallel write path while the Monitor reads locality, so all
// metadata lives behind one reader/writer lock (file writes are rare —
// flush/compact granularity — which keeps the exclusive side cold).
type Namenode struct {
	mu          sync.RWMutex
	replication int
	datanodes   map[string]*datanodeState
	files       map[string]*fileInfo
}

type datanodeState struct {
	name  string
	used  int64
	alive bool
}

// NewNamenode creates a namenode with the given replication factor
// (the paper uses 2).
func NewNamenode(replication int) *Namenode {
	if replication < 1 {
		replication = 1
	}
	return &Namenode{
		replication: replication,
		datanodes:   make(map[string]*datanodeState),
		files:       make(map[string]*fileInfo),
	}
}

// Replication returns the configured replication factor.
func (n *Namenode) Replication() int { return n.replication }

// AddDatanode registers (or revives) a datanode.
func (n *Namenode) AddDatanode(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if dn, ok := n.datanodes[name]; ok {
		dn.alive = true
		return
	}
	n.datanodes[name] = &datanodeState{name: name, alive: true}
}

// RemoveDatanode marks a datanode dead. Blocks whose replica set becomes
// empty are lost (the caller decides whether that matters); remaining
// replicas keep serving.
func (n *Namenode) RemoveDatanode(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if dn, ok := n.datanodes[name]; ok {
		dn.alive = false
	}
}

// Datanodes returns the names of live datanodes, sorted.
func (n *Namenode) Datanodes() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []string
	for name, dn := range n.datanodes {
		if dn.alive {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// liveCountLocked counts live datanodes; callers hold the lock.
func (n *Namenode) liveCountLocked() int {
	count := 0
	for _, dn := range n.datanodes {
		if dn.alive {
			count++
		}
	}
	return count
}

// liveReplicas filters a replica list down to live datanodes.
func (n *Namenode) liveReplicas(replicas []string) []string {
	var out []string
	for _, r := range replicas {
		if dn, ok := n.datanodes[r]; ok && dn.alive {
			out = append(out, r)
		}
	}
	return out
}

// WriteFile creates (or replaces) a file of the given size, placing the
// primary replica of every block on localNode when it is alive — HDFS's
// write-path locality guarantee, which is what co-locating region servers
// with datanodes exploits. Remaining replicas go to the least-used other
// datanodes.
func (n *Namenode) WriteFile(name string, size int64, localNode string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.liveCountLocked() == 0 {
		return ErrNoDatanodes
	}
	if old, ok := n.files[name]; ok {
		n.releaseFile(old)
	}
	f := &fileInfo{size: size}
	numBlocks := int((size + BlockSize - 1) / BlockSize)
	if numBlocks == 0 {
		numBlocks = 1
	}
	for i := 0; i < numBlocks; i++ {
		bsize := BlockSize
		if i == numBlocks-1 {
			if rem := size - int64(i)*BlockSize; rem > 0 {
				bsize = rem
			}
		}
		replicas := n.placeReplicas(localNode)
		for _, r := range replicas {
			n.datanodes[r].used += bsize
		}
		f.blocks = append(f.blocks, blockInfo{
			size:     bsize,
			replicas: replicas,
		})
	}
	n.files[name] = f
	return nil
}

// placeReplicas picks replica targets: local node first (if alive), then
// least-used live datanodes.
func (n *Namenode) placeReplicas(localNode string) []string {
	var replicas []string
	if dn, ok := n.datanodes[localNode]; ok && dn.alive {
		replicas = append(replicas, localNode)
	}
	// Candidates sorted by (used, name) for determinism.
	var cands []*datanodeState
	for _, dn := range n.datanodes {
		if dn.alive && (len(replicas) == 0 || dn.name != localNode) {
			cands = append(cands, dn)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].used != cands[j].used {
			return cands[i].used < cands[j].used
		}
		return cands[i].name < cands[j].name
	})
	for _, dn := range cands {
		if len(replicas) >= n.replication {
			break
		}
		replicas = append(replicas, dn.name)
	}
	return replicas
}

// DeleteFile removes a file and frees its replicas' space.
func (n *Namenode) DeleteFile(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	f, ok := n.files[name]
	if !ok {
		return ErrUnknownFile
	}
	n.releaseFile(f)
	delete(n.files, name)
	return nil
}

func (n *Namenode) releaseFile(f *fileInfo) {
	for _, b := range f.blocks {
		for _, r := range b.replicas {
			if dn, ok := n.datanodes[r]; ok {
				dn.used -= b.size
			}
		}
	}
}

// FileSize returns the recorded size of a file.
func (n *Namenode) FileSize(name string) (int64, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	f, ok := n.files[name]
	if !ok {
		return 0, ErrUnknownFile
	}
	return f.size, nil
}

// HasFile reports whether the file exists.
func (n *Namenode) HasFile(name string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.files[name]
	return ok
}

// Files returns all file names, sorted.
func (n *Namenode) Files() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.files))
	for name := range n.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LocalBytes returns how many of the file's bytes have a replica on node.
func (n *Namenode) LocalBytes(name, node string) (int64, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.localBytesLocked(name, node)
}

func (n *Namenode) localBytesLocked(name, node string) (int64, error) {
	f, ok := n.files[name]
	if !ok {
		return 0, ErrUnknownFile
	}
	var local int64
	for _, b := range f.blocks {
		for _, r := range n.liveReplicas(b.replicas) {
			if r == node {
				local += b.size
				break
			}
		}
	}
	return local, nil
}

// Locality returns the fraction of the given files' bytes that are local
// to node — the locality index the paper's Monitor exports per region
// server. Files that do not exist are ignored; an empty byte total counts
// as fully local (an idle server should not look degraded).
func (n *Namenode) Locality(node string, files []string) float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var total, local int64
	for _, name := range files {
		f, ok := n.files[name]
		if !ok {
			continue
		}
		total += f.size
		lb, _ := n.localBytesLocked(name, node)
		local += lb
	}
	if total == 0 {
		return 1
	}
	return float64(local) / float64(total)
}

// UsedBytes returns the bytes stored on a datanode.
func (n *Namenode) UsedBytes(node string) int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if dn, ok := n.datanodes[node]; ok {
		return dn.used
	}
	return 0
}

// TotalBytes returns the bytes of all files (logical, pre-replication).
func (n *Namenode) TotalBytes() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var total int64
	for _, f := range n.files {
		total += f.size
	}
	return total
}

package hbase

// The META catalog: the cluster's own layout, stored as just another
// durable region. HBase keeps table schemas and the region→server
// assignment in a META table that is itself a region served by the
// cluster; this file reproduces that idea one level down — a kv.Store
// on the durable backend (WAL + SSTables under <DataDir>/meta), owned
// by the LayoutMaster, that every layout mutation writes through, so a
// whole cluster can cold-start from its data directory alone
// (OpenCluster).
//
// # Row format
//
// Three key families, each value a JSON document; the LSM engine's
// timestamps version the rows (a rewrite supersedes, a tombstone
// deletes), and each document additionally carries a monotonically
// increasing Rev for observability:
//
//	cluster                  -> {replication, splitSeq, rev}
//	server/<name>            -> {config (ServerConfig incl. DataDir,
//	                             compaction knobs), rev}
//	table/<name>             -> {splitKeys, regions: [{name, start,
//	                             end, server, followers}], rev}
//
// A region's followers — the servers holding replica copies of its
// SSTables (met/internal/replication) — ride inside its table row, so
// replica placement commits atomically with the layout that created
// it. loadAll skips keys outside these families, so a catalog holding
// rows of a family this build does not know still opens.
//
// One row per table — not one per region — so every layout change a
// single operation makes (create, move, split) commits as ONE durable
// Put: the row is either entirely the old layout or entirely the new
// one, never a half-moved or half-split table. The Put is acknowledged
// only after its WAL record is fsynced (the durable engine's contract),
// which is what makes each catalog commit a crash-consistent point.
//
// # Commit ordering
//
// Mutating operations write the catalog at the point that makes a crash
// on either side recoverable:
//
//	AddServer          register server, THEN put server row — a crash
//	                   between leaves no row: the server is cleanly
//	                   absent after cold start.
//	CreateTable        open all regions, THEN put the table row (the
//	                   commit point) — a crash between leaves orphan
//	                   region directories that OpenCluster sweeps; the
//	                   table is cleanly absent.
//	MoveRegion         make-before-break: the source stops shipping the
//	                   region, the destination opens it, THEN put the
//	                   table row, THEN the source drops it — at every
//	                   instant the host a route names serves the region,
//	                   and routing follows the commit. A crash before
//	                   the put reopens the region on its old host
//	                   (region data directories are keyed by region
//	                   name, so data is correct either way).
//	SplitRegion        bump splitSeq (so a replayed split can never
//	                   mint colliding daughter names), import the
//	                   daughters, THEN put the table row (parent
//	                   replaced by daughters in one commit), THEN
//	                   reclaim the parent directory. A crash before the
//	                   commit leaves the parent authoritative and the
//	                   daughters orphaned (swept); after it, the
//	                   daughters are authoritative and the parent
//	                   directory is the orphan.
//	DecommissionServer move every region as MoveRegion does (one
//	                   table-row commit each; the server serves what it
//	                   still hosts until its own move commits), THEN
//	                   delete the server row — a crash mid-drain
//	                   cold-starts into the partially drained layout,
//	                   which is consistent.
//	RecoverServer      (LayoutMaster.RecoverServer — the one failover
//	                   path, whether Master or rpc.MasterNode runs it)
//	                   bump splitSeq, then per dead region: the elected
//	                   follower copies its replica SSTables into a fresh
//	                   gen-suffixed directory, replays the replica's
//	                   shipped WAL tail over them and opens it, THEN
//	                   put the table row; after the last region delete
//	                   the dead server's row, reclaim its shared WAL
//	                   directory and re-pick (one table-row put each)
//	                   the followers that pointed at it. A crash or a
//	                   failed adoption mid-way leaves the partially
//	                   recovered layout (recovered regions on their
//	                   followers, the rest still on the — after a cold
//	                   start, revived — dead server, still a member)
//	                   and RecoverServer can simply be re-run: it sees
//	                   only the remainder.
//
// # WAL ownership
//
// Since the shared server-wide log (durable.WAL), a region's records
// live in its *hosting server's* WAL directory (<DataDir>/wal/<server>)
// rather than its own region directory — so WAL ownership follows the
// assignment the table rows record, and the commit ordering above
// gains a log-side obligation at every region hand-off:
//
//	MoveRegion / DecommissionServer   before the destination serves the
//	       region, its store flushes and switches onto the
//	       destination's log (kv.Store.SwitchWAL). The flush makes the
//	       old log's records for the region durable in SSTables — and
//	       truncated away — BEFORE the table row commits the new
//	       assignment, so a cold start never needs a log the assignment
//	       no longer points at.
//	Abandoned regions (failed create, superseded split parent)
//	       discarding the store appends a durable drop marker to the
//	       shared log; without it, segments pinned by the abandoned
//	       region would replay its records into a future region
//	       re-minted under the same name.
//	RecoverServer   never reads the dead server's WAL directory (it
//	       stands in for a lost disk). What survives of the memstore is
//	       the replica's shipped tail (its wal-tail-<g>.log
//	       generations, appended by the replicator after each commit
//	       fsync): recovery replays them over the replica SSTables
//	       before measuring loss, so the reported LostWrites shrinks
//	       to the records no tail append reached. The dead server's WAL directory is reclaimed after
//	       its membership row is dropped; a crash between the two
//	       leaves an orphan directory OpenCluster's WAL sweep removes.
//
// # Recovery order
//
// OpenCluster loads the whole catalog (OpenLayoutMaster: the cluster
// row, server rows, table rows), then opens each member from its
// manifest — its persisted config and the regions the table rows assign
// to it (openServer, the same open a worker process runs) — rebuilds
// routing over the opened regions, and finally sweeps the region
// directories no table row references.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"met/internal/durable"
	"met/internal/kv"
)

// Catalog key scheme.
const (
	catalogClusterKey  = "cluster"
	catalogServerPfx   = "server/"
	catalogTablePfx    = "table/"
	catalogDirName     = "meta"
	catalogMemstore    = 1 << 20
	catalogStoreSplits = 4
)

// clusterRow is the singleton cluster-wide record.
type clusterRow struct {
	Replication int    `json:"replication"`
	SplitSeq    int64  `json:"split_seq"`
	Rev         uint64 `json:"rev"`
}

// serverRow records one region server's membership and configuration.
type serverRow struct {
	Config ServerConfig `json:"config"`
	Rev    uint64       `json:"rev"`
}

// tableRow records one table's schema and complete region layout. It is
// the catalog's atomic unit: every layout change to the table rewrites
// the whole row in one durable Put.
type tableRow struct {
	SplitKeys []string    `json:"split_keys,omitempty"`
	Regions   []regionRow `json:"regions"`
	Rev       uint64      `json:"rev"`
}

// regionRow is one region's bounds and assignment inside a tableRow.
// Followers records which servers hold replica copies of the region's
// SSTables (met/internal/replication); RecoverServer and OpenCluster
// rediscover replica placement from it.
type regionRow struct {
	Name      string   `json:"name"`
	Start     string   `json:"start"`
	End       string   `json:"end,omitempty"`
	Server    string   `json:"server"`
	Followers []string `json:"followers,omitempty"`
}

// catalog is the LayoutMaster's handle on the META store. All writes
// serialize on mu (layout changes are rare; the serving path never
// touches the catalog), so row revisions are strictly ordered.
type catalog struct {
	mu    sync.Mutex
	store *kv.Store
	rev   uint64 // last revision handed out
}

// catalogDir returns the META store's directory under the cluster data
// root — a sibling of regions/, never swept by the orphan cleanup.
func catalogDir(dataDir string) string {
	return filepath.Join(dataDir, catalogDirName)
}

// openCatalog opens (or creates) the META store under dataDir. The
// store has no compaction scheduler — the put whose flush crosses the
// file threshold merges the stack itself before returning: catalog
// traffic is a handful of tiny rows per layout change, and keeping it
// self-contained means the catalog never depends on any region
// server's lifecycle.
func openCatalog(dataDir string) (*catalog, error) {
	store, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: catalogMemstore,
		MaxStoreFiles:      catalogStoreSplits,
		OpenBackend:        durable.Opener(catalogDir(dataDir), durable.Options{}),
	})
	if err != nil {
		return nil, fmt.Errorf("hbase: open catalog: %w", err)
	}
	return &catalog{store: store}, nil
}

// put stamps row (through rev, its Rev field) with the next revision,
// marshals it and durably writes it under key; the write is fsynced
// before put returns (the commit point of the calling operation).
func (c *catalog) put(key string, rev *uint64, row any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rev++
	*rev = c.rev
	buf, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("hbase: catalog encode %s: %w", key, err)
	}
	if err := c.store.Put(key, buf); err != nil {
		return fmt.Errorf("hbase: catalog write %s: %w", key, err)
	}
	return nil
}

// delete durably tombstones key.
func (c *catalog) delete(key string) error {
	if err := c.store.Delete(key); err != nil {
		return fmt.Errorf("hbase: catalog delete %s: %w", key, err)
	}
	return nil
}

// catalogState is everything loadAll recovers: the typed rows of the
// whole catalog, keyed the way recovery consumes them.
type catalogState struct {
	cluster clusterRow
	servers map[string]serverRow
	tables  map[string]tableRow
}

// loadAll scans the whole catalog into its typed rows, restoring the
// revision counter past every recovered revision.
func (c *catalog) loadAll() (catalogState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := catalogState{
		cluster: clusterRow{Replication: 2},
		servers: make(map[string]serverRow),
		tables:  make(map[string]tableRow),
	}
	entries, err := c.store.Scan("", "", -1)
	if err != nil {
		return st, fmt.Errorf("hbase: catalog scan: %w", err)
	}
	for _, e := range entries {
		var rev uint64
		switch {
		case e.Key == catalogClusterKey:
			if err := json.Unmarshal(e.Value, &st.cluster); err != nil {
				return st, fmt.Errorf("hbase: catalog decode %s: %w", e.Key, err)
			}
			rev = st.cluster.Rev
		case strings.HasPrefix(e.Key, catalogServerPfx):
			var row serverRow
			if err := json.Unmarshal(e.Value, &row); err != nil {
				return st, fmt.Errorf("hbase: catalog decode %s: %w", e.Key, err)
			}
			st.servers[e.Key[len(catalogServerPfx):]] = row
			rev = row.Rev
		case strings.HasPrefix(e.Key, catalogTablePfx):
			var row tableRow
			if err := json.Unmarshal(e.Value, &row); err != nil {
				return st, fmt.Errorf("hbase: catalog decode %s: %w", e.Key, err)
			}
			st.tables[e.Key[len(catalogTablePfx):]] = row
			rev = row.Rev
		}
		if rev > c.rev {
			c.rev = rev
		}
	}
	return st, nil
}

// close releases the catalog store (WAL and SSTable handles).
func (c *catalog) close() {
	c.store.Close()
}

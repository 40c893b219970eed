package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"met/internal/compaction"
	"met/internal/durable"
	"met/internal/hbase"
	"met/internal/kv"
	"met/internal/obs"
	"met/internal/replication"
	"met/internal/sim"
)

// engineSnap is the exported engine counters of every hosted region
// server at one instant: what the layers below rpc report about
// themselves. Only a cluster hosted in this process can supply it (a
// metnode's /metrics carries the rpc handler histograms and nothing
// else), which is why these metrics come from the traced pass.
type engineSnap struct {
	perServer []kv.Stats
	kv        kv.Stats
	pool      compaction.PoolStats
	repl      replication.Stats
	wal       hbase.WALStats
	lat       hbase.LatencyStats
	files     int
}

func snapEngines(c *cluster) engineSnap {
	var s engineSnap
	for _, n := range c.nodes {
		rs := n.RegionServer()
		st := rs.EngineStats()
		s.perServer = append(s.perServer, st)
		s.kv = s.kv.Add(st)
		s.pool = s.pool.Add(rs.CompactionStats())
		s.repl = s.repl.Add(rs.ReplicationStats())
		w := rs.WALStats()
		s.wal.Appends += w.Appends
		s.wal.SyncRounds += w.SyncRounds
		s.wal.Bytes += w.Bytes
		ls := rs.LatencyStats()
		s.lat.Fsync.Merge(ls.Fsync)
		s.lat.Flush.Merge(ls.Flush)
		s.lat.ReplicationShip.Merge(ls.ReplicationShip)
		s.lat.TailShip.Merge(ls.TailShip)
		for _, r := range rs.Regions() {
			s.files += r.Store().NumFiles()
		}
	}
	return s
}

// ratio is a/b, and 0 — not NaN — over a zero base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeAmp is the engine's write amplification between two snapshots.
func writeAmp(from, to kv.Stats) float64 {
	return ratio(float64(to.FlushedBytes-from.FlushedBytes+to.CompactionBytesWritten-from.CompactionBytesWritten),
		float64(to.UserBytes-from.UserBytes))
}

// engineMetrics turns the counter deltas over the traced pass (begin →
// end, with mid taken at half-time) into the kv, durable, compaction
// and replication metrics. Latency percentiles come from the engine's
// own histograms, which cannot be subtracted, so they cover the hosted
// servers' whole life: the pass plus its short warm-up.
func engineMetrics(m map[string]float64, begin, mid, end engineSnap, wall time.Duration, scanRows int64) {
	k0, k1 := begin.kv, end.kv
	gets := float64(k1.Gets - k0.Gets)
	puts := float64(k1.Puts - k0.Puts)
	user := float64(k1.UserBytes - k0.UserBytes)
	hits, misses := float64(k1.CacheHits-k0.CacheHits), float64(k1.CacheMisses-k0.CacheMisses)

	m["kv.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["kv.blocks_read_per_get"] = ratio(float64(k1.BlocksRead-k0.BlocksRead), gets)
	m["kv.filter_negatives_per_get"] = ratio(float64(k1.FilterNegatives-k0.FilterNegatives), gets)
	m["kv.scanned_entries_per_row"] = ratio(float64(k1.ScannedEntries-k0.ScannedEntries), float64(scanRows))
	m["kv.flushes"] = float64(k1.Flushes - k0.Flushes)
	m["kv.flush_p50_ms"] = float64(end.lat.Flush.Percentile(0.5)) / 1e6
	m["kv.stall_ms"] = float64(k1.StallNanos-k0.StallNanos) / 1e6
	m["kv.stalled_writes"] = float64(k1.StalledWrites - k0.StalledWrites)
	m["kv.write_amp"] = writeAmp(k0, k1)
	m["kv.write_amp_half"] = writeAmp(k0, mid.kv)
	m["kv.store_files_end"] = float64(end.files)

	appends := float64(end.wal.Appends - begin.wal.Appends)
	m["durable.fsyncs_per_put"] = ratio(float64(end.wal.SyncRounds-begin.wal.SyncRounds), appends)
	m["durable.wal_bytes_per_put"] = ratio(float64(end.wal.Bytes-begin.wal.Bytes), appends)
	m["durable.fsync_p50_us"] = float64(end.lat.Fsync.Percentile(0.5)) / 1e3
	m["durable.fsync_p99_us"] = float64(end.lat.Fsync.Percentile(0.99)) / 1e3
	m["durable.fsync_mean_us"] = ratio(float64(end.lat.Fsync.Sum()-begin.lat.Fsync.Sum()),
		float64(end.lat.Fsync.Count()-begin.lat.Fsync.Count())) / 1e3

	p0, p1 := begin.pool, end.pool
	m["compaction.compactions"] = float64(p1.Compactions - p0.Compactions)
	m["compaction.bytes_rewritten_per_user_byte"] = ratio(float64(p1.BytesOut-p0.BytesOut), user)
	m["compaction.busy_share"] = ratio(float64(p1.CompactionNanos-p0.CompactionNanos), float64(wall.Nanoseconds())*numServers)
	m["compaction.budget_wait_ms"] = float64(p1.Budget.WaitNanos-p0.Budget.WaitNanos) / 1e6
	m["compaction.conflicts"] = float64(p1.Conflicts - p0.Conflicts)
	m["compaction.failures"] = float64(p1.Failures - p0.Failures)
	m["compaction.queue_depth_end"] = float64(p1.QueueDepth)

	r0, r1 := begin.repl, end.repl
	m["replication.bytes_shipped_per_user_byte"] = ratio(float64(r1.BytesShipped-r0.BytesShipped+r1.TailBytes-r0.TailBytes), user)
	m["replication.tail_ships_per_kput"] = ratio(float64(r1.TailShips-r0.TailShips)*1000, puts)
	m["replication.tail_ship_p50_ms"] = float64(end.lat.TailShip.Percentile(0.5)) / 1e6
	m["replication.ship_p50_ms"] = float64(end.lat.ReplicationShip.Percentile(0.5)) / 1e6
	m["replication.failures"] = float64(r1.Failures - r0.Failures)
}

// backgroundWork sums the counters a read-only workload must not move.
func backgroundWork(begin, end engineSnap) int64 {
	return end.wal.Appends - begin.wal.Appends +
		end.kv.Flushes - begin.kv.Flushes +
		end.pool.Compactions - begin.pool.Compactions +
		end.repl.FilesShipped - begin.repl.FilesShipped +
		end.repl.TailShips - begin.repl.TailShips
}

// minPerServer is the smallest per-server delta of one engine counter.
func minPerServer(begin, end engineSnap, field func(kv.Stats) int64) int64 {
	lo := int64(-1)
	for i := range end.perServer {
		if d := field(end.perServer[i]) - field(begin.perServer[i]); lo < 0 || d < lo {
			lo = d
		}
	}
	return lo
}

// dirBytes is the size of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return nil // a file compacted away mid-walk is not an error
	})
	return total, err
}

func medianUS(samples []int64) float64 {
	slices.Sort(samples)
	return percentileUS(samples, 0.5)
}

// probes measures the layers' exported functions directly, one caller,
// in a scratch directory on the data directory's filesystem: this
// sandbox's floor for a durable Put, an SSTable build and a block load
// at the workload's record size, plus the telemetry and generator costs
// that must stay invisible. n scales the iteration counts.
func probes(m map[string]float64, scratch string, w *workload, n int) error {
	value := makeValue(nil, "probe", 0)

	wal, err := durable.OpenWAL(filepath.Join(scratch, "wal"), durable.Options{})
	if err != nil {
		return err
	}
	log := wal.Region("probe")
	var appendNS []int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := log.Append(kv.Entry{Key: w.ycsb.Key(int64(i)), Value: value, Timestamp: uint64(i + 1)}); err != nil {
			wal.Close()
			return err
		}
		appendNS = append(appendNS, time.Since(t0).Nanoseconds())
	}
	if err := wal.Close(); err != nil {
		return err
	}
	m["durable.wal_append_probe_us"] = medianUS(appendNS)

	backend, err := durable.Open(filepath.Join(scratch, "sst"), durable.Options{ExternalWAL: true})
	if err != nil {
		return err
	}
	defer backend.Close()
	entries := make([]kv.Entry, 4*n)
	for i := range entries {
		entries[i] = kv.Entry{Key: w.ycsb.Key(int64(i)), Value: value, Timestamp: uint64(i + 1)}
	}
	blockBytes := hbase.DefaultServerConfig().BlockBytes
	t0 := time.Now()
	if _, err := backend.Create(1, entries, blockBytes); err != nil {
		return err
	}
	m["durable.sstable_write_mb_s"] = float64(len(entries)*(valueBytes+16)) / 1e6 / time.Since(t0).Seconds()
	reader := backend.Reader(1)
	var loadNS []int64
	for round := 0; round < 5; round++ {
		for b := 0; b < reader.NumBlocks(); b++ {
			t0 := time.Now()
			if _, err := reader.LoadBlock(b); err != nil {
				return err
			}
			loadNS = append(loadNS, time.Since(t0).Nanoseconds())
		}
	}
	m["durable.block_load_us"] = medianUS(loadNS)

	var h obs.Histogram
	const records = 1 << 20
	t0 = time.Now()
	for i := 0; i < records; i++ {
		h.Record(time.Duration(i))
	}
	m["obs.record_ns"] = float64(time.Since(t0).Nanoseconds()) / records

	rng, gen := sim.NewRNG(1), w.generator()
	var sink int
	t0 = time.Now()
	for i := 0; i < 100*n; i++ {
		sink += int(w.ycsb.NextOp(rng)) + len(makeValue(value, w.ycsb.Key(gen.Next(rng)), uint32(i)))
	}
	m["client.gen_ns_per_op"] = float64(time.Since(t0).Nanoseconds()) / float64(100*n)
	if sink == 0 {
		return fmt.Errorf("generator probe produced nothing")
	}
	return os.RemoveAll(scratch)
}

// allocProbe is the heap cost of the rpc layer per op: one caller runs
// n ops through rpc.Client and n through the RegionServer directly, and
// the difference of the process-wide runtime.MemStats deltas — client,
// server-side HTTP and handler together, since the traced cluster is
// hosted here — is what the wire adds. It probes the layer, not the
// workload: Get and Scan are measured on every workload, Put only where
// the workload writes.
func allocProbe(m map[string]float64, apis []kvAPI, d *driver, n int) error {
	table := d.w.table()
	measure := func(op func(api kvAPI, key string) error) (objects, bytes float64, err error) {
		for depth, sign := range [...]float64{depthRPC: 1, depthHBase: -1} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				if err := op(apis[depth], d.w.ycsb.Key(int64(i)%d.w.records)); err != nil {
					return 0, 0, err
				}
			}
			runtime.ReadMemStats(&after)
			objects += sign * float64(after.Mallocs-before.Mallocs) / float64(n)
			bytes += sign * float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		}
		return objects, bytes, nil
	}
	var err error
	if m["rpc.allocs_per_get"], _, err = measure(func(api kvAPI, key string) error {
		_, err := api.Get(table, key)
		return err
	}); err != nil {
		return err
	}
	if !d.w.readOnly {
		if m["rpc.allocs_per_put"], _, err = measure(func(api kvAPI, key string) error {
			idx := d.nextUpdate(0)
			d.versions[idx]++
			return api.Put(table, d.w.ycsb.Key(idx), makeValue(nil, d.w.ycsb.Key(idx), d.versions[idx]))
		}); err != nil {
			return err
		}
	}
	_, m["rpc.alloc_bytes_per_scan"], err = measure(func(api kvAPI, key string) error {
		_, err := api.Scan(table, key, "", maxScanRows/2)
		return err
	})
	return err
}

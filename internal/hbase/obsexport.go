package hbase

import (
	"fmt"
	"strings"

	"met/internal/obs"
)

// The debug plane's exporters. WriteServerMetrics is the only
// definition of the met_* server series; the two planes differ in which
// snapshots they hand it: Master.DebugConfig every server of an
// in-process cluster, RegionServer.DebugConfig the one server a metnode
// worker hosts.

// WriteServerMetrics renders server snapshots (RegionServer.Stats) in
// the Prometheus text exposition format, version 0.0.4, one family at
// a time.
func WriteServerMetrics(mw *obs.MetricWriter, servers []ServerStats) {
	// family emits one metric family: the header, then what emit writes
	// for each server, given that server's base label.
	family := func(name, help, typ string, emit func(name string, s *ServerStats, server []obs.Label)) {
		mw.Header(name, help, typ)
		for i := range servers {
			emit(name, &servers[i], []obs.Label{{Name: "server", Value: servers[i].Name}})
		}
	}
	with := func(l []obs.Label, name, value string) []obs.Label {
		return append(l[:len(l):len(l)], obs.Label{Name: name, Value: value})
	}
	value := func(name, help, typ string, pick func(*ServerStats) float64) {
		family(name, help, typ, func(name string, s *ServerStats, l []obs.Label) {
			mw.Sample(name, l, pick(s))
		})
	}
	summary := func(name, help string, pick func(*LatencyStats) *obs.Snapshot) {
		family(name, help, "summary", func(name string, s *ServerStats, l []obs.Label) {
			mw.Summary(name, l, pick(&s.Latency))
		})
	}

	value("met_server_up", "1 while the region server is accepting requests.", "gauge",
		func(s *ServerStats) float64 {
			if s.Up {
				return 1
			}
			return 0
		})
	value("met_server_regions", "Regions hosted by the server.", "gauge",
		func(s *ServerStats) float64 { return float64(s.Regions) })
	family("met_requests_total", "Cumulative served operations by class.", "counter",
		func(name string, s *ServerStats, l []obs.Label) {
			mw.Counter(name, with(l, "op", "read"), s.Requests.Reads)
			mw.Counter(name, with(l, "op", "write"), s.Requests.Writes)
			mw.Counter(name, with(l, "op", "scan"), s.Requests.Scans)
		})
	family("met_op_latency_seconds", "Server-level serving latency by op class.", "summary",
		func(name string, s *ServerStats, l []obs.Label) {
			mw.Summary(name, with(l, "op", "get"), &s.Latency.Get)
			mw.Summary(name, with(l, "op", "put"), &s.Latency.Put)
			mw.Summary(name, with(l, "op", "scan"), &s.Latency.Scan)
		})
	family("met_region_op_latency_seconds", "Region-level serving latency by op class.", "summary",
		func(name string, s *ServerStats, l []obs.Label) {
			for i := range s.PerRegion {
				r := &s.PerRegion[i]
				rl := with(l, "region", r.Name)
				mw.Summary(name, with(rl, "op", "get"), &r.Get)
				mw.Summary(name, with(rl, "op", "put"), &r.Put)
				mw.Summary(name, with(rl, "op", "scan"), &r.Scan)
			}
		})
	summary("met_wal_fsync_latency_seconds", "Shared-WAL commit fsync round duration.",
		func(ls *LatencyStats) *obs.Snapshot { return &ls.Fsync })
	summary("met_flush_latency_seconds", "Memstore flush duration across hosted regions.",
		func(ls *LatencyStats) *obs.Snapshot { return &ls.Flush })
	summary("met_compaction_latency_seconds", "Background compaction merge duration.",
		func(ls *LatencyStats) *obs.Snapshot { return &ls.Compaction })
	summary("met_replication_ship_latency_seconds", "Replica reconcile duration when SSTables were copied.",
		func(ls *LatencyStats) *obs.Snapshot { return &ls.ReplicationShip })
	summary("met_tail_ship_latency_seconds", "WAL-tail append or generation-start duration.",
		func(ls *LatencyStats) *obs.Snapshot { return &ls.TailShip })

	value("met_engine_flushes_total", "Memstore flushes.", "counter",
		func(s *ServerStats) float64 { return float64(s.Engine.Flushes) })
	value("met_engine_compactions_total", "Completed compactions.", "counter",
		func(s *ServerStats) float64 { return float64(s.Engine.Compactions) })
	value("met_engine_compaction_queue_depth", "Stores queued for or undergoing background compaction.", "gauge",
		func(s *ServerStats) float64 { return float64(s.CompactionBacklog) })
	value("met_engine_stall_seconds_total", "Writer time blocked at the store-file ceiling.", "counter",
		func(s *ServerStats) float64 { return float64(s.Engine.StallNanos) / 1e9 })
	value("met_engine_write_amplification", "Physical bytes written per logical byte.", "gauge",
		func(s *ServerStats) float64 { return s.Engine.WriteAmplification })
	value("met_engine_cache_hit_ratio", "Block cache hit ratio.", "gauge",
		func(s *ServerStats) float64 { return s.Engine.CacheHitRatio() })
	value("met_locality", "Fraction of hosted bytes stored on the co-located datanode.", "gauge",
		func(s *ServerStats) float64 { return s.Locality })
	value("met_wal_appends_total", "Records appended to the shared WAL.", "counter",
		func(s *ServerStats) float64 { return float64(s.WAL.Appends) })
	value("met_wal_sync_rounds_total", "Successful shared-WAL fsync rounds.", "counter",
		func(s *ServerStats) float64 { return float64(s.WAL.SyncRounds) })
	value("met_wal_writes_per_fsync", "WAL appends per fsync round (group-commit batching).", "gauge",
		func(s *ServerStats) float64 { return s.WritesPerFsync })
	value("met_replication_queue_depth", "Regions whose replicas are behind: queued or shipping.", "gauge",
		func(s *ServerStats) float64 { return float64(s.ReplicationBacklog) })
	value("met_replication_bytes_shipped_total", "SSTable bytes copied to follower replicas.", "counter",
		func(s *ServerStats) float64 { return float64(s.Replication.BytesShipped) })
	family("met_replication_failures_total", "Failed replica ships by kind (retried on the next round).", "counter",
		func(name string, s *ServerStats, l []obs.Label) {
			mw.Counter(name, with(l, "kind", "tail"), s.Replication.TailFailures)
			mw.Counter(name, with(l, "kind", "file"), s.Replication.FileFailures)
		})
	family("met_replication_last_failure", "1, labelled with the newest failed ship's region and error.", "gauge",
		func(name string, s *ServerStats, l []obs.Label) {
			if s.Replication.LastFailure != "" {
				mw.Sample(name, with(l, "error", s.Replication.LastFailure), 1)
			}
		})
	value("met_slow_ops_total", "Operations that crossed the slow-op threshold.", "counter",
		func(s *ServerStats) float64 { return float64(s.SlowOps) })
}

// Stats snapshots every server, in name order.
func (m *Master) Stats() []ServerStats {
	servers := m.Servers()
	out := make([]ServerStats, len(servers))
	for i, rs := range servers {
		out[i] = rs.Stats()
	}
	return out
}

// WriteMetrics emits the whole cluster's telemetry plus the process's
// runtime stats as one Prometheus page — the /metrics source of
// Master.DebugConfig.
func (m *Master) WriteMetrics(mw *obs.MetricWriter) {
	WriteServerMetrics(mw, m.Stats())
	obs.WriteProcessMetrics(mw)
}

// Health returns nil when every server in the cluster is running, or an
// error naming the stopped ones in name order — the debug plane's
// /healthz source.
func (m *Master) Health() error {
	var down []string
	for _, rs := range m.Servers() {
		if !rs.Running() {
			down = append(down, rs.Name())
		}
	}
	if len(down) == 0 {
		return nil
	}
	return fmt.Errorf("hbase: servers stopped: %s", strings.Join(down, ", "))
}

// SlowOps aggregates every server's slow-op log, oldest first per
// server, servers in name order.
func (m *Master) SlowOps() []obs.SlowOp {
	var out []obs.SlowOp
	for _, rs := range m.Servers() {
		out = append(out, rs.SlowOps()...)
	}
	return out
}

// DebugConfig bundles the master's exporters for obs.ServeDebug, so one
// call stands up the cluster's debug plane.
func (m *Master) DebugConfig() obs.DebugConfig {
	return obs.DebugConfig{
		Metrics: m.WriteMetrics,
		Health:  m.Health,
		SlowOps: m.SlowOps,
	}
}

// DebugConfig is the same plane for one server — what a metnode worker
// mounts on its RPC listener (rpc.NewServerNode).
func (s *RegionServer) DebugConfig() obs.DebugConfig {
	return obs.DebugConfig{
		Metrics: func(mw *obs.MetricWriter) { WriteServerMetrics(mw, []ServerStats{s.Stats()}) },
		Health: func() error {
			if !s.Running() {
				return ErrServerStopped
			}
			return nil
		},
		SlowOps: s.SlowOps,
	}
}

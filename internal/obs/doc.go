// Package obs is the observability layer of the reproduction: lock-free
// latency histograms, per-op trace contexts feeding a bounded slow-op
// log, process-level runtime stats, and an opt-in HTTP debug plane that
// exposes all of it in Prometheus text format. MeT is a
// monitoring-driven control loop — the paper's Monitor consumes
// Ganglia/JMX signals — so the quality of every decision downstream is
// bounded by the fidelity of what is collected here.
//
// # Histogram bucket layout
//
// Histogram is an HDR-style fixed-bucket histogram over int64 nanosecond
// values. The first 8 buckets are exact (values 0..7 ns); above that,
// each power-of-two octave [2^e, 2^(e+1)) is split into 8 linear
// sub-buckets of width 2^(e-3). 488 buckets cover the full int64 range
// (about 292 years in nanoseconds) with a worst-case relative error of
// 12.5% — one sub-bucket width — which is ample for separating a 100 µs
// p99 from a 10 ms one. Percentile extraction returns the inclusive
// upper bound of the bucket holding the requested rank (clamped to the
// observed maximum), so reported percentiles never understate the tail.
//
// # Overhead budget
//
// Recording is wait-free: one atomic add on the bucket, one on the
// running sum, and a load-then-CAS that only contends when a new maximum
// is observed — no locks, no allocation, roughly 15 ns uncontended.
// That is the entire always-on cost added to a served operation beyond
// reading the clock twice. Tracing is allocation-free when disabled: a
// nil *Trace makes every span method a no-op without reading the clock,
// so the slow-op machinery costs one predictable nil check per stage
// until a threshold is configured. The slow-op log takes a mutex only
// when an op actually exceeded the threshold, which is by construction
// rare. Shard is the single-writer variant of Histogram (plain adds, no
// atomics) for per-worker sharding on closed-loop generators; shards
// merge into ordinary Snapshots.
//
// # Exposition format
//
// MetricWriter emits the Prometheus text exposition format (version
// 0.0.4): `# HELP`/`# TYPE` headers, `name{label="value"} value` samples
// with escaped label values, and summary-style quantile series
// (quantile="0.5|0.95|0.99|0.999" plus _sum and _count) for histogram
// snapshots. Durations are exported in seconds, following the
// Prometheus base-unit convention. NewMux mounts /metrics alongside
// /healthz, /debug/vars (expvar), /debug/slowops, and net/http/pprof;
// it is the only place those routes are registered. ServeDebug gives
// an in-process cluster a listener for it, and every rpc node mounts
// it on the listener it already serves.
package obs

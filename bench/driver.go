package main

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"met/internal/hbase"
	"met/internal/kv"
	"met/internal/rpc"
	"met/internal/sim"
	"met/internal/ycsb"
)

// kvAPI is what the driver needs from a layer. *rpc.Client and
// *hbase.RegionServer satisfy it as they are.
type kvAPI interface {
	Get(table, key string) ([]byte, error)
	Put(table, key string, value []byte) error
	Scan(table, start, end string, limit int) ([]kv.Entry, error)
}

type opClass uint8

const (
	opGet opClass = iota
	opPut
	opScan
	numOps
)

var opNames = [numOps]string{"get", "put", "scan"}

// Layers an op can enter at in the traced pass, outermost first.
const (
	depthRPC   = iota // rpc.Client: the full path
	depthHBase        // RegionServer: routing, counters, telemetry
	depthKV           // Region.Store(): the engine and durable below it
	numDepths
)

var depthNames = [numDepths]string{"rpc", "hbase", "kv"}

// span is one operation as the client saw it. The untraced run keeps
// the same record (all at depthRPC): raw per-op samples, sorted at the
// end, because obs histograms' 12.5% buckets are coarser than the
// repeatability the bounds need.
type span struct {
	start, end int64 // ns since the phase began
	op         opClass
	depth      uint8
}

// driver is the closed loop: `clients` goroutines, each issuing its next
// op only when the previous one returned, all sharing one rpc.Client.
//
// Client c owns every key of the regions whose number is c modulo
// clients, and starts no op outside them, so it always knows the exact
// version a Get must return. Reads and scans draw a position from the
// workload's distribution and take the key at that relative position
// among the client's own keys. Updates walk the own keys with a seeded
// stride coprime to their number: every key is rewritten equally often
// (uniform, without replacement) and never twice within one memstore's
// life.
//
// Both rules sidestep engine defects the verifier found at the commit
// that added this benchmark (README.md, "Engine defects the verifier
// found"): a Get returns a stale version when two versions of a key in
// one flushed file straddle a block boundary, and a Scan can return a
// row below its start key when another client inserts just below it
// mid-scan. A benchmark's operations must not fail, and this change may
// not touch the engine; the cost is that one store never serves two
// clients' point ops at once.
type driver struct {
	w        *workload
	seed     uint64
	clients  int
	versions []uint32  // last acknowledged version per key index
	owner    []uint8   // owner[i]: the client owning key i
	own      [][]int64 // own[c]: the key indices client c owns, ascending
	cursor   []int64   // per client: position of its update walk, kept across phases
	stride   []int64
	phase    int // bumped per run() so phases draw different ops
}

func newDriver(w *workload, seed uint64, clients int) *driver {
	d := &driver{w: w, seed: seed, clients: clients,
		versions: make([]uint32, w.records), owner: make([]uint8, w.records),
		own: make([][]int64, clients), cursor: make([]int64, clients), stride: make([]int64, clients)}
	for region := int64(0); region < numRegions; region++ {
		c := int(region) % clients
		// The same boundaries as ycsb.Workload.SplitKeys.
		for i := w.records * region / numRegions; i < w.records*(region+1)/numRegions; i++ {
			d.owner[i] = uint8(c)
			d.own[c] = append(d.own[c], i)
		}
	}
	rng := sim.NewRNG(seed)
	for c := range d.stride {
		n := int64(len(d.own[c]))
		d.cursor[c] = rng.Int63n(n)
		d.stride[c] = n/3 + rng.Int63n(n/3+1)
		for gcd(d.stride[c], n) != 1 {
			d.stride[c]++
		}
	}
	return d
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// nextUpdate advances client c's update walk and returns the key index.
func (d *driver) nextUpdate(c int) int64 {
	d.cursor[c] = (d.cursor[c] + d.stride[c]) % int64(len(d.own[c]))
	return d.own[c][d.cursor[c]]
}

// ownIndex maps a position drawn over the whole key space onto client
// c's own keys, keeping its relative place (so a hot prefix stays one).
func (d *driver) ownIndex(i int64, c int) int64 {
	return d.own[c][i*int64(len(d.own[c]))/d.w.records]
}

// phaseResult is what one timed phase produced.
type phaseResult struct {
	wall      time.Duration
	spans     []span
	attempted int64
	failed    int64
	firstErr  error
	scanRows  int64 // rows the scans returned
}

// run drives the workload for dur. apis[d] is the entry point for depth
// d; op i of a client enters at depth i mod len(apis), so with three
// entries every layer sees the same live stores and the same op mix.
func (d *driver) run(apis []kvAPI, dur time.Duration) phaseResult {
	d.phase++
	results := make([]phaseResult, d.clients)
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(dur)
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = d.client(c, apis, begin, deadline)
		}(c)
	}
	wg.Wait()
	total := phaseResult{wall: time.Since(begin)}
	for _, r := range results {
		total.spans = append(total.spans, r.spans...)
		total.attempted += r.attempted
		total.failed += r.failed
		total.scanRows += r.scanRows
		if total.firstErr == nil {
			total.firstErr = r.firstErr
		}
	}
	return total
}

func (d *driver) client(c int, apis []kvAPI, begin, deadline time.Time) phaseResult {
	w := &d.w.ycsb
	rng := sim.NewRNG(d.seed ^ uint64(d.phase)<<32 ^ uint64(c+1)<<48)
	gen := d.w.generator()
	table := d.w.table()
	res := phaseResult{spans: make([]span, 0, 1<<17)}
	want, put := make([]byte, 0, valueBytes), make([]byte, 0, valueBytes)
	fail := func(err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	// done records the op that began at t0 and has just returned.
	done := func(op opClass, depth int, t0 time.Time) {
		res.spans = append(res.spans, span{t0.Sub(begin).Nanoseconds(), time.Since(begin).Nanoseconds(), op, uint8(depth)})
	}
	for i := 0; time.Now().Before(deadline); i++ {
		op := w.NextOp(rng)
		idx := d.ownIndex(gen.Next(rng), c)
		depth := i % len(apis)
		api := apis[depth]
		res.attempted++
		switch op {
		case ycsb.OpRead:
			key := w.Key(idx)
			t0 := time.Now()
			val, err := api.Get(table, key)
			done(opGet, depth, t0)
			want = makeValue(want, key, d.versions[idx])
			if err != nil {
				fail(fmt.Errorf("get %s: %w", key, err))
			} else if string(val) != string(want) {
				fail(fmt.Errorf("get %s: got %.30q, want version %d", key, val, d.versions[idx]))
			}
		case ycsb.OpUpdate:
			idx = d.nextUpdate(c)
			key := w.Key(idx)
			put = makeValue(put, key, d.versions[idx]+1)
			t0 := time.Now()
			err := api.Put(table, key, put)
			done(opPut, depth, t0)
			if err != nil {
				fail(fmt.Errorf("put %s: %w", key, err))
			} else {
				d.versions[idx]++
			}
		case ycsb.OpScan:
			key, limit := w.Key(idx), 1+rng.Intn(maxScanRows)
			t0 := time.Now()
			rows, err := api.Scan(table, key, "", limit)
			done(opScan, depth, t0)
			res.scanRows += int64(len(rows))
			if err == nil {
				err = d.checkScan(rows, idx, limit, c, depth == depthRPC)
			}
			if err != nil {
				fail(fmt.Errorf("scan %s limit %d: %w", key, limit, err))
			}
		default:
			panic("bench: workload draws an op the driver does not issue: " + op.String())
		}
	}
	return res
}

// checkScan verifies a scan that started at key index from: rows are
// the consecutive keys from `from` on (which implies order and the
// lower bound), at most limit of them, each carrying a well-formed
// value for its own key, at exactly the acknowledged version where this
// client owns the key. Through rpc.Client (whole) the scan stitches
// regions, so the count is exact too; below it a scan stops at its
// region's end.
func (d *driver) checkScan(rows []kv.Entry, from int64, limit, c int, whole bool) error {
	if len(rows) > limit {
		return fmt.Errorf("%d rows exceed the limit", len(rows))
	}
	if exact := min(int64(limit), d.w.records-from); whole && int64(len(rows)) != exact {
		return fmt.Errorf("%d rows, want %d", len(rows), exact)
	}
	for i, e := range rows {
		idx := from + int64(i)
		if e.Key != d.w.ycsb.Key(idx) {
			return fmt.Errorf("row %d is %s, want %s", i, e.Key, d.w.ycsb.Key(idx))
		}
		v, ok := valueVersion(e.Value, e.Key)
		if !ok || e.Tombstone {
			return fmt.Errorf("row %s: malformed value %.30q", e.Key, e.Value)
		}
		if int(d.owner[idx]) == c && v != d.versions[idx] {
			return fmt.Errorf("row %s: version %d, acknowledged %d", e.Key, v, d.versions[idx])
		}
	}
	return nil
}

// ackedLost reads back up to 5000 evenly spaced keys and counts those
// missing or not at the last acknowledged version. Call it only while
// no client is running.
func (d *driver) ackedLost(api kvAPI) (checked, lost int) {
	step := max(1, int(d.w.records)/5000)
	var want []byte
	for i := int64(0); i < d.w.records; i += int64(step) {
		key := d.w.ycsb.Key(i)
		want = makeValue(want, key, d.versions[i])
		val, err := api.Get(d.w.table(), key)
		checked++
		if err != nil || string(val) != string(want) {
			lost++
		}
	}
	return checked, lost
}

// durations returns the sorted latencies, in nanoseconds, of the spans
// matching op and depth (op == numOps matches every class).
func durations(spans []span, op opClass, depth int) []int64 {
	var out []int64
	for _, s := range spans {
		if (op == numOps || s.op == op) && int(s.depth) == depth {
			out = append(out, s.end-s.start)
		}
	}
	slices.Sort(out)
	return out
}

// percentileUS reads quantile q off sorted nanosecond samples, in
// microseconds; 0 with no samples.
func percentileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)]) / 1e3
}

func meanUS(samples []int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum int64
	for _, s := range samples {
		sum += s
	}
	return float64(sum) / float64(len(samples)) / 1e3
}

// p99Samples is the fewest samples a p99 is reported from: ten beyond
// the percentile.
const p99Samples = 1000

// layerAPIs returns the traced pass's three entry points over a cluster
// hosted in this process.
func layerAPIs(c *cluster) []kvAPI {
	var route router
	for _, n := range c.nodes {
		for _, reg := range n.RegionServer().Regions() {
			route = append(route, routed{n.RegionServer(), reg})
		}
	}
	return []kvAPI{c.client, serverAPI{route}, storeAPI{route}}
}

// router resolves a key to its region server and region without
// crossing the wire. The layout is fixed for a pass (nothing moves or
// splits), so it is captured once.
type router []routed

type routed struct {
	rs     *hbase.RegionServer
	region *hbase.Region
}

func (r router) find(table, key string) routed {
	for _, x := range r {
		if x.region.Table() == table && x.region.Contains(key) {
			return x
		}
	}
	panic("bench: no region for " + table + "/" + strconv.Quote(key))
}

// serverAPI enters at hbase.RegionServer.
type serverAPI struct{ r router }

func (a serverAPI) Get(table, key string) ([]byte, error) {
	return a.r.find(table, key).rs.Get(table, key)
}

func (a serverAPI) Put(table, key string, value []byte) error {
	return a.r.find(table, key).rs.Put(table, key, value)
}

func (a serverAPI) Scan(table, start, end string, limit int) ([]kv.Entry, error) {
	return a.r.find(table, start).rs.Scan(table, start, end, limit)
}

// storeAPI enters at the region's kv.Store; like RegionServer.Scan, its
// Scan stops at the region's end.
type storeAPI struct{ r router }

func (a storeAPI) Get(table, key string) ([]byte, error) {
	return a.r.find(table, key).region.Store().Get(key)
}

func (a storeAPI) Put(table, key string, value []byte) error {
	return a.r.find(table, key).region.Store().Put(key, value)
}

func (a storeAPI) Scan(table, start, end string, limit int) ([]kv.Entry, error) {
	reg := a.r.find(table, start).region
	if e := reg.EndKey(); e != "" && (end == "" || e < end) {
		end = e
	}
	return reg.Store().Scan(start, end, limit)
}

var _ kvAPI = (*rpc.Client)(nil)
var _ kvAPI = (*hbase.RegionServer)(nil)

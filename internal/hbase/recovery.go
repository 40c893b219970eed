package hbase

// Server failover: reopening a dead server's regions from the replica
// SSTables its followers hold (met/internal/replication), with the data
// loss — acknowledged writes that never reached a replica — measured
// and reported, never silent. See catalog.go for the commit ordering.

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"met/internal/durable"
	"met/internal/replication"
)

// ErrServerStillRunning is returned by RecoverServer for a server that
// has not been stopped: failover is for dead servers, and recovering a
// live one would fork its regions.
var ErrServerStillRunning = errors.New("hbase: refusing to recover a running server; stop it first")

// RegionRecovery describes one region's failover.
type RegionRecovery struct {
	// Region and NewRegion are the dead region's name and the
	// generation-suffixed name it was recovered under.
	Region    string
	NewRegion string
	// Source is the follower whose replica directory the region was
	// reopened from (it also hosts the recovered region).
	Source string
	// ReplicaFiles is how many SSTables the replica held.
	ReplicaFiles int
	// TailWrites is how many durable-but-unflushed records were replayed
	// from the replica's shipped WAL tail (its wal-tail-<g>.log
	// generations) — the writes that sat in the dead server's memstore
	// yet still survive because tail streaming appended them after their
	// commit fsync.
	TailWrites int
	// TailTorn reports that a tail generation ended in a torn frame —
	// the normal result of a primary or follower dying mid-append, or of
	// a failed append the shipper abandoned for a fresh generation. The
	// intact prefix of every generation was still replayed.
	TailTorn bool //lint:allow deadfield reported to RecoverServer's caller; TestFailoverTornShippedTail pins it
	// LostWrites counts the acknowledged mutations the replica did not
	// cover — after the tail replay, only the records no tail append
	// reached. Those are a suffix of the region's history (a follower
	// drops tail records only once it holds their SSTable), and store
	// timestamps are minted densely (one per mutation), so the dead
	// store's clock minus the recovered store's clock is exactly that
	// count.
	LostWrites int64
}

// RecoveryReport is RecoverServer's accounting: what was recovered from
// where, and precisely how much was lost. A zero LostWrites means every
// acknowledged write survived the server's death.
type RecoveryReport struct {
	Regions    []RegionRecovery
	LostWrites int64
}

// RecoverServer fails over a dead (stopped) server through
// LayoutMaster.RecoverServer, adopting with direct RegionServer calls.
// The caller must have stopped the server (HardStop, Shutdown, or a
// real process kill); recovering a live server is refused. The returned
// report counts, per region, the acknowledged writes the replica did
// not cover — with replication caught up after a clean flush that count
// is zero; otherwise it is the unreplicated memstore, reported rather
// than silently dropped. The dead store objects are consulted only for
// that in-memory accounting (their logical clocks); region data comes
// exclusively from the replica copies. After a partial failure the
// report lists the regions that did fail over, the server stays a
// member, and RecoverServer can be re-run for the rest.
func (m *Master) RecoverServer(name string) (*RecoveryReport, error) {
	rs, err := m.Server(name)
	if err != nil {
		return nil, err
	}
	if rs.Running() {
		return nil, fmt.Errorf("%w (%s)", ErrServerStillRunning, name)
	}
	if rs.Config().DataDir == "" {
		return nil, fmt.Errorf("hbase: recover %s: no durable data directory, nothing replicated", name)
	}
	m.namenode.RemoveDatanode(name)
	adopted, err := m.layout.RecoverServer(name, func(spec AdoptSpec) (AdoptionReport, error) {
		dst, err := m.Server(spec.Source)
		if err != nil {
			return AdoptionReport{}, err
		}
		rep, err := dst.AdoptRegion(spec)
		if err != nil {
			return rep, err
		}
		if spec.ReplicaDir != "" {
			// The replayed tail is in the new store (durably, through the
			// destination's shared WAL) but the table row is not yet
			// committed: a crash here cold-starts the old layout, the
			// region on the (revived) dead member from its untouched
			// primary directory.
			m.layout.crash("recoverserver.tail-replayed")
		}
		return rep, nil
	}, m.refollow)

	report := &RecoveryReport{}
	for _, a := range adopted {
		rec := RegionRecovery{
			Region: a.Spec.Region, NewRegion: a.Spec.NewRegion, Source: a.Spec.Source,
			ReplicaFiles: a.Report.ReplicaFiles, TailWrites: a.Report.TailWrites, TailTorn: a.Report.TailTorn,
		}
		// Committed: release the dead region's handles and HDFS files.
		if old := rs.CloseRegion(a.Spec.Region); old != nil {
			for _, f := range old.Files() {
				_ = m.namenode.DeleteFile(f)
			}
			rec.LostWrites = max(0, int64(old.Store().MaxTimestamp())-int64(a.Report.RecoveredTS))
			old.Store().Close()
		}
		report.Regions = append(report.Regions, rec)
		report.LostWrites += rec.LostWrites
	}
	if !slices.Contains(m.layout.ServerNames(), name) {
		m.mu.Lock()
		delete(m.servers, name)
		m.mu.Unlock()
	}
	return report, err
}

// refollow applies a committed follower re-pick to the live region
// object, so the hosting server's replicator follows the layout. A
// region no longer hosted there moved under a racing operation that
// re-picked for itself.
func (m *Master) refollow(up FollowerUpdate) {
	if rs, err := m.Server(up.Server); err == nil {
		_ = rs.Refollow(up)
	}
}

// RecoverServer is the one failover path: every region the dead member
// hosted is recovered in turn — plan (elect the best surviving replica,
// pick the new followers), adopt (the elected server seeds a fresh
// generation-suffixed region from the replica copy alone and opens it),
// commit (one table-row write) — and only after the last region does
// removeServer drop the membership row, reclaim the dead server's
// directories and re-pick the followers that pointed at it. adopt and
// refollow carry the two steps that touch a region server: direct calls
// in-process (Master.RecoverServer), POST /node/adopt|refollow across
// processes (rpc.MasterNode). The dead process must actually be dead.
//
// Each region commits on its own, so a failure — or a crash — mid-way
// leaves every committed region failed over and routable, the rest
// still assigned to the dead member (which stays a member; a cold start
// revives it from its untouched directories), and a re-run recovers
// exactly the remainder. The returned regions are the ones this call
// committed.
func (lm *LayoutMaster) RecoverServer(dead string,
	adopt func(AdoptSpec) (AdoptionReport, error), refollow func(FollowerUpdate)) ([]RecoveredRegion, error) {
	lm.mu.Lock()
	cfg, ok := lm.servers[dead]
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("%w: %q", ErrUnknownServer, dead)
	case lm.recovering[dead]:
		err = fmt.Errorf("hbase: recover %s: already in progress", dead)
	case len(lm.servers) == 1:
		err = ErrNoServers
	}
	if err != nil {
		lm.mu.Unlock()
		return nil, err
	}
	lm.recovering[dead] = true
	var regions []LayoutRegion
	for _, r := range lm.routes.Load().regions {
		if r.Server == dead {
			regions = append(regions, r)
		}
	}
	lm.mu.Unlock()
	defer func() {
		lm.mu.Lock()
		delete(lm.recovering, dead)
		lm.mu.Unlock()
	}()

	// One generation for the whole recovery, durable before any new
	// directory exists.
	gen, err := lm.nextGen()
	if err != nil {
		return nil, err
	}
	var done []RecoveredRegion
	var errs []error
	for _, r := range regions {
		spec, err := lm.planAdoption(cfg.DataDir, r, gen)
		var rep AdoptionReport
		if err == nil {
			rep, err = adopt(spec)
		}
		if err == nil {
			// After this one durable write the recovered region is
			// authoritative.
			err = lm.replaceRegion(spec.Table, spec.Region, regionRow{
				Name: spec.NewRegion, Start: spec.Start, End: spec.End,
				Server: spec.Source, Followers: spec.Followers,
			})
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("hbase: recover %s region %s: %w", dead, r.Name, err))
			continue
		}
		done = append(done, RecoveredRegion{Spec: spec, Report: rep})
		// The catalog no longer references the superseded directories:
		// the dead primary and every follower's replica copy.
		_ = os.RemoveAll(RegionDataDir(cfg.DataDir, r.Name))
		for _, f := range r.Followers {
			_ = os.RemoveAll(replicaDir(cfg.DataDir, f, r.Name))
		}
		lm.crash("recoverserver.region-recovered")
	}
	if len(errs) > 0 {
		return done, errors.Join(errs...)
	}
	lm.crash("recoverserver.reassigned")
	return done, lm.removeServer(dead, refollow)
}

// planAdoption plans one dead region's failover: the server to adopt
// it, the replica directory to seed it from (empty when no copy
// survived), its new name and its new follower set.
func (lm *LayoutMaster) planAdoption(deadDataDir string, r LayoutRegion, gen int64) (AdoptSpec, error) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	source, dir := lm.electReplicaLocked(deadDataDir, r)
	if source == "" {
		return AdoptSpec{}, errors.New("no live server to recover onto")
	}
	return AdoptSpec{
		Region: r.Name, NewRegion: fmt.Sprintf("%s.%d", r.Name, gen),
		Table: r.Table, Start: r.Start, End: r.End,
		Source: source, ReplicaDir: dir,
		Followers: lm.pickFollowersLocked(source, nil),
	}, nil
}

// electReplicaLocked chooses where a dead region recovers: the live
// follower whose replica covers the highest timestamp — the max over
// its SSTables' clocks and the last record of its shipped WAL tail —
// so the replay loses the least (file count breaks ties: a replica
// that kept more un-compacted history restores more evenly; remaining
// ties go to the first by follower order). When no follower survives
// or none ever received a copy, the least-loaded live server starts
// the region empty (the loss is then the whole region, and the caller's
// accounting says so). Replica directories are resolved under the dead
// primary's DataDir — the convention the shipper wrote them with — so
// heterogeneous per-server DataDirs find the copies where they are;
// reading them is safe, only store and WAL ownership is exclusive.
// Callers hold lm.mu.
func (lm *LayoutMaster) electReplicaLocked(deadDataDir string, r LayoutRegion) (string, string) {
	best, bestDir := "", ""
	bestFiles := -1
	var bestCovered uint64
	for _, f := range r.Followers {
		if _, ok := lm.servers[f]; !ok || lm.recovering[f] {
			continue
		}
		dir := replicaDir(deadDataDir, f, r.Name)
		ids, err := replication.ListSSTables(dir)
		if err != nil {
			continue
		}
		covered := replicaCoveredTS(dir, ids)
		if best == "" || covered > bestCovered ||
			(covered == bestCovered && len(ids) > bestFiles) {
			best, bestDir, bestFiles, bestCovered = f, dir, len(ids), covered
		}
	}
	if best == "" {
		if live := lm.membersByLoadLocked(r.Server, nil); len(live) > 0 {
			best = live[0]
		}
	}
	return best, bestDir
}

// replicaCoveredTS is the highest timestamp a replica directory can
// restore: the max SSTable clock across its shipped files, raised by
// the newest record of its WAL-tail generations. Unreadable files count
// as zero — a corrupt replica simply loses the election to a better one.
func replicaCoveredTS(dir string, ids []uint64) uint64 {
	var covered uint64
	for _, id := range ids {
		if ts, err := durable.SSTableMaxTimestamp(replication.SSTablePath(dir, id)); err == nil && ts > covered {
			covered = ts
		}
	}
	if tail, _, err := durable.ReadTail(dir); err == nil {
		for _, e := range tail {
			if e.Timestamp > covered {
				covered = e.Timestamp
			}
		}
	}
	return covered
}

// QuiesceReplication blocks until every server's replicator has shipped
// its pending work — the cluster-wide barrier between "cleanly flushed"
// and "safe to lose any single server".
func (m *Master) QuiesceReplication() {
	for _, rs := range m.Servers() {
		rs.QuiesceReplication()
	}
}

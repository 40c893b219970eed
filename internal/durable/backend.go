package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"met/internal/kv"
)

// Backend implements kv.StorageBackend over one directory: WAL segments
// (wal-*.log) and SSTables (sst-*.sst) side by side, one directory per
// store (per region). Opening the directory again after a crash — or
// after a clean close — recovers exactly the acknowledged writes: the
// SSTables hold everything flushed, the WAL replay holds everything
// since the last flush.
type Backend struct {
	dir  string
	opts Options
	wal  *WAL
	log  *RegionLog // the store's handle on wal, minted once at Open

	mu      sync.Mutex
	readers map[uint64]*sstable // every open reader, including unlinked ones
	closed  bool

	// Physical I/O accounting (see IOStats); WAL bytes are tracked by
	// the WAL itself.
	sstBytesWritten atomic.Int64
	sstBytesRead    atomic.Int64
}

// Open creates (or reopens) a durable backend rooted at dir. With
// Options.ExternalWAL the directory holds SSTables only — the store's
// log records live in a shared server-wide WAL owned by the caller.
func Open(dir string, opts Options) (*Backend, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &Backend{dir: dir, opts: opts, readers: make(map[uint64]*sstable)}
	if !opts.ExternalWAL {
		wal, err := OpenWAL(dir, opts)
		if err != nil {
			return nil, err
		}
		b.wal = wal
		// The private log has one tenant; "" is its region name. Minted
		// here, not per WAL() call: Region clears the name's flush mark.
		b.log = wal.Region("")
	}
	return b, nil
}

// Opener returns a factory suitable for kv.Config.OpenBackend.
func Opener(dir string, opts Options) func() (kv.StorageBackend, error) {
	return func() (kv.StorageBackend, error) { return Open(dir, opts) }
}

// Dir returns the backend's directory.
func (b *Backend) Dir() string { return b.dir }

// WAL implements kv.StorageBackend; nil under Options.ExternalWAL (the
// engine is wired to a shared-log handle instead).
func (b *Backend) WAL() kv.WAL {
	if b.log == nil {
		return nil
	}
	return b.log
}

// Log exposes the concrete WAL (tests, tooling); nil under
// Options.ExternalWAL.
func (b *Backend) Log() *WAL { return b.wal }

func (b *Backend) sstPath(id uint64) string {
	return filepath.Join(b.dir, SSTableFileName(id))
}

// SSTableFileName is the canonical on-disk name for SSTable id; the
// replication and snapshot subsystems reuse it so a directory seeded
// with copied files is indistinguishable from one the backend wrote
// itself (Load enumerates by this pattern).
func SSTableFileName(id uint64) string {
	return fmt.Sprintf("sst-%016d.sst", id)
}

// ParseSSTableFileName inverts SSTableFileName; ok is false for names
// that are not SSTables (temp files, WAL segments, foreign debris).
func ParseSSTableFileName(name string) (id uint64, ok bool) {
	if _, err := fmt.Sscanf(name, "sst-%d.sst", &id); err != nil {
		return 0, false
	}
	return id, true
}

// FilePath implements kv.FileExporter: the stable on-disk path of
// SSTable id, for byte-level shipping to replicas and snapshots.
func (b *Backend) FilePath(id uint64) string { return b.sstPath(id) }

// Create implements kv.StorageBackend: entries become an SSTable that is
// durable (fsynced and atomically visible) before Create returns, which
// is what lets the engine truncate the WAL right after a flush.
func (b *Backend) Create(id uint64, entries []kv.Entry, blockBytes int) (*kv.StoreFile, error) {
	return b.CreateWithMaxTS(id, entries, blockBytes, 0)
}

// CreateWithMaxTS implements kv.TimestampFloorCreator: like Create, but
// the file's recorded max timestamp is at least maxTS. Compactions pass
// the maximum of their inputs so that dropping a newest-version entry
// (a shadowed put, an elided tombstone) cannot regress the file's
// timestamp — a store seeded from the file (snapshot restore, replica
// failover) resumes its clock from that property, and a regressed clock
// makes failover loss accounting overcount.
func (b *Backend) CreateWithMaxTS(id uint64, entries []kv.Entry, blockBytes int, maxTS uint64) (*kv.StoreFile, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.mu.Unlock()
	path := b.sstPath(id)
	if _, err := writeSSTable(path, entries, blockBytes, b.opts, &b.sstBytesWritten, maxTS); err != nil {
		return nil, fmt.Errorf("durable: write sstable %d: %w", id, err)
	}
	if err := syncDir(b.dir, b.opts.NoSync); err != nil {
		return nil, err
	}
	return b.openFile(id, path)
}

// openFile opens a reader for id and wraps it as an engine store file.
func (b *Backend) openFile(id uint64, path string) (*kv.StoreFile, error) {
	t, err := openSSTable(path)
	if err != nil {
		return nil, fmt.Errorf("durable: open sstable %d: %w", id, err)
	}
	t.readBytes = &b.sstBytesRead
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		t.Close()
		return nil, ErrClosed
	}
	b.readers[id] = t
	b.mu.Unlock()
	return kv.NewStoreFile(id, t.Meta(), t), nil
}

// Remove implements kv.StorageBackend: the file is unlinked and its
// reader closed, releasing the fd and the in-memory index/bloom. The
// engine guarantees no in-flight read still references the file (it
// defers removal until lock-free scans drain), so closing here cannot
// break a reader.
func (b *Backend) Remove(id uint64) error {
	b.mu.Lock()
	t := b.readers[id]
	delete(b.readers, id)
	b.mu.Unlock()
	if t != nil {
		_ = t.Close()
	}
	if err := os.Remove(b.sstPath(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return syncDir(b.dir, b.opts.NoSync)
}

// Load implements kv.StorageBackend: enumerate the surviving SSTables.
// A leftover .tmp file is an unfinished (crashed) flush whose WAL
// records still exist; it is deleted.
func (b *Backend) Load(blockBytes int) ([]*kv.StoreFile, error) {
	tmps, _ := filepath.Glob(filepath.Join(b.dir, "*.tmp"))
	for _, p := range tmps {
		_ = os.Remove(p)
	}
	paths, err := filepath.Glob(filepath.Join(b.dir, "sst-*.sst"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var files []*kv.StoreFile
	for _, p := range paths {
		id, ok := ParseSSTableFileName(filepath.Base(p))
		if !ok {
			continue
		}
		f, err := b.openFile(id, p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// IOStats snapshots the backend's physical I/O counters. Under
// Options.ExternalWAL the log's bytes are accounted by its owner.
func (b *Backend) IOStats() IOStats {
	var wal int64
	if b.wal != nil {
		wal = b.wal.BytesAppended()
	}
	return IOStats{
		BytesWritten: b.sstBytesWritten.Load() + wal,
		BytesRead:    b.sstBytesRead.Load(),
		WALBytes:     wal,
	}
}

// Reader returns the open reader for file id (tests).
func (b *Backend) Reader(id uint64) *sstable {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.readers[id]
}

// Close implements kv.StorageBackend: the WAL is fsynced and closed, and
// every SSTable handle is released (reclaiming space for unlinked
// files).
func (b *Backend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	readers := make([]*sstable, 0, len(b.readers))
	for _, t := range b.readers {
		readers = append(readers, t)
	}
	b.mu.Unlock()
	var err error
	if b.wal != nil {
		err = b.wal.Close()
	}
	for _, t := range readers {
		if cerr := t.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Destroy closes the backend and deletes its directory; a region split
// uses it to reclaim the parent's store after the daughters take over.
func (b *Backend) Destroy() error {
	err := b.Close()
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

var _ kv.StorageBackend = (*Backend)(nil)

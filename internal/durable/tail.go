package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"met/internal/kv"
)

// A follower's copy of a region's WAL tail is a sequence of generation
// files, wal-tail-<gen>.log, in its replica directory next to the copied
// SSTables. Each holds the primary's durable-but-unflushed records in
// the standard segment format. A generation starts with a snapshot of
// the synced tail (CreateTailGen) and then only grows by append
// (AppendTail); it is never rewritten, only deleted whole
// (RemoveTailGens) once the follower holds the SSTables that superseded
// it. Master.RecoverServer replays every generation (ReadTail) over the
// replica SSTables, so a failover loses at most the records no ship
// reached instead of the whole memstore.
const (
	tailGenPrefix = "wal-tail-"
	tailGenSuffix = ".log"
)

// TailGenPath returns the path of tail generation gen inside a replica
// directory.
func TailGenPath(replicaDir string, gen uint64) string {
	return filepath.Join(replicaDir, fmt.Sprintf("%s%016d%s", tailGenPrefix, gen, tailGenSuffix))
}

// TailGens lists the tail generations present in a replica directory,
// oldest first. A missing directory has none.
func TailGens(replicaDir string) ([]uint64, error) {
	paths, err := filepath.Glob(filepath.Join(replicaDir, tailGenPrefix+"*"+tailGenSuffix))
	var gens []uint64
	for _, p := range paths { // zero-padded: lexical order is numeric
		digits := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), tailGenPrefix), tailGenSuffix)
		if gen, err := strconv.ParseUint(digits, 10, 64); err == nil {
			gens = append(gens, gen)
		}
	}
	return gens, err
}

// CreateTailGen starts generation gen in replicaDir holding entries
// (possibly none): the file is created exclusively — an existing
// generation is never overwritten — then it and the directory are
// fsynced. It returns the physical bytes written.
func CreateTailGen(replicaDir string, gen uint64, entries []kv.Entry) (int64, error) {
	if err := os.MkdirAll(replicaDir, 0o755); err != nil {
		return 0, err
	}
	n, err := writeTail(TailGenPath(replicaDir, gen), os.O_CREATE|os.O_EXCL, append([]byte(walMagic), walVersion), entries)
	if err == nil {
		err = syncDir(replicaDir, false)
	}
	return n, err
}

// AppendTail appends entries to the tail generation at path (see
// TailGenPath) and fsyncs it, returning the physical bytes written. A
// failed append may leave a torn frame at the end of the generation:
// the caller must not append to it again, but start a new generation.
func AppendTail(path string, entries []kv.Entry) (int64, error) {
	return writeTail(path, os.O_APPEND, nil, entries)
}

// writeTail opens path for writing with the extra flag, writes buf
// followed by one frame per entry, fsyncs and closes it.
func writeTail(path string, flag int, buf []byte, entries []kv.Entry) (int64, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|flag, 0o644)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		buf = append(buf, encodeRecord("", e, false)...)
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return int64(len(buf)), err
}

// RemoveTailGens deletes the generations up to and including upTo from
// a replica directory and fsyncs the directory.
func RemoveTailGens(replicaDir string, upTo uint64) error {
	gens, err := TailGens(replicaDir)
	if err != nil || len(gens) == 0 || gens[0] > upTo {
		return err
	}
	for _, gen := range gens {
		if gen > upTo {
			break
		}
		if err := os.Remove(TailGenPath(replicaDir, gen)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return syncDir(replicaDir, false)
}

// ReadTail reads every tail generation of a replica directory back,
// oldest first; generations overlap, and replay dedups by timestamp. A
// torn or corrupt frame — a crash mid-append, the normal way a follower
// or its shipper dies — ends that generation's read at its last good
// record and reports torn; the intact prefix and every later generation
// are still returned. Only real I/O errors are returned.
func ReadTail(replicaDir string) (entries []kv.Entry, torn bool, err error) {
	gens, err := TailGens(replicaDir)
	if err != nil {
		return nil, false, err
	}
	for _, gen := range gens {
		err := readSegment(TailGenPath(replicaDir, gen), func(r walRecord) {
			if !r.drop {
				entries = append(entries, r.e)
			}
		})
		switch {
		case err == nil, os.IsNotExist(err):
		case errors.Is(err, ErrCorrupt):
			torn = true
		default:
			return nil, false, err
		}
	}
	return entries, torn, nil
}

// SSTableMaxTimestamp reads the max-timestamp property of the SSTable
// at path without loading its data blocks. Recovery uses it to rank
// candidate replica sources by how much of the dead region's history
// their files cover.
func SSTableMaxTimestamp(path string) (uint64, error) {
	t, err := openSSTable(path)
	if err != nil {
		return 0, err
	}
	defer t.Close()
	return t.meta.MaxTS, nil
}

package kv

// WAL is the write-ahead log contract: group commit, truncate-on-flush,
// replay-at-open. Every mutation is buffered into the log — under the
// store's write lock, which fixes its position in the replay order —
// before it is applied to the memstore, and the caller is acknowledged
// only once the commit function has returned; Truncate is called once a
// flush has made the logged entries durable in a store file.
//
// The one implementation is met/internal/durable's RegionLog (a
// region-scoped handle on a segmented, fsynced log); in-memory stores
// run with a nil WAL. Tests substitute fakes to inject append failures.
type WAL interface {
	// AppendBuffered writes a mutation to the log's buffer and returns
	// the function that blocks until the record is durable. The engine
	// calls commit outside its locks, so concurrent writers that buffer
	// before the next fsync share that one fsync; after a batch it calls
	// only the last record's commit, which must therefore cover every
	// record buffered before it. AppendBuffered must not retain e.Value.
	AppendBuffered(e Entry) (commit func() error, err error)
	// Truncate discards entries with Timestamp <= upTo.
	Truncate(upTo uint64)
	// Replay returns the retained entries, oldest first (recovery). A
	// torn tail only shortens the result; a real read error is returned,
	// because silently dropping the log would violate the
	// acknowledged-writes-survive guarantee.
	Replay() ([]Entry, error)
}

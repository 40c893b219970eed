package durable

import (
	"io"
	"sync/atomic"
)

// meteredWriter wraps the WAL's file writes with I/O accounting:
//
//   - count accumulates the physical bytes the log appends
//     (WAL.BytesAppended);
//   - account (never blocks) charges foreground bytes to the shared
//     compaction/serving budget so background work yields to them.
//
// A client waits on the append's fsync, so the WAL never blocks on
// compaction's budget.
type meteredWriter struct {
	w       io.Writer
	count   *atomic.Int64
	account func(bytes int)
}

func (m meteredWriter) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	if n > 0 {
		m.count.Add(int64(n))
		if m.account != nil {
			m.account(n)
		}
	}
	return n, err
}

// Fixture for the syncerr analyzer. The test registers
// (syncerr.WAL).Append, .AppendBuffered and .Close in the Funcs list.
package syncerr

import "os"

type WAL struct{}

func (w *WAL) Append(e int) error   { return nil }
func (w *WAL) Close() error         { return nil }
func (w *WAL) Commit() (int, error) { return 0, nil }
func (w *WAL) Sync() error          { return nil }
func (w *WAL) Truncate(max uint64)  {}
func (w *WAL) Stats() (int, int)    { return 0, 0 }

func (w *WAL) AppendBuffered(e int) (func() error, error) { return nil, nil }

func ack(f *os.File, w *WAL) error {
	w.Append(1)                         // want `error result of \(syncerr.WAL\).Append is discarded`
	_ = w.Sync()                        // want `error result of \(syncerr.WAL\).Sync is discarded`
	f.Sync()                            // want `error result of \(os.File\).Sync is discarded`
	w.Truncate(0)                       // void result: no diagnostic
	if err := w.Append(2); err != nil { // checked: no diagnostic
		return err
	}
	err := f.Sync() // assigned to a variable: no diagnostic
	if err != nil {
		return err
	}
	return w.Append(3) // returned to the caller: no diagnostic
}

func multi(w *WAL) int {
	n, _ := w.Commit() // not in the configured list: no diagnostic
	a, b := w.Stats()  // non-error results: no diagnostic
	return n + a + b
}

func buffered(w *WAL) error {
	c, _ := w.AppendBuffered(1)        // want `error result of \(syncerr.WAL\).AppendBuffered is discarded`
	commit, err := w.AppendBuffered(2) // error kept: no diagnostic
	if err != nil {
		return err
	}
	_ = c
	return commit()
}

func deferred(w *WAL) {
	defer w.Close() // deferred: out of scope by design
}

func allowlisted(w *WAL) {
	_ = w.Close() //lint:allow syncerr fixture-audited best-effort close
	_ = w.Close() // want `error result of \(syncerr.WAL\).Close is discarded`
}

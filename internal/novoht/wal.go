package novoht

import (
	"fmt"
	"os"
	"sync"
	"time"

	"zht/internal/metrics"
	"zht/internal/storage"
)

// wal is NoVoHT's group-commit write-ahead log. It has no goroutine of
// its own: a caller that finds records pending and nobody committing
// becomes the committer. It takes every pending record as one batch
// and, outside the mutex, issues one unbuffered file write per record
// and — per durability mode — one fsync per batch (group), one fsync
// per record (sync), or none (async). One committer runs at a time, so
// records reach the file in offset order. Callers append under their
// shard lock (so per-key log order matches memory order) and wait for
// their record's durability level after releasing it, so a slow fsync
// never blocks unrelated keys.
//
// Offsets are assigned at append time under the wal mutex, which is
// what lets the sharded table record an evicted value's future file
// position before the bytes have physically landed; readers call
// flushTo to force the prefix they need onto the file first.
type wal struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast after every commit, failure and swap

	f      *os.File
	mode   storage.Durability
	fault  storage.Fault
	window time.Duration // group mode: how long a committer waits for company

	pending    [][]byte // records appended but not yet taken by a committer
	committing bool     // a caller is committing a batch; no other may start
	size       int64    // logical log length, including pending records
	written    int64    // bytes physically written to f
	synced     int64    // bytes covered by an fsync
	epoch      uint64   // bumped by swapFile; offsets from older epochs are stale

	err    error // sticky: fault injection or real I/O failure
	closed bool  // close requested; appends are refused

	// Instruments; all nil-safe when metrics are disabled.
	commits *metrics.Counter   // zht.storage.wal.commits
	batchSz *metrics.Histogram // zht.storage.wal.batch.size
	fsyncNs *metrics.Histogram // zht.storage.wal.fsync_ns
}

// newWAL wraps an open log file whose consistent prefix ends at size.
// The window applies to group mode only.
func newWAL(f *os.File, size int64, mode storage.Durability, window time.Duration, fault storage.Fault, reg *metrics.Registry) *wal {
	if mode != storage.DurabilityGroup {
		window = 0
	}
	w := &wal{f: f, mode: mode, fault: fault, window: window, size: size, written: size, synced: size}
	w.cond = sync.NewCond(&w.mu)
	if reg != nil {
		w.commits = reg.Counter("zht.storage.wal.commits")
		w.batchSz = reg.Histogram("zht.storage.wal.batch.size")
		w.fsyncNs = reg.Histogram("zht.storage.wal.fsync_ns")
	}
	return w
}

// append enqueues one record and returns the logical offset its first
// byte will occupy. The caller owes a matching waitDurable(off +
// len(rec)) before acknowledging the mutation.
func (w *wal) append(rec []byte) (off int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, ErrClosed
	}
	off = w.size
	w.size += int64(len(rec))
	w.pending = append(w.pending, rec)
	return off, nil
}

// waitDurable returns once the log prefix [0, target) has reached this
// WAL's durability level, committing pending records itself whenever
// no other caller is. It returns the sticky error if the WAL broke
// first.
//
// Async waits on nobody. The caller commits until nothing is pending,
// or returns at once if another caller is committing: that committer
// keeps going until pending is empty, so once the last concurrent call
// on a store returns, every acknowledged record is in the file.
//
// Group and sync wait for an fsync. A committer makes one pass, which
// covers its own record, and hands over to the waiters the pass wakes:
// the first of them whose record is still pending commits next.
//
// In group mode a committer does not commit the instant it takes over:
// it sleeps for the commit window first, so concurrent callers whose
// arrivals are staggered by scheduling or network round trips still
// share one fsync. Without the window, a closed loop of clients
// phase-locks with the commits — each fsync releases one waiter, which
// submits the next record just after the following commit has begun —
// and group commit degenerates into sync (batch size 1). This is the
// same knob as PostgreSQL's commit_delay and MySQL's
// binlog_group_commit_sync_delay.
func (w *wal) waitDurable(target int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.mode == storage.DurabilityAsync {
		if w.committing {
			return nil
		}
		for len(w.pending) > 0 && w.err == nil {
			w.commitPending(0)
		}
		return w.err
	}
	return w.commitUntil(&w.synced, target, w.window)
}

// flushTo returns once the log prefix [0, target) is physically in
// the file, so ReadAt on it is valid. It commits pending records
// itself, without the group window, and waits out a committer that is
// already running.
func (w *wal) flushTo(target int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commitUntil(&w.written, target, 0)
}

// commitUntil runs with w.mu held until the watermark mark (written
// or synced) reaches target: it waits while another caller commits and
// otherwise commits the pending records itself.
//
// A compaction can retire the target offset while we wait: the
// checkpoint rewrite drains the log, persists every record appended so
// far (group and sync compactions fsync the new file), and swapFile
// rebases the watermarks to the new — often smaller — file. The target
// then names a position in a file that no longer exists, so comparing
// it against the rebased watermark would block forever. An epoch change
// therefore means the record is durable in the checkpoint.
func (w *wal) commitUntil(mark *int64, target int64, window time.Duration) error {
	epoch := w.epoch
	for *mark < target && w.epoch == epoch && w.err == nil {
		switch {
		case w.committing:
			w.cond.Wait()
		case len(w.pending) > 0:
			w.commitPending(window)
		default:
			// Every record is pending, being committed or committed, so
			// only a closed log leaves the target short: never wait for
			// a commit nobody will make.
			return ErrClosed
		}
	}
	if w.epoch != epoch || *mark >= target {
		return nil
	}
	return w.err
}

// commitPending is one committer pass, entered and left with w.mu held
// and w.pending non-empty: it sleeps the window, takes every pending
// record, commits them with the mutex released, then publishes the new
// watermarks and wakes every waiter.
func (w *wal) commitPending(window time.Duration) {
	w.committing = true
	if window > 0 {
		// Gather a cohort. Appends only need the mutex briefly, so they
		// accumulate in pending while the committer sleeps.
		w.mu.Unlock()
		time.Sleep(window)
		w.mu.Lock()
	}
	batch := w.pending
	w.pending = nil
	w.mu.Unlock()

	written, synced, err := w.commit(batch)

	w.mu.Lock()
	w.written += written
	w.synced += synced
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("%w: %v", storage.ErrBroken, err)
	}
	w.committing = false
	w.cond.Broadcast()
}

// readAt reads a previously flushed byte range from the log file.
func (w *wal) readAt(buf []byte, off int64) error {
	if err := w.flushTo(off + int64(len(buf))); err != nil {
		return err
	}
	if _, err := w.f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("novoht: read log: %w", err)
	}
	return nil
}

// logicalSize returns the log length including not-yet-written
// records.
func (w *wal) logicalSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// syncAll forces every appended record onto the file and fsyncs it.
func (w *wal) syncAll() error {
	w.mu.Lock()
	target := w.size
	w.mu.Unlock()
	if err := w.flushTo(target); err != nil {
		return err
	}
	if err := w.faultSync(); err != nil {
		w.fail(err)
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.fail(err)
		return err
	}
	w.mu.Lock()
	if target > w.synced {
		w.synced = target
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return nil
}

// swapFile installs a freshly compacted log file (all shard locks are
// held and the WAL is drained, so no record is in flight). The epoch
// bump releases waitDurable callers still holding pre-compaction
// offsets — their records are durable in the checkpoint.
func (w *wal) swapFile(f *os.File, size int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.f = f
	w.size, w.written, w.synced = size, size, size
	w.epoch++
	w.cond.Broadcast()
}

// close commits pending records, waits out a running committer,
// fsyncs the file (so a clean shutdown never loses an acknowledged —
// or even an async-buffered — write), and closes it. Safe to call
// once; the store serializes callers.
func (w *wal) close() error {
	w.mu.Lock()
	w.closed = true
	err := w.commitUntil(&w.written, w.size, 0)
	for w.committing {
		w.cond.Wait()
	}
	w.mu.Unlock()
	if err != nil {
		w.f.Close() // broken WAL: nothing more to save
		return err
	}
	if serr := w.f.Sync(); serr != nil {
		w.f.Close()
		return serr
	}
	return w.f.Close()
}

// fail records the sticky error and wakes every waiter.
func (w *wal) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("%w: %v", storage.ErrBroken, err)
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *wal) faultWrite(n int) (int, error) {
	if w.fault == nil {
		return n, nil
	}
	return w.fault.BeforeWrite(n)
}

func (w *wal) faultSync() error {
	if w.fault == nil {
		return nil
	}
	return w.fault.BeforeSync()
}

// commit writes one batch, returning how many bytes were fully
// written and how many of those are covered by an fsync. A fault or
// I/O error may leave a torn record on disk — the same state a real
// crash mid-commit leaves — and is returned for the sticky error.
func (w *wal) commit(batch [][]byte) (written, synced int64, err error) {
	w.commits.Inc()
	w.batchSz.Observe(int64(len(batch)))
	for _, rec := range batch {
		keep, ferr := w.faultWrite(len(rec))
		if keep > 0 {
			if keep > len(rec) {
				keep = len(rec)
			}
			if _, werr := w.f.Write(rec[:keep]); werr != nil && ferr == nil {
				ferr = werr
			}
		}
		if ferr == nil && keep < len(rec) {
			ferr = fmt.Errorf("novoht: torn write (%d of %d bytes)", keep, len(rec))
		}
		if ferr != nil {
			return written, synced, ferr
		}
		written += int64(len(rec))
		// The record's bytes are on the file and nothing else holds a
		// reference (reads go through readAt on the file, compaction
		// rewrites from the in-memory table), so its buffer goes back
		// to the pool appendRecord draws from.
		putRec(rec)
		if w.mode == storage.DurabilitySync {
			if serr := w.fsync(); serr != nil {
				return written, synced, serr
			}
			synced = written
		}
	}
	if w.mode == storage.DurabilityGroup {
		if serr := w.fsync(); serr != nil {
			return written, synced, serr
		}
		synced = written
	}
	return written, synced, nil
}

// fsync hardens the file, timing the call.
func (w *wal) fsync() error {
	if err := w.faultSync(); err != nil {
		return err
	}
	start := time.Time{}
	if w.fsyncNs.ShouldSample() {
		start = time.Now()
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if !start.IsZero() {
		w.fsyncNs.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}

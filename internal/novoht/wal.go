package novoht

import (
	"fmt"
	"os"
	"sync"
	"time"

	"zht/internal/metrics"
	"zht/internal/storage"
)

// wal is NoVoHT's group-commit write-ahead log: a single writer
// goroutine drains concurrently submitted records as one commit batch,
// issuing one unbuffered file write per record, and — per durability
// mode — one fsync per commit batch (group), one fsync per record
// (sync), or none (async). Callers
// append under their shard lock (so per-key log order matches memory
// order) and wait for their record's durability level after releasing
// it, so a slow fsync never blocks unrelated keys.
//
// Offsets are assigned at append time under the wal mutex, which is
// what lets the sharded table record an evicted value's future file
// position before the bytes have physically landed; readers call
// flushTo to force the prefix they need onto the file first.
type wal struct {
	mu   sync.Mutex
	cond *sync.Cond

	f      *os.File
	mode   storage.Durability
	fault  storage.Fault
	window time.Duration // group mode: how long a commit waits for company

	pending [][]byte // records appended but not yet handed to the writer
	size    int64    // logical log length, including pending records
	written int64    // bytes physically written to f
	synced  int64    // bytes covered by an fsync
	epoch   uint64   // bumped by swapFile; offsets from older epochs are stale

	err     error // sticky: fault injection or real I/O failure
	closed  bool  // close requested; writer drains then exits
	stopped bool  // writer goroutine has exited

	// Instruments; all nil-safe when metrics are disabled.
	commits *metrics.Counter   // zht.storage.wal.commits
	batchSz *metrics.Histogram // zht.storage.wal.batch.size
	fsyncNs *metrics.Histogram // zht.storage.wal.fsync_ns
}

// newWAL wraps an open log file whose consistent prefix ends at size.
// The writer goroutine starts immediately.
func newWAL(f *os.File, size int64, mode storage.Durability, window time.Duration, fault storage.Fault, reg *metrics.Registry) *wal {
	w := &wal{f: f, mode: mode, fault: fault, window: window, size: size, written: size, synced: size}
	w.cond = sync.NewCond(&w.mu)
	if reg != nil {
		w.commits = reg.Counter("zht.storage.wal.commits")
		w.batchSz = reg.Histogram("zht.storage.wal.batch.size")
		w.fsyncNs = reg.Histogram("zht.storage.wal.fsync_ns")
	}
	go w.run()
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
	w.cond.Broadcast()
	return off, nil
}

// waitDurable blocks until the log prefix [0, target) has reached
// this WAL's durability level: written for async, fsynced for group
// and sync. It returns the sticky error if the WAL broke first.
func (w *wal) waitDurable(target int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	watermark := func() int64 {
		if w.mode == storage.DurabilityGroup || w.mode == storage.DurabilitySync {
			return w.synced
		}
		return w.written
	}
	if w.mode == storage.DurabilityAsync {
		// Async acknowledges on submission — today's seed behavior:
		// the writer pushes the bytes to the OS in the background.
		return nil
	}
	// A compaction can retire this record's offset while we wait: the
	// checkpoint rewrite drains the log, persists every record
	// appended so far (group and sync compactions fsync the new
	// file), and swapFile rebases the watermarks to the new — often
	// smaller — file. Our target offset then names a position in a
	// file that no longer exists, so comparing it against the rebased
	// watermark would block forever. An epoch change therefore means
	// the record is durable in the checkpoint.
	epoch := w.epoch
	for watermark() < target && w.epoch == epoch && w.err == nil && !w.stopped {
		w.cond.Wait()
	}
	if w.epoch != epoch || watermark() >= target {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	return ErrClosed
}

// flushTo blocks until the log prefix [0, target) is physically in
// the file, so ReadAt on it is valid.
func (w *wal) flushTo(target int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.written < target && w.err == nil && !w.stopped {
		w.cond.Wait()
	}
	if w.written >= target {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	return ErrClosed
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

// close drains pending records, fsyncs the file (so a clean shutdown
// never loses an acknowledged — or even an async-buffered — write),
// and closes it. Safe to call once; the store serializes callers.
func (w *wal) close() error {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	for !w.stopped {
		w.cond.Wait()
	}
	err := w.err
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

// broken reports the sticky error, if any.
func (w *wal) broken() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
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

// run is the single writer: it swaps out the pending batch, writes it
// in one pass, issues the mode's fsyncs, then publishes the new
// watermarks and wakes the batch's waiters.
//
// In group mode the writer does not commit the instant the first
// record lands: it sleeps for the commit window first, so concurrent
// callers whose arrivals are staggered by scheduling or network
// round trips still share one fsync. Without the window, a closed
// loop of clients phase-locks with the writer — each fsync releases
// one waiter, which submits the next record just after the following
// commit has begun — and group commit degenerates into sync (batch
// size 1). This is the same knob as PostgreSQL's commit_delay and
// MySQL's binlog_group_commit_sync_delay.
func (w *wal) run() {
	w.mu.Lock()
	for {
		for len(w.pending) == 0 && !w.closed && w.err == nil {
			w.cond.Wait()
		}
		if w.err != nil || (w.closed && len(w.pending) == 0) {
			w.stopped = true
			w.cond.Broadcast()
			w.mu.Unlock()
			return
		}
		if w.mode == storage.DurabilityGroup && w.window > 0 && !w.closed {
			// Gather a cohort. Appends only need the mutex briefly, so
			// they accumulate in pending while the writer sleeps.
			w.mu.Unlock()
			time.Sleep(w.window)
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
		w.cond.Broadcast()
	}
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

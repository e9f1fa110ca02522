package novoht

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/metrics"
	"zht/internal/storage"
)

// oldSuffix names the frozen file a clean is emptying: <path>.old.
const oldSuffix = ".old"

// wal is NoVoHT's group-commit write-ahead log, shared by every store
// of one Log. It has no goroutine of its own: a caller that finds
// records pending and nobody committing becomes the committer. It
// takes every pending record as one batch and, outside the mutex,
// writes the batch with one file write and — per durability mode —
// one fsync per batch (group) or none (async); sync mode commits one
// record at a time, so each record gets its own fsync. One committer
// runs at a time, so records reach the file in offset order. Callers
// append under their store lock (so per-key log order matches memory
// order) and wait for durability after releasing it, so a slow fsync
// never blocks the store; a caller that appended many records —
// one request's — waits once, for the last of them (Log.Commit).
//
// Offsets are logical: they count every byte ever appended to the log
// and only grow. The log lives in at most two files. The active file
// holds the offsets from base on; while a clean runs, the frozen file
// it empties (<path>.old) holds the offsets before base. Offsets are
// assigned at append time under the wal mutex, so an entry records
// where its image will lie before the bytes have physically landed.
type wal struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast after every commit, failure and hold release

	path string
	f    *os.File     // the active file
	base atomic.Int64 // logical offset of f's first byte; written under mu
	old  *os.File     // the frozen file a clean is emptying, or nil

	mode   storage.Durability
	fault  storage.Fault
	window time.Duration // group mode: how long a committer waits for company

	pending    [][]byte     // records appended but not yet taken by a committer
	committing bool         // a caller holds the file; no other may commit
	size       atomic.Int64 // logical log length, including pending records; written under mu
	written    int64        // logical length physically written
	synced     int64        // logical length covered by an fsync
	buf        []byte       // the committer's batch buffer, reused across commits

	err    error // sticky: fault injection or real I/O failure
	closed bool  // close requested; appends are refused

	// Instruments; all nil-safe when metrics are disabled.
	commits *metrics.Counter   // zht.storage.wal.commits
	batchSz *metrics.Histogram // zht.storage.wal.batch.size
	fsyncNs *metrics.Histogram // zht.storage.wal.fsync_ns
}

// maxBatchBuf caps the batch buffer a committer keeps between commits.
const maxBatchBuf = 1 << 20

// newWAL wraps the open active file f at path, whose first byte is
// logical offset base and whose consistent prefix ends at logical
// offset size. The window applies to group mode only.
func newWAL(path string, f *os.File, base, size int64, mode storage.Durability, window time.Duration, fault storage.Fault, reg *metrics.Registry) *wal {
	if mode != storage.DurabilityGroup {
		window = 0
	}
	w := &wal{path: path, f: f, mode: mode, fault: fault, window: window, written: size, synced: size}
	w.base.Store(base)
	w.size.Store(size)
	w.cond = sync.NewCond(&w.mu)
	if reg != nil {
		w.commits = reg.Counter("zht.storage.wal.commits")
		w.batchSz = reg.Histogram("zht.storage.wal.batch.size")
		w.fsyncNs = reg.Histogram("zht.storage.wal.fsync_ns")
	}
	return w
}

// append enqueues one record and returns the logical offset its first
// byte will occupy. Before the mutation is acknowledged, a
// waitDurable whose target covers off + len(rec) must return.
func (w *wal) append(rec []byte) (off int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, ErrClosed
	}
	off = w.size.Load()
	w.size.Store(off + int64(len(rec)))
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
// on the log returns, every acknowledged record is in the file.
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
		if !w.committing && len(w.pending) > 0 {
			w.commitPending(0)
		}
		return w.err
	}
	return w.commitUntil(&w.synced, target, w.window)
}

// flushTo returns once the log prefix [0, target) is physically in
// the files. It commits pending records itself, without the group
// window, and waits out a committer that is already running.
func (w *wal) flushTo(target int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commitUntil(&w.written, target, 0)
}

// commitUntil runs with w.mu held until the watermark mark (written
// or synced) reaches target: it waits while another caller holds the
// file and otherwise commits the pending records itself.
func (w *wal) commitUntil(mark *int64, target int64, window time.Duration) error {
	for *mark < target && w.err == nil {
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
	if *mark >= target {
		return nil
	}
	return w.err
}

// commitPending is one committer pass, entered and left with w.mu held
// and w.pending non-empty: it sleeps the window, takes the pending
// records (only the first in sync mode), commits them with the mutex
// released, then publishes the new watermarks and wakes every waiter.
// An async committer keeps taking batches until nothing is pending: the
// callers that appended meanwhile returned without waiting, and no one
// else will write their records.
func (w *wal) commitPending(window time.Duration) {
	w.committing = true
	if window > 0 {
		// Gather a cohort. Appends only need the mutex briefly, so they
		// accumulate in pending while the committer sleeps.
		w.mu.Unlock()
		time.Sleep(window)
		w.mu.Lock()
	}
	for {
		batch := w.pending
		if w.mode == storage.DurabilitySync {
			batch = batch[:1:1]
			w.pending = w.pending[1:]
		} else {
			w.pending = nil
		}
		w.mu.Unlock()

		written, synced, err := w.commit(batch)

		w.mu.Lock()
		w.written += written
		w.synced += synced
		if err != nil && w.err == nil {
			w.err = fmt.Errorf("%w: %v", storage.ErrBroken, err)
		}
		if w.mode != storage.DurabilityAsync || len(w.pending) == 0 || w.err != nil {
			break
		}
	}
	w.committing = false
	w.cond.Broadcast()
}

// hold drains every pending record onto the file and keeps other
// committers out until release, so the caller may fsync or swap files
// with nothing in flight. Appends still queue meanwhile.
func (w *wal) hold() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.committing || (w.err == nil && len(w.pending) > 0) {
		if w.committing {
			w.cond.Wait()
		} else {
			w.commitPending(0)
		}
	}
	if w.err != nil {
		return w.err
	}
	w.committing = true
	return nil
}

// release ends a hold. synced reports that the caller fsynced every
// file, err that it failed (which breaks the log). Records appended
// during the hold are committed on the way out, since an async caller
// that met the hold did not wait for them.
func (w *wal) release(synced bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("%w: %v", storage.ErrBroken, err)
	}
	if synced && err == nil {
		w.synced = w.written
	}
	w.committing = false
	w.cond.Broadcast()
	if len(w.pending) > 0 && w.err == nil {
		w.commitPending(0)
	}
}

// rotate freezes the active file as <path>.old and starts an empty
// active file at the current logical size, so a clean can move the
// live entries out of the frozen one. Offsets keep their meaning.
func (w *wal) rotate() error {
	if err := w.hold(); err != nil {
		return err
	}
	if err := os.Rename(w.path, w.path+oldSuffix); err != nil {
		w.release(false, nil) // nothing changed
		return fmt.Errorf("novoht: rotate: %w", err)
	}
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		w.mu.Lock()
		// Records appended during the hold are still pending: they
		// go to the new file, which starts where the old one ends.
		w.old, w.f = w.f, f
		w.base.Store(w.written)
		w.mu.Unlock()
	}
	w.release(false, err)
	return err
}

// dropOld ends a clean: with every copy written, it fsyncs the active
// file when sync is set, then closes and unlinks the frozen file.
func (w *wal) dropOld(sync bool) error {
	if err := w.hold(); err != nil {
		return err
	}
	var err error
	if sync {
		err = w.fsync(w.f)
	}
	w.mu.Lock()
	old := w.old
	if err == nil {
		w.old = nil
	}
	w.mu.Unlock()
	w.release(sync, err)
	if err != nil {
		return err
	}
	old.Close()
	if err := os.Remove(w.path + oldSuffix); err != nil {
		return fmt.Errorf("novoht: drop old log: %w", err)
	}
	return nil
}

// activeSize returns the length of the active file, including records
// not yet written.
func (w *wal) activeSize() int64 {
	return w.size.Load() - w.base.Load()
}

// syncAll forces every appended record onto the files and fsyncs them.
func (w *wal) syncAll() error {
	if err := w.hold(); err != nil {
		return err
	}
	err := w.fsync(w.f)
	if err == nil && w.old != nil {
		err = w.fsync(w.old)
	}
	w.release(true, err)
	return err
}

// close commits pending records, waits out a running committer,
// fsyncs the file (so a clean shutdown never loses an acknowledged —
// or even an async-buffered — write), and closes it. Safe to call
// once; the log serializes callers.
func (w *wal) close() error {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	err := w.hold()
	if err == nil {
		err = w.f.Sync()
		w.release(true, err)
	}
	if w.old != nil {
		w.old.Close() // a clean that failed: replay reads it next time
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
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

// commit writes one batch with one file write, returning how many
// bytes were fully written and how many of those are covered by an
// fsync. A batch of one is written from its own buffer; a larger one is
// first copied into the committer's batch buffer. A fault or I/O error
// may leave a torn batch on disk — the same state a real crash
// mid-commit leaves — and is returned for the sticky error.
func (w *wal) commit(batch [][]byte) (written, synced int64, err error) {
	w.commits.Inc()
	w.batchSz.Observe(int64(len(batch)))
	out := batch[0]
	if len(batch) > 1 {
		out = w.buf[:0]
		for _, rec := range batch {
			out = append(out, rec...)
		}
	}
	keep, ferr := w.faultWrite(len(out))
	if keep > 0 {
		if keep > len(out) {
			keep = len(out)
		}
		if _, werr := w.f.Write(out[:keep]); werr != nil && ferr == nil {
			ferr = werr
		}
	}
	if ferr == nil && keep < len(out) {
		ferr = fmt.Errorf("novoht: torn write (%d of %d bytes)", keep, len(out))
	}
	if len(batch) > 1 && cap(out) <= maxBatchBuf {
		w.buf = out[:0]
	}
	if ferr != nil {
		return 0, 0, ferr
	}
	// The records' bytes are on the file and nothing else holds a
	// reference (cleaning copies from the in-memory table), so their
	// buffers go back to the pool appendRecord draws from.
	for _, rec := range batch {
		putRec(rec)
	}
	written = int64(len(out))
	if w.mode == storage.DurabilityGroup || w.mode == storage.DurabilitySync {
		if err := w.fsync(w.f); err != nil {
			return written, 0, err
		}
		synced = written
	}
	return written, synced, nil
}

// fsync hardens f, timing the call.
func (w *wal) fsync(f *os.File) error {
	if w.fault != nil {
		if err := w.fault.BeforeSync(); err != nil {
			return err
		}
	}
	start := time.Time{}
	if w.fsyncNs.ShouldSample() {
		start = time.Now()
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if !start.IsZero() {
		w.fsyncNs.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}

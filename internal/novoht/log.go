package novoht

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"zht/internal/metrics"
	"zht/internal/storage"
)

// Log is one NoVoHT write-ahead log and the stores whose records it
// holds. A ZHT instance keeps one Log for all of its partition stores,
// so a durable instance owns one file however many partitions it
// serves; Open is a Log holding one store. Every store of a Log
// appends to the same group-commit WAL, so one commit can carry the
// records of many stores.
//
// The unit of durability is the caller's request, not the store call:
// a mutation of a store the Log holds stages its record under its
// store lock and returns, and whoever acknowledges the request calls
// Commit once, for all of its records. A store that Open returns owns
// its log and commits inside each mutation instead.
//
// A record names no store: route maps its key to the store it belongs
// to, and must do so for the whole life of the log file. (An instance
// routes a key to its partition, and the partition count is fixed for
// the life of a DataDir.) Replay reads the log once and hands each
// record to its store.
//
// Space is reclaimed a store at a time, never by stopping the log. A
// clean freezes the active file as <path>.old and starts an empty one;
// then, holding one store's lock at a time, it re-appends every live
// pair whose last full image lies in the frozen file; then it fsyncs
// the new file and unlinks the frozen one. A crash mid-clean leaves
// both files, and replay reads the frozen one first: every copy comes
// later in the log than what it copies, so replay is still exact.
//
// A Log with no Path is volatile: its stores keep memory only.
type Log struct {
	opts  Options
	route func(key string) int
	wal   *wal // nil for a volatile log

	mu     sync.Mutex
	stores map[int]*Store
	closed atomic.Bool

	maxVer uint64 // the highest version stamp replay read

	// deadBytes counts the active file's bytes that belong to
	// superseded records; mutations counts mutations since the last
	// rotation. Together they trip a clean (CompactEvery, GCRatio).
	deadBytes atomic.Int64
	mutations atomic.Int64
	// cleanMu is held for the whole of a clean, so cleans are single
	// flight and Close waits for a running one. waiting marks the one
	// caller that waits for a running clean to start the next.
	cleanMu     sync.Mutex
	waiting     atomic.Bool
	compactions *metrics.Counter // zht.novoht.compactions
}

// testCleanStore, when non-nil, runs inside copyLive with the store's
// lock held; the no-stop-the-world test uses it to park a clean.
var testCleanStore func(s *Store)

// cleanFlushBytes is how many bytes of copies a clean queues before it
// commits them, bounding what a clean holds in the WAL's pending list.
const cleanFlushBytes = 256 << 10

// OpenLog creates or recovers a log and the stores its records belong
// to. route maps a key to its store's id; nil routes every key to
// store 0. If opts.Path exists, the log is replayed — <path>.old first
// when a clean was interrupted, which is then finished — and a torn
// final record (from a crash mid-write) is truncated away, recovering
// the longest consistent prefix.
func OpenLog(opts Options, route func(key string) int) (*Log, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = DefaultCompactEvery
	}
	if opts.GCRatio == 0 {
		opts.GCRatio = DefaultGCRatio
	}
	if opts.GroupWindow == 0 {
		opts.GroupWindow = DefaultGroupWindow
	} else if opts.GroupWindow < 0 {
		opts.GroupWindow = 0
	}
	if opts.Durability == storage.DurabilityNone {
		opts.Path = "" // volatile: the log path is ignored
	}
	if route == nil {
		route = func(string) int { return 0 }
	}
	l := &Log{opts: opts, route: route, stores: make(map[int]*Store)}
	if reg := opts.Metrics; reg != nil {
		l.compactions = reg.Counter("zht.novoht.compactions")
	}
	if opts.Path == "" {
		return l, nil
	}
	if err := l.open(); err != nil {
		return nil, err
	}
	return l, nil
}

// open replays the log files and starts the WAL on the active one.
func (l *Log) open() (err error) {
	path := l.opts.Path
	var old, f *os.File
	defer func() {
		if err != nil {
			for _, file := range []*os.File{old, f} {
				if file != nil {
					file.Close()
				}
			}
		}
	}()
	queues := map[*Store][]replayed{}
	var base int64
	if old, err = os.OpenFile(path+oldSuffix, os.O_RDWR, 0); err == nil {
		if base, err = l.decode(old, 0, queues); err != nil {
			return err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("novoht: open old log: %w", err)
	}
	if f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return fmt.Errorf("novoht: open log: %w", err)
	}
	size, err := l.decode(f, base, queues)
	if err != nil {
		return err
	}
	if _, err = f.Seek(size-base, io.SeekStart); err == nil {
		err = f.Truncate(size - base)
	}
	if err != nil {
		return fmt.Errorf("novoht: truncate torn tail: %w", err)
	}
	l.wal = newWAL(path, f, base, size, l.opts.Durability, l.opts.GroupWindow, l.opts.Fault, l.opts.Metrics)
	l.wal.old = old
	for _, s := range l.stores {
		s.wal = l.wal // decode created them before the WAL
	}
	apply(queues, base)
	if old != nil {
		err = l.clean() // finish the clean a crash interrupted
	}
	return err
}

// replayed is one decoded record on its way to its store.
type replayed struct {
	key  string
	val  []byte
	voff int64 // log offset of the value
	ver  uint64
	typ  byte
}

// decode reads one log file, whose first byte is logical offset base,
// queueing each record on the store its key routes to; it stops at the
// first corrupt or torn record and returns the logical offset where
// the consistent prefix ends. The read buffer is sized to the file,
// capped at 1 MiB.
func (l *Log) decode(f *os.File, base int64, queues map[*Store][]replayed) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("novoht: stat log: %w", err)
	}
	if st.Size() == 0 {
		return base, nil
	}
	r := bufio.NewReaderSize(f, int(max(min(st.Size(), 1<<20), maxHeader)))
	off := base
	end := base + st.Size()
	for {
		typ, key, val, ver, n, err := readRecord(r, end-off)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, errBadRecord) {
				return off, nil // torn tail: keep the consistent prefix
			}
			return 0, err
		}
		k := string(key)
		s := l.store(l.route(k))
		l.maxVer = max(l.maxVer, ver)
		queues[s] = append(queues[s], replayed{k, val, off + int64(n) - int64(len(val)) - 4, ver, typ})
		off += int64(n)
	}
}

// apply applies each store's queued records in log order and seals
// the store, the stores spread over up to GOMAXPROCS goroutines, one of
// them the caller's. One store's tables stay in cache while its records
// apply, where the log's interleaved records would touch another
// store's tables every time. Only the active file, which starts at
// base, holds dead bytes: a clean drops the old file whole.
func apply(queues map[*Store][]replayed, base int64) {
	stores := make(chan *Store, len(queues))
	for s := range queues {
		stores <- s
	}
	close(stores)
	drain := func() {
		for s := range stores {
			for _, r := range queues[s] {
				s.replayRecord(r, base)
			}
			s.seal()
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(queues)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}

// replayRecord applies one replayed record; records in the active file,
// which starts at base, count as dead bytes once superseded. Only open
// calls it, before the store is shared.
func (s *Store) replayRecord(r replayed, base int64) {
	key, val, ver, voff := r.key, r.val, r.ver, r.voff
	dead := func(n int64) {
		if voff >= base {
			s.log.deadBytes.Add(n)
		}
	}
	h, i := s.lookup(key)
	old := s.cellAt(i)
	var p cell
	switch r.typ {
	case recPut, recPutV:
		if old != nil {
			// Crash replay keeps the newest version. The store refuses a
			// stamp older than the stored one (storage.ErrStale), so this
			// skips only records of logs written before that rule, where
			// an older stamp was applied over a newer one.
			if ver > 0 && old.ver() > ver {
				dead(recordSize(key, int64(len(val)), ver))
				return
			}
			s.log.supersede(old, base)
			p = old.withVal(val)
			s.idx.slots[i].p = p
		} else {
			p = newCell(key, val)
			s.idx.add(h, storage.LeafOf(key), p)
		}
		p.setOff(voff)
		p.setVer(ver)
	case recRemove, recRemoveV:
		if old == nil {
			return
		}
		dead(recordSize(key, 0, ver))
		if ver > 0 && old.ver() > ver {
			return
		}
		s.log.supersede(old, base)
		s.idx.remove(i)
	case recAppend, recAppendV:
		// An append applies unconditionally, as it did live; an
		// unversioned one keeps the pair's stamp, a versioned one
		// replaces it.
		if old != nil {
			p = append(old, val...)
			s.idx.slots[i].p = p
		} else {
			p = newCell(key, val)
			s.idx.add(h, storage.LeafOf(key), p)
		}
		if r.typ == recAppendV {
			p.setVer(ver)
		}
	}
}

// seal builds a replayed store's digest in one pass over the live
// pairs, caching each pair's FNV state.
func (s *Store) seal() {
	for i := range s.idx.slots {
		sl := &s.idx.slots[i]
		if p := sl.p; p != nil {
			p.setFH(storage.FNV(storage.PairPrefix(p.key()), p.val()))
			s.leaves[sl.leaf()] ^= storage.PairSeal(p.fh(), p.ver())
		}
	}
}

// store returns the store with the given id, creating an empty one on
// demand. A store created after Close is closed.
func (l *Log) store(id int) *Store {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stores[id]
	if s == nil {
		s = newStore(l)
		s.closed.Store(l.closed.Load())
		l.stores[id] = s
	}
	return s
}

// Store returns the store with the given id, creating an empty one on
// demand.
func (l *Log) Store(id int) storage.KV { return l.store(id) }

// IDs lists the ids of the stores the log holds, ascending: after
// OpenLog, every store a replayed record was routed to.
func (l *Log) IDs() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]int, 0, len(l.stores))
	for id := range l.stores {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// MaxVersion returns the highest version stamp replay read, so a
// clock can order its next stamp above every replayed pair.
func (l *Log) MaxVersion() uint64 { return l.maxVer }

// storeList snapshots the stores.
func (l *Log) storeList() []*Store {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Store, 0, len(l.stores))
	for _, s := range l.stores {
		out = append(out, s)
	}
	return out
}

// supersede counts the bytes of the record holding pair p's current
// image as dead, unless that image lies before base, in a file a clean
// drops whole.
func (l *Log) supersede(p cell, base int64) {
	if p.off() >= base {
		l.deadBytes.Add(recordSize(p.key(), int64(len(p.val())), p.ver()))
	}
}

// due reports whether the clean policy asks for a clean: CompactEvery
// mutations since the last one, or dead bytes past GCRatio of the
// active file.
func (l *Log) due() bool {
	if l.opts.CompactEvery > 0 && l.mutations.Load() >= int64(l.opts.CompactEvery) {
		return true
	}
	dead := l.deadBytes.Load()
	if dead <= 1<<16 {
		return false
	}
	size := l.wal.activeSize()
	return size > 0 && float64(dead)/float64(size) > l.opts.GCRatio
}

// maybeClean starts a clean when the policy asks for one: the caller
// rotates the log, which resets the policy's counters, and the rest of
// the clean runs on a goroutine that exists only while it runs; Close
// waits for it. If a clean is still running when the next is due, one
// caller waits for it and starts the next, so cleaning keeps up with
// the log; the other callers go on.
func (l *Log) maybeClean() {
	if !l.due() {
		return
	}
	if !l.cleanMu.TryLock() {
		if !l.waiting.CompareAndSwap(false, true) {
			return
		}
		l.cleanMu.Lock()
		l.waiting.Store(false)
	}
	if l.closed.Load() || !l.due() {
		l.cleanMu.Unlock()
		return
	}
	if err := l.rotate(); err != nil {
		l.cleanMu.Unlock()
		l.wal.fail(err)
		return
	}
	go func() {
		defer l.cleanMu.Unlock()
		if err := l.clean(); err != nil {
			l.wal.fail(err) // the log reports it on every later call
		}
	}()
}

// compact runs a clean synchronously, after any running one.
func (l *Log) compact() error {
	l.cleanMu.Lock()
	defer l.cleanMu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	if err := l.rotate(); err != nil {
		return err
	}
	if err := l.clean(); err != nil {
		l.wal.fail(err)
		return err
	}
	return nil
}

// rotate freezes the active file for a clean and restarts the policy's
// counters on the new one. The caller holds cleanMu.
func (l *Log) rotate() error {
	if err := l.wal.rotate(); err != nil {
		return err
	}
	l.deadBytes.Store(0)
	l.mutations.Store(0)
	return nil
}

// clean moves every live pair out of the frozen file: one store at a
// time, it re-appends each pair whose last full image lies before the
// active file, then it hardens the active file (in group and sync
// durability modes) and unlinks the frozen one.
func (l *Log) clean() error {
	base := l.wal.base.Load()
	var queued int64
	for _, s := range l.storeList() {
		end, n, err := s.copyLive(base)
		if err != nil {
			return err
		}
		if queued += n; queued >= cleanFlushBytes {
			if err := l.wal.flushTo(end); err != nil {
				return err
			}
			queued = 0
		}
	}
	sync := l.opts.Durability == storage.DurabilityGroup || l.opts.Durability == storage.DurabilitySync
	if err := l.wal.dropOld(sync); err != nil {
		return err
	}
	l.compactions.Inc()
	return nil
}

// copyLive re-appends, as one WAL record batch, a Put of every pair
// whose last full image lies before base — including pairs built only
// from appends, whose offset is 0 — and moves the pairs to their
// copies. It returns the log offset the copies end at and their size.
func (s *Store) copyLive(base int64) (end, n int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if testCleanStore != nil {
		testCleanStore(s)
	}
	type move struct {
		p   cell
		rel int64
	}
	size := 0
	for _, sl := range s.idx.slots {
		if p := sl.p; p != nil && p.off() < base {
			size += int(recordSize(p.key(), int64(len(p.val())), p.ver()))
		}
	}
	if size == 0 {
		return 0, 0, nil
	}
	moves := make([]move, 0, s.idx.n)
	// The batch is a pooled record buffer: the committer that writes it
	// returns it, so a clean of many small stores allocates little.
	blob := slices.Grow(getRec(), size)
	for _, sl := range s.idx.slots {
		p := sl.p
		if p == nil || p.off() >= base {
			continue
		}
		var voff int
		blob, voff = encodeRecord(blob, recPut, p.key(), p.val(), p.ver())
		moves = append(moves, move{p, int64(voff)})
	}
	off, err := s.wal.append(blob)
	if err != nil {
		return 0, 0, err
	}
	for _, m := range moves {
		m.p.setOff(off + m.rel)
	}
	return off + int64(len(blob)), int64(len(blob)), nil
}

// Commit makes every record the log's stores have staged so far
// durable at the log's durability mode, then starts a clean when the
// log's policy asks for one. A mutation of a store OpenLog created
// stages its record and returns without waiting: the caller that
// acknowledges it owes one Commit first, and one Commit covers every
// record staged before it — a whole request's, whatever its size. So
// a request costs one write (async) or one share of a group fsync
// (group), not one per record; sync mode still fsyncs each record
// alone. Commit is a no-op on a volatile log.
//
// After a failed Commit none of the records it covers may be
// acknowledged. A failed write or fsync also breaks the log
// (storage.ErrBroken), and a prefix of those records, in staging
// order, may be on disk.
func (l *Log) Commit() error {
	if l.wal == nil {
		return nil
	}
	return l.commit(l.wal.size.Load())
}

// commit waits until the log prefix [0, target) is durable, committing
// pending records itself when no other caller is, and then runs the
// clean policy.
func (l *Log) commit(target int64) error {
	if err := l.wal.waitDurable(target); err != nil {
		return err
	}
	l.maybeClean()
	return nil
}

// Sync commits every appended record and fsyncs the log.
func (l *Log) Sync() error {
	if l.closed.Load() {
		return ErrClosed
	}
	if l.wal == nil {
		return nil
	}
	return l.wal.syncAll()
}

// Close closes every store, waits for a running clean, then drains,
// fsyncs and closes the log: a clean shutdown never loses an
// acknowledged write of any durability mode. Once every call on the
// log's stores has returned, every acknowledged record is in the file.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	for _, s := range l.storeList() {
		s.markClosed()
	}
	l.cleanMu.Lock()
	defer l.cleanMu.Unlock()
	if l.wal == nil {
		return nil
	}
	return l.wal.close()
}

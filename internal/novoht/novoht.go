// Package novoht implements NoVoHT, ZHT's Non-Volatile Hash Table
// (paper §III.I and reference [49]) — the flagship implementation of
// the storage.KV interface.
//
// NoVoHT keeps every key/value pair in memory for constant-time
// lookups and appends each mutation to an on-disk log so the full
// state survives failures and restarts. The design goals lifted from
// the paper:
//
//   - log-based persistence with periodic checkpointing: mutations are
//     appended to a log; a clean periodically copies the live records
//     out of the log's older part and drops it (reclaiming space — the
//     paper's "garbage collection"), which doubles as the checkpoint;
//   - a fourth basic operation, Append, that concatenates to an
//     existing value under a local lock, enabling ZHT's lock-free
//     concurrent key/value modification.
//
// The paper's bound on the number of values held in memory is not
// kept: every value stays resident, so no read touches the disk
// (EXPERIMENTS.md records the deviation).
//
// A store is one open-addressed index of pairs (index.go) under one
// RWMutex; each pair is one pointer-free allocation. A ZHT instance
// keeps one store per partition, so the partition is the lock stripe.
// The log is a group-commit write-ahead log (wal.go) with no goroutine
// of its own: the caller that finds records pending and nobody
// committing writes them as one batch with one write and, per
// storage.Durability mode, one fsync. Many stores can share one
// log (log.go): a ZHT instance keeps all of its partition stores in
// one file. A mutation of a shared log's store only stages its record;
// the instance commits once per request (Log.Commit), before it
// acknowledges, so an envelope's records share one write. A store
// opened alone (Open) commits inside each mutation, so each of its
// mutations is acknowledged only once its record's durability level
// is met.
//
// Each store also keeps its partition's repair digest
// (storage.LeafOf/PairHashV, DESIGN.md §9) current: every mutation
// XORs the old and new pair hashes into the key's leaf inside the
// critical section it already holds. Pairs cache their FNV state and
// index slots their leaf, so no mutation reads a pre-image to hash it,
// an Append hashes only its delta, and only a new key computes its
// leaf.
//
// A Store is safe for concurrent use by multiple goroutines.
package novoht

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/maphash"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/metrics"
	"zht/internal/storage"
	"zht/internal/wire"
)

// Options configures a Log and the stores it holds.
type Options struct {
	// Path is the log file. Empty means a volatile, memory-only
	// store (the paper's "NoVoHT no persistence" configuration).
	Path string
	// Durability selects how much WAL durability a commit reaches
	// before it returns, and so what an acknowledged mutation has: a
	// store from Open commits each mutation, a Log's owner each
	// request (Log.Commit). The zero value is
	// storage.DurabilityAsync (the seed store's behavior);
	// storage.DurabilityNone makes the store volatile, ignoring
	// Path.
	Durability storage.Durability
	// GroupWindow is how long a group-mode commit waits after its
	// first record for more to arrive before fsyncing, so callers
	// staggered by scheduling or network round trips still share one
	// fsync (0 = DefaultGroupWindow; negative = commit immediately).
	// Ignored outside group mode.
	GroupWindow time.Duration
	// CompactEvery triggers a clean of the log after this many
	// mutations across its stores (0 = use DefaultCompactEvery;
	// negative = never clean automatically).
	CompactEvery int
	// GCRatio triggers a clean when the dead bytes of the log's active
	// file exceed this fraction of it (0 = use DefaultGCRatio).
	GCRatio float64
	// Fault, when non-nil, injects storage-level crash faults into
	// the WAL (see storage.Fault and internal/chaos); production
	// stores leave it nil.
	Fault storage.Fault
	// Metrics, when non-nil, receives per-operation latency
	// histograms (zht.novoht.{get,put,append}.latency_ns), the
	// compaction counter, and the WAL's
	// zht.storage.wal.{commits,batch.size,fsync_ns} instruments.
	// Stores and logs sharing a registry aggregate into the same
	// instruments. Nil disables
	// measurement entirely — the hot paths skip even their time.Now
	// calls.
	Metrics *metrics.Registry
}

// Defaults for Options zero values.
const (
	DefaultCompactEvery = 1 << 20
	DefaultGCRatio      = 0.5
	// DefaultGroupWindow trades ~0.5ms of commit latency for batching:
	// wide enough for a closed loop of clients to resubmit after an
	// ack (a scheduler pass plus a loopback round trip), narrow
	// enough to stay well under a typical storage fsync budget.
	DefaultGroupWindow = 500 * time.Microsecond
)

// Store is a NoVoHT hash table. It implements storage.KV.
type Store struct {
	log     *Log
	wal     *wal // the log's WAL; nil for a volatile store
	ownsLog bool // opened by Open: closing the store closes its log

	// mu orders every read and mutation of idx and leaves; closed is
	// written under it.
	mu     sync.RWMutex
	idx    index
	seed   maphash.Seed // of idx's probe hash
	closed atomic.Bool

	// leaves is the maintained repair digest: leaf l is the XOR of
	// storage.PairHashV over every live pair whose key is in leaf l.
	leaves [storage.Leaves]uint64

	// Instruments resolved once at Open; all nil when metrics are
	// disabled.
	getLat    *metrics.Histogram // zht.novoht.get.latency_ns
	putLat    *metrics.Histogram // zht.novoht.put.latency_ns
	appendLat *metrics.Histogram // zht.novoht.append.latency_ns
}

// Log record types. Each base type has a versioned variant, numbered
// versionedRec above it, that carries an extra version uvarint between
// the value length and the key. A mutation stamped with version 0
// emits the base type, so records written before versioning keep
// their exact bytes and meaning.
const (
	recPut     = 1
	recRemove  = 2
	recAppend  = 3
	recPutV    = 4
	recRemoveV = 5
	recAppendV = 6

	versionedRec = recPutV - recPut
)

// recordType returns the record type a mutation of base type typ
// stamped with ver is logged as.
func recordType(typ byte, ver uint64) byte {
	if ver > 0 {
		return typ + versionedRec
	}
	return typ
}

var (
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("novoht: store is closed")
	// ErrNoPersistence reports an operation that requires a log file
	// on a memory-only store.
	ErrNoPersistence = errors.New("novoht: store has no persistence")
)

// Open creates or recovers a store that owns its log: a Log holding
// one store. If opts.Path exists, its log is replayed; a torn final
// record (from a crash mid-write) is truncated away, recovering the
// longest consistent prefix.
func Open(opts Options) (*Store, error) {
	l, err := OpenLog(opts, nil)
	if err != nil {
		return nil, err
	}
	s := l.store(0)
	s.ownsLog = true
	return s, nil
}

// newStore creates an empty store that logs to l.
func newStore(l *Log) *Store {
	s := &Store{log: l, wal: l.wal, seed: maphash.MakeSeed()}
	if reg := l.opts.Metrics; reg != nil {
		s.getLat = reg.Histogram("zht.novoht.get.latency_ns")
		s.putLat = reg.Histogram("zht.novoht.put.latency_ns")
		s.appendLat = reg.Histogram("zht.novoht.append.latency_ns")
	}
	return s
}

// lookup returns key's probe hash and the index of its slot, -1 when
// absent; s.mu must be held.
func (s *Store) lookup(key string) (h uint64, i int) {
	h = probeHash(s.seed, key)
	return h, s.idx.find(key, h)
}

// cellAt returns the cell of slot i, nil when i is -1.
func (s *Store) cellAt(i int) cell {
	if i < 0 {
		return nil
	}
	return s.idx.slots[i].p
}

// DigestLeaves returns a copy of the store's repair digest leaves.
func (s *Store) DigestLeaves() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]uint64(nil), s.leaves[:]...)
}

// Put stores val under key, replacing any existing value.
func (s *Store) Put(key string, val []byte) error {
	return s.PutV(key, val, 0)
}

// PutV stores val under key with the given version stamp, replacing
// any existing value and version; a non-zero ver at or below the
// stored version is refused with storage.ErrStale. Put is exactly
// PutV(key, val, 0).
func (s *Store) PutV(key string, val []byte, ver uint64) error {
	defer s.timeOp(s.putLat)()
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	h, i := s.lookup(key)
	end, err := s.putLocked(key, h, i, val, ver)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.finishMutation(end)
}

// PutLWW stores (val, ver) only when ver is strictly newer than the
// stored version; an absent key always accepts the write. It reports
// whether the store was modified.
func (s *Store) PutLWW(key string, val []byte, ver uint64) (bool, error) {
	defer s.timeOp(s.putLat)()
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return false, ErrClosed
	}
	h, i := s.lookup(key)
	if p := s.cellAt(i); p != nil && p.ver() >= ver {
		s.mu.Unlock()
		return false, nil
	}
	end, err := s.putLocked(key, h, i, val, ver)
	s.mu.Unlock()
	if err != nil {
		return false, err
	}
	return true, s.finishMutation(end)
}

// timeOp starts timing an operation against h, returning the function
// that records the elapsed time. Only one call in metrics.SampleEvery
// is measured (none when h is nil): the rest return a shared no-op
// without touching the clock, so the common case costs one atomic
// tick instead of two time.Now reads.
func (s *Store) timeOp(h *metrics.Histogram) func() {
	if !h.ShouldSample() {
		return nopTimer
	}
	start := time.Now()
	return func() { h.Observe(time.Since(start).Nanoseconds()) }
}

func nopTimer() {}

// putLocked applies a Put under s.mu to key, whose probe hash is h and
// slot i (-1 when absent): the record is submitted to the WAL (offsets
// assigned in submission order, which the store lock makes per-key
// order) and the pair updated along with the digest. It returns the
// log offset the caller must wait durable, or storage.ErrStale when the
// stored version is at least ver (stale).
func (s *Store) putLocked(key string, h uint64, i int, val []byte, ver uint64) (int64, error) {
	old := s.cellAt(i)
	if stale(old, ver) {
		return 0, storage.ErrStale
	}
	voff, end, err := s.appendRecord(recPut, key, val, ver)
	if err != nil {
		return 0, err
	}
	fh := storage.FNV(storage.PairPrefix(key), val)
	x := storage.PairSeal(fh, ver)
	var p cell
	var leaf int
	if old != nil {
		x ^= storage.PairSeal(old.fh(), old.ver())
		s.superseded(old)
		sl := &s.idx.slots[i]
		p = old.withVal(val)
		sl.p, leaf = p, sl.leaf()
	} else {
		p, leaf = newCell(key, val), storage.LeafOf(key)
		s.idx.add(h, leaf, p)
	}
	p.setOff(voff)
	p.setVer(ver)
	p.setFH(fh)
	s.leaves[leaf] ^= x
	s.counted()
	return end, nil
}

// superseded counts the bytes of the record holding pair p's current
// image as dead.
func (s *Store) superseded(p cell) {
	if s.wal != nil {
		s.log.supersede(p, s.wal.base.Load())
	}
}

// counted counts one mutation toward the log's clean policy. A
// volatile store never cleans, so its mutations skip the counter the
// log's stores share.
func (s *Store) counted() {
	if s.wal != nil {
		s.log.mutations.Add(1)
	}
}

// stale reports whether a mutation stamped ver must be refused with
// storage.ErrStale because the present pair p (nil when absent) is at
// least as new, so a key's stamps rise in log order. Version 0 applies
// unconditionally.
func stale(p cell, ver uint64) bool { return p != nil && ver > 0 && p.ver() >= ver }

// appendRecord encodes and submits one log record, returning the
// in-log offset of its value bytes and the offset its last byte will
// occupy (the durability target). A non-zero ver upgrades the record
// to its versioned variant (recordType) carrying the stamp.
func (s *Store) appendRecord(typ byte, key string, val []byte, ver uint64) (voff, end int64, err error) {
	if s.wal == nil {
		return 0, 0, nil
	}
	// The record is built in a pooled buffer the WAL's committer
	// returns after writing it.
	rec, v := encodeRecord(getRec(), typ, key, val, ver)
	off, err := s.wal.append(rec)
	if err != nil {
		putRec(rec)
		return 0, 0, err
	}
	return off + int64(v), off + int64(len(rec)), nil
}

// Pooled WAL record buffers. Ownership is linear: appendRecord fills
// one, wal.append queues it, and the committer that takes it returns it
// here once its bytes are on the file (records dropped on a failed WAL
// simply fall to the GC). A request stages all of its records before
// its one commit, and a group or sync committer writes the records of
// the callers queued behind it, so a record can be filled on one
// goroutine and returned on another.
//
// The list is wire's per-P FreeList, the one every other hot-path
// buffer uses. It replaced a 256-slot channel once commits moved onto
// the request goroutines: in alternating pairs on a 2-core VM the
// per-P list won 11 of 14 on BenchmarkBatchReplicatedLoad (median 4.84
// against 5.09 µs per key, allocs/op within 2 of 2 664) and 3 of 4 on
// BenchmarkDurableWriteParallel (B/op 460 against 790), DESIGN.md §11.
// Records above maxPooledRec bytes are left to the GC.
var recFree = wire.NewFreeList(512, maxPooledRec)

const maxPooledRec = 64 << 10

func getRec() []byte {
	b, _ := recFree.Get()
	return b
}

func putRec(b []byte) { recFree.Put(b) }

// finishMutation runs with the store lock released: on a store that
// owns its log (Open) it commits the record, which ends at log offset
// end. A store of a shared Log leaves its record staged for the
// caller's Log.Commit.
func (s *Store) finishMutation(end int64) error {
	if s.wal == nil || !s.ownsLog {
		return nil
	}
	return s.log.commit(end)
}

// PutIfAbsentV stores (val, ver) only when key is not present; it
// reports whether the store was modified.
func (s *Store) PutIfAbsentV(key string, val []byte, ver uint64) (bool, error) {
	defer s.timeOp(s.putLat)()
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return false, ErrClosed
	}
	h, i := s.lookup(key)
	if i >= 0 {
		s.mu.Unlock()
		return false, nil
	}
	end, err := s.putLocked(key, h, i, val, ver)
	s.mu.Unlock()
	if err != nil {
		return false, err
	}
	return true, s.finishMutation(end)
}

// Get returns a copy of the value stored under key.
func (s *Store) Get(key string) ([]byte, bool, error) {
	v, _, ok, err := s.GetAppendV(nil, key)
	return v, ok, err
}

// GetAppendV appends the value stored under key to dst while holding
// the store's read lock, so a hot read path costs one copy into a
// caller-owned scratch buffer and zero allocations, and returns the
// stored version stamp. On a miss dst is returned unmodified. The
// error is always nil: every value is in memory.
func (s *Store) GetAppendV(dst []byte, key string) ([]byte, uint64, bool, error) {
	defer s.timeOp(s.getLat)()
	h := probeHash(s.seed, key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := s.cellAt(s.idx.find(key, h))
	if p == nil {
		return dst, 0, false, nil
	}
	return append(dst, p.val()...), p.ver(), true, nil
}

// RemoveV deletes key, reporting whether it was present; the log
// record carries ver. A non-zero ver at or below the stored version
// is refused with storage.ErrStale.
func (s *Store) RemoveV(key string, ver uint64) (bool, error) {
	return s.removeVer(key, ver, false)
}

// RemoveLWW deletes key only when ver is strictly newer than the
// stored version, reporting whether the key was removed.
func (s *Store) RemoveLWW(key string, ver uint64) (bool, error) {
	return s.removeVer(key, ver, true)
}

// removeVer is the shared remove path; when lww is set the delete is
// skipped unless ver beats the stored version.
func (s *Store) removeVer(key string, ver uint64, lww bool) (bool, error) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return false, ErrClosed
	}
	_, i := s.lookup(key)
	p := s.cellAt(i)
	if p == nil {
		s.mu.Unlock()
		return false, nil
	}
	if lww && p.ver() >= ver {
		s.mu.Unlock()
		return false, nil
	}
	if stale(p, ver) {
		s.mu.Unlock()
		return false, storage.ErrStale
	}
	_, end, err := s.appendRecord(recRemove, key, nil, ver)
	if err != nil {
		s.mu.Unlock()
		return false, err
	}
	if s.wal != nil {
		s.log.deadBytes.Add(recordSize(key, 0, ver))
	}
	s.superseded(p)
	s.leaves[s.idx.slots[i].leaf()] ^= storage.PairSeal(p.fh(), p.ver())
	s.idx.remove(i)
	s.counted()
	s.mu.Unlock()
	return true, s.finishMutation(end)
}

// AppendV concatenates delta to the value stored under key, creating
// the key when absent, and stamps the pair with ver (version 0 leaves
// the stamp as it was, as a pre-versioning append record replays; a
// non-zero ver at or below the stored version is refused with
// storage.ErrStale). It logs only the delta, as one record, and holds
// only the store's lock: the operation FusionFS uses for lock-free
// concurrent directory updates.
// When dst is non-nil the accumulated value is appended to it and
// returned (a replica leg carries the whole value); a nil dst copies
// nothing.
func (s *Store) AppendV(dst []byte, key string, delta []byte, ver uint64) ([]byte, error) {
	defer s.timeOp(s.appendLat)()
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return dst, ErrClosed
	}
	h, i := s.lookup(key)
	p := s.cellAt(i)
	if stale(p, ver) {
		s.mu.Unlock()
		return dst, storage.ErrStale
	}
	_, end, err := s.appendRecord(recAppend, key, delta, ver)
	if err != nil {
		s.mu.Unlock()
		return dst, err
	}
	// Append records never supersede earlier log bytes (replay needs
	// the whole chain), so no bytes die until the next clean.
	var x uint64
	if p != nil {
		x = storage.PairSeal(p.fh(), p.ver())
		p = append(p, delta...)
		s.idx.slots[i].p = p
	} else {
		p = newCell(key, delta)
		p.setFH(storage.PairPrefix(key))
		i = s.idx.add(h, storage.LeafOf(key), p)
	}
	if ver > 0 {
		p.setVer(ver)
	}
	// The value is the last input of the pair hash, so the digest
	// continues over just the delta.
	p.setFH(storage.FNV(p.fh(), delta))
	s.leaves[s.idx.slots[i].leaf()] ^= x ^ storage.PairSeal(p.fh(), p.ver())
	s.counted()
	if dst != nil {
		dst = append(dst, p.val()...)
	}
	s.mu.Unlock()
	return dst, s.finishMutation(end)
}

// CasV atomically replaces the value under key with (newVal, ver)
// when the current value equals oldVal. A nil oldVal means "expect
// absent". It returns the value observed when the swap fails, and
// storage.ErrStale when it would swap but a non-zero ver is at or
// below the stored version.
func (s *Store) CasV(key string, oldVal, newVal []byte, ver uint64) (bool, []byte, error) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return false, nil, ErrClosed
	}
	h, i := s.lookup(key)
	p := s.cellAt(i)
	switch {
	case p == nil && oldVal != nil:
		s.mu.Unlock()
		return false, nil, nil
	case p != nil && (oldVal == nil || string(p.val()) != string(oldVal)):
		v := append([]byte(nil), p.val()...)
		s.mu.Unlock()
		return false, v, nil
	}
	end, err := s.putLocked(key, h, i, newVal, ver)
	s.mu.Unlock()
	if err != nil {
		return false, nil, err
	}
	return true, nil, s.finishMutation(end)
}

// Len reports the number of keys stored.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.n
}

// ForEachV calls fn for every pair with its version stamp; fn must
// not mutate the store. The store is locked for the duration, so the
// iteration is a consistent snapshot (a leaf-stream transfer depends
// on this). The key fn gets may be kept: its bytes never change. The
// value aliases the store and must be copied to be kept.
func (s *Store) ForEachV(fn func(key string, val []byte, ver uint64) error) error {
	return s.forEach(^uint64(0), fn)
}

// ForEachLeafV is ForEachV over only the pairs whose digest leaf
// (storage.LeafOf of the key) is in leaves. It reads the slots of the
// whole index but the pairs of those leaves alone: every slot keeps
// its pair's leaf.
func (s *Store) ForEachLeafV(leaves []int, fn func(key string, val []byte, ver uint64) error) error {
	var want uint64
	for _, l := range leaves {
		if l >= 0 && l < storage.Leaves {
			want |= 1 << l
		}
	}
	return s.forEach(want, fn)
}

// forEach calls fn for every pair whose leaf is in the bit set want.
func (s *Store) forEach(want uint64, fn func(key string, val []byte, ver uint64) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	for i := range s.idx.slots {
		sl := &s.idx.slots[i]
		if sl.p == nil || want&(1<<sl.leaf()) == 0 {
			continue
		}
		if err := fn(sl.p.key(), sl.p.val(), sl.p.ver()); err != nil {
			return err
		}
	}
	return nil
}

// Compact cleans the log synchronously: its live records are copied
// out of the part written before the call, which is then dropped,
// reclaiming dead space. This is the periodic checkpoint + GC the
// paper describes. It locks one store at a time, never the log.
func (s *Store) Compact() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.wal == nil {
		return ErrNoPersistence
	}
	return s.log.compact()
}

// Sync commits buffered log records and fsyncs the log.
func (s *Store) Sync() error {
	if s.closed.Load() {
		return ErrClosed
	}
	return s.log.Sync()
}

// Close closes the store; a store opened by Open also drains, fsyncs
// and closes its log, so a clean shutdown never loses an acknowledged
// write of any durability mode. The store is unusable afterwards.
func (s *Store) Close() error {
	if s.ownsLog {
		return s.log.Close()
	}
	s.markClosed()
	return nil
}

// markClosed refuses every later call. It takes the store lock, so no
// mutation is left between its closed check and its log append.
func (s *Store) markClosed() {
	s.mu.Lock()
	s.closed.Store(true)
	s.mu.Unlock()
}

// Stats returns a snapshot of store statistics (storage.Stats).
func (s *Store) Stats() storage.Stats {
	st := storage.Stats{Keys: s.Len(), Persistent: s.wal != nil}
	if s.wal != nil {
		st.LogBytes = s.wal.activeSize()
		st.DeadBytes = s.log.deadBytes.Load()
		st.Mutations = int(s.log.mutations.Load())
	}
	return st
}

var errBadRecord = errors.New("novoht: bad record checksum")

// maxHeader bounds a record header: the type and three uvarints.
const maxHeader = 1 + 3*binary.MaxVarintLen64

// readRecord reads one log record of at most limit bytes, returning its
// type, key, value, version stamp (0 for unversioned types) and total
// encoded size. A header claiming more bytes than limit is a torn
// record, rejected before anything is allocated for it. The header is
// decoded in place in r's buffer; then the whole record is read into
// one allocation and checksummed in one pass. Key and value are slices
// of it, the value capped, so appending to it never writes past it.
func readRecord(r *bufio.Reader, limit int64) (typ byte, key, val []byte, ver uint64, n int, err error) {
	hdr, err := r.Peek(min(maxHeader, r.Size()))
	if len(hdr) == 0 {
		return 0, nil, nil, 0, 0, err
	}
	typ = hdr[0]
	switch typ {
	case recPut, recRemove, recAppend, recPutV, recRemoveV, recAppendV:
	default:
		return 0, nil, nil, 0, 0, errBadRecord
	}
	n = 1
	var fields [3]uint64
	nf := 2
	if typ >= recPutV { // a versioned variant
		nf = 3
	}
	for i := range nf {
		v, m := binary.Uvarint(hdr[n:])
		if m == 0 {
			return 0, nil, nil, 0, 0, io.ErrUnexpectedEOF
		}
		if m < 0 {
			return 0, nil, nil, 0, 0, errBadRecord
		}
		fields[i] = v
		n += m
	}
	klen, vlen, ver := fields[0], fields[1], fields[2]
	if klen > 1<<20 || vlen > 1<<30 {
		return 0, nil, nil, 0, 0, errBadRecord
	}
	total := int64(n) + int64(klen) + int64(vlen) + 4
	if total > limit {
		return 0, nil, nil, 0, 0, io.ErrUnexpectedEOF
	}
	rec := make([]byte, total)
	if _, err := io.ReadFull(r, rec); err != nil {
		return 0, nil, nil, 0, 0, err
	}
	end := total - 4
	if binary.LittleEndian.Uint32(rec[end:]) != crc32.ChecksumIEEE(rec[:end]) {
		return 0, nil, nil, 0, 0, errBadRecord
	}
	voff := int64(n) + int64(klen)
	return typ, rec[n:voff], rec[voff:end:end], ver, int(total), nil
}

// encodeRecord appends one log record to dst, returning the grown
// slice and the index in it where the value starts. A non-zero ver
// upgrades the type to its versioned variant (recordType) carrying the
// stamp.
func encodeRecord(dst []byte, typ byte, key string, val []byte, ver uint64) ([]byte, int) {
	start := len(dst)
	dst = append(dst, recordType(typ, ver))
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	if ver > 0 {
		dst = binary.AppendUvarint(dst, ver)
	}
	dst = append(dst, key...)
	voff := len(dst)
	dst = append(dst, val...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), voff
}

// recordSize returns the encoded size of a record with the given key,
// value length, and version (used for dead-byte accounting); a
// non-zero version adds the versioned variant's stamp uvarint.
func recordSize(key string, vlen int64, ver uint64) int64 {
	n := 1 + int64(uvarintLen(uint64(len(key)))) + int64(uvarintLen(uint64(vlen))) +
		int64(len(key)) + vlen + 4
	if ver > 0 {
		n += int64(uvarintLen(ver))
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

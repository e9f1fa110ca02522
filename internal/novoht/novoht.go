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
//   - a configurable bound on the number of values held in memory
//     ("specifying a size to control memory footprint"): past the
//     bound, cold values are evicted to their on-disk image and read
//     back on demand;
//   - a fourth basic operation, Append, that concatenates to an
//     existing value under a local lock, enabling ZHT's lock-free
//     concurrent key/value modification.
//
// Two structural choices serve concurrency. The in-memory table is
// split into power-of-two lock shards, so operations on different
// keys — including the disk read that faults an evicted value back
// in — proceed in parallel instead of serializing on one store-wide
// RWMutex. And the log is a group-commit write-ahead log (wal.go)
// with no goroutine of its own: the caller that finds records pending
// and nobody committing writes them as one batch with one write and,
// per storage.Durability mode, one fsync. Many stores can share one
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
// shard critical section it already holds. Entries cache the FNV state
// of their pair, so no mutation reads a pre-image to hash it and an
// Append hashes only its delta.
//
// A Store is safe for concurrent use by multiple goroutines.
package novoht

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
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
	// Shards is the lock-shard count for the in-memory table,
	// rounded up to a power of two (0 = DefaultShards).
	Shards int
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
	// MaxMemValues bounds how many values each store keeps resident
	// in memory; 0 means unbounded. Keys always stay resident.
	// Requires persistence (a Path and a Durability other than None).
	MaxMemValues int
	// SyncOnCompact fsyncs the log's new file before a clean drops the
	// old one. Group and sync durability modes always do.
	SyncOnCompact bool
	// Fault, when non-nil, injects storage-level crash faults into
	// the WAL (see storage.Fault and internal/chaos); production
	// stores leave it nil.
	Fault storage.Fault
	// Metrics, when non-nil, receives per-operation latency
	// histograms (zht.novoht.{get,put,append}.latency_ns),
	// eviction/compaction counters, and the WAL's
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
	DefaultShards       = 16
	// DefaultGroupWindow trades ~0.5ms of commit latency for batching:
	// wide enough for a closed loop of clients to resubmit after an
	// ack (a scheduler pass plus a loopback round trip), narrow
	// enough to stay well under a typical storage fsync budget.
	DefaultGroupWindow = 500 * time.Microsecond
)

// Store is a NoVoHT hash table. It implements storage.KV.
type Store struct {
	opts    Options
	shards  []*shard
	mask    uint32
	log     *Log
	wal     *wal // the log's WAL; nil for a volatile store
	ownsLog bool // opened by Open: closing the store closes its log

	resident atomic.Int64 // values currently held in memory
	closed   atomic.Bool

	// leaves is the maintained repair digest: leaf l is the XOR of
	// storage.PairHashV over every live pair whose key is in leaf l.
	// A key's toggles are ordered by its shard lock; the CAS in toggle
	// orders them against keys of other shards sharing the leaf.
	leaves [storage.Leaves]atomic.Uint64

	// evictCursor rotates the shard eviction starts so no shard's
	// values are systematically the first to be spilled.
	evictCursor atomic.Uint32

	// Instruments resolved once at Open; all nil when metrics are
	// disabled.
	getLat       *metrics.Histogram // zht.novoht.get.latency_ns
	putLat       *metrics.Histogram // zht.novoht.put.latency_ns
	appendLat    *metrics.Histogram // zht.novoht.append.latency_ns
	evictions    *metrics.Counter   // zht.novoht.evictions
	evictedLoads *metrics.Counter   // zht.novoht.evicted_loads
}

// shard is one lock stripe of the in-memory table.
type shard struct {
	mu sync.RWMutex
	m  map[string]*entry

	// clock hand for eviction (iteration order is fine: eviction is
	// best-effort cache management, not a correctness property).
	evictKeys []string
	evictPos  int
}

// entry is one key's state. If val is nil and onDisk is true, the
// current value lives at [off, off+vlen) in the log file.
type entry struct {
	val  []byte
	off  int64
	vlen int64
	ver  uint64 // HLC version stamp; 0 = older than any stamped write
	// fh is the pair's digest hash state before the version is sealed
	// in: storage.FNV over storage.PairPrefix(key) and the value. It
	// stays valid while the value is evicted.
	fh     uint64
	onDisk bool // an up-to-date contiguous image exists on disk
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

// testSlowLoad, when non-nil, runs inside loadEvicted with the owning
// shard's lock held; the eviction-isolation regression test uses it
// to make one shard's disk read observably slow.
var testSlowLoad func()

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
	nShards := l.opts.Shards
	if nShards <= 0 {
		nShards = DefaultShards
	}
	for nShards&(nShards-1) != 0 {
		nShards++
	}
	s := &Store{opts: l.opts, shards: make([]*shard, nShards), mask: uint32(nShards - 1), log: l, wal: l.wal}
	for i := range s.shards {
		s.shards[i] = &shard{m: make(map[string]*entry)}
	}
	if reg := l.opts.Metrics; reg != nil {
		s.getLat = reg.Histogram("zht.novoht.get.latency_ns")
		s.putLat = reg.Histogram("zht.novoht.put.latency_ns")
		s.appendLat = reg.Histogram("zht.novoht.append.latency_ns")
		s.evictions = reg.Counter("zht.novoht.evictions")
		s.evictedLoads = reg.Counter("zht.novoht.evicted_loads")
	}
	return s
}

// shardOf returns the lock shard owning key (FNV-1a); a one-shard
// store skips the hash.
func (s *Store) shardOf(key string) *shard {
	if s.mask == 0 {
		return s.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return s.shards[h&s.mask]
}

// toggle XORs x into key's digest leaf.
func (s *Store) toggle(key string, x uint64) {
	l := &s.leaves[storage.LeafOf(key)]
	for {
		old := l.Load()
		if l.CompareAndSwap(old, old^x) {
			return
		}
	}
}

// DigestLeaves returns a copy of the store's repair digest leaves.
func (s *Store) DigestLeaves() []uint64 {
	out := make([]uint64, storage.Leaves)
	for i := range out {
		out[i] = s.leaves[i].Load()
	}
	return out
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
	sh := s.shardOf(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	end, err := s.putShardLocked(sh, key, val, ver)
	sh.mu.Unlock()
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
	sh := s.shardOf(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return false, ErrClosed
	}
	if e, ok := sh.m[key]; ok && e.ver >= ver {
		sh.mu.Unlock()
		return false, nil
	}
	end, err := s.putShardLocked(sh, key, val, ver)
	sh.mu.Unlock()
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

// putShardLocked applies a Put under sh's lock: the record is
// submitted to the WAL (offsets assigned in submission order, which
// the shard lock makes per-key order) and the in-memory entry
// updated along with the digest. It returns the log offset the caller
// must wait durable, or storage.ErrStale when the stored version is
// at least ver (stale).
func (s *Store) putShardLocked(sh *shard, key string, val []byte, ver uint64) (int64, error) {
	old, ok := sh.m[key]
	if stale(old, ok, ver) {
		return 0, storage.ErrStale
	}
	voff, end, err := s.appendRecord(recPut, key, val, ver)
	if err != nil {
		return 0, err
	}
	fh := storage.FNV(storage.PairPrefix(key), val)
	x := storage.PairSeal(fh, ver)
	if ok {
		x ^= storage.PairSeal(old.fh, old.ver)
		s.superseded(old, recordSize(key, old.vlen, old.ver))
		if old.val == nil && old.onDisk {
			s.resident.Add(1) // evicted entry becomes resident again
		}
		old.val = append(old.val[:0], val...)
		old.off, old.vlen, old.ver, old.fh, old.onDisk = voff, int64(len(val)), ver, fh, s.wal != nil
	} else {
		sh.m[key] = &entry{
			val: append([]byte(nil), val...), off: voff,
			vlen: int64(len(val)), ver: ver, fh: fh, onDisk: s.wal != nil,
		}
		s.resident.Add(1)
	}
	s.toggle(key, x)
	s.counted()
	return end, nil
}

// superseded counts the n bytes of the record holding e's current
// image as dead.
func (s *Store) superseded(e *entry, n int64) {
	if s.wal != nil {
		s.log.supersede(e, n, s.wal.base.Load())
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
// storage.ErrStale because the present entry e is at least as new, so
// a key's stamps rise in log order. Version 0 applies unconditionally.
func stale(e *entry, ok bool, ver uint64) bool { return ok && ver > 0 && e.ver >= ver }

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

// finishMutation runs the post-apply policy with no shard lock held:
// enforce the memory bound and, on a store that owns its log (Open),
// commit the record, which ends at log offset end. A store of a shared
// Log leaves its record staged for the caller's Log.Commit.
func (s *Store) finishMutation(end int64) error {
	if s.opts.MaxMemValues > 0 && s.resident.Load() > int64(s.opts.MaxMemValues) {
		if err := s.evictToBound(); err != nil {
			return err
		}
	}
	if s.wal == nil || !s.ownsLog {
		return nil
	}
	return s.log.commit(end)
}

// PutIfAbsentV stores (val, ver) only when key is not present; it
// reports whether the store was modified.
func (s *Store) PutIfAbsentV(key string, val []byte, ver uint64) (bool, error) {
	defer s.timeOp(s.putLat)()
	sh := s.shardOf(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return false, ErrClosed
	}
	if _, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		return false, nil
	}
	end, err := s.putShardLocked(sh, key, val, ver)
	sh.mu.Unlock()
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
// the shard's read lock, so a hot read path costs one copy into a
// caller-owned scratch buffer and zero allocations, and returns the
// stored version stamp. On a miss or error dst is returned unmodified.
func (s *Store) GetAppendV(dst []byte, key string) ([]byte, uint64, bool, error) {
	defer s.timeOp(s.getLat)()
	sh := s.shardOf(key)
	sh.mu.RLock()
	e, ok := sh.m[key]
	if !ok {
		sh.mu.RUnlock()
		return dst, 0, false, nil
	}
	if e.val != nil || e.vlen == 0 {
		dst = append(dst, e.val...)
		ver := e.ver
		sh.mu.RUnlock()
		return dst, ver, true, nil
	}
	sh.mu.RUnlock()
	// Evicted: fault the value in exactly like Get.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.closed.Load() {
		return dst, 0, false, ErrClosed
	}
	e, ok = sh.m[key]
	if !ok {
		return dst, 0, false, nil
	}
	if e.val == nil && e.vlen > 0 {
		if err := s.loadEvicted(e); err != nil {
			return dst, 0, false, err
		}
	}
	return append(dst, e.val...), e.ver, true, nil
}

// loadEvicted reads an evicted entry's value back from the log; the
// owning shard's lock must be held.
func (s *Store) loadEvicted(e *entry) error {
	if testSlowLoad != nil {
		testSlowLoad()
	}
	buf := make([]byte, e.vlen)
	if err := s.wal.readAt(buf, e.off); err != nil {
		return err
	}
	e.val = buf
	s.resident.Add(1)
	s.evictedLoads.Inc()
	return nil
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
	sh := s.shardOf(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return false, ErrClosed
	}
	e, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		return false, nil
	}
	if lww && e.ver >= ver {
		sh.mu.Unlock()
		return false, nil
	}
	if stale(e, ok, ver) {
		sh.mu.Unlock()
		return false, storage.ErrStale
	}
	_, end, err := s.appendRecord(recRemove, key, nil, ver)
	if err != nil {
		sh.mu.Unlock()
		return false, err
	}
	if s.wal != nil {
		s.log.deadBytes.Add(recordSize(key, 0, ver))
	}
	s.superseded(e, recordSize(key, e.vlen, e.ver))
	if e.val != nil || e.vlen == 0 {
		s.resident.Add(-1)
	}
	delete(sh.m, key)
	s.toggle(key, storage.PairSeal(e.fh, e.ver))
	s.counted()
	sh.mu.Unlock()
	return true, s.finishMutation(end)
}

// AppendV concatenates delta to the value stored under key, creating
// the key when absent, and stamps the pair with ver (version 0 leaves
// the stamp as it was, as a pre-versioning append record replays; a
// non-zero ver at or below the stored version is refused with
// storage.ErrStale). It logs only the delta, as one record, and holds
// only the key's shard lock: the operation FusionFS uses for lock-free
// concurrent directory updates.
// When dst is non-nil the accumulated value is appended to it and
// returned (a replica leg carries the whole value); a nil dst copies
// nothing.
func (s *Store) AppendV(dst []byte, key string, delta []byte, ver uint64) ([]byte, error) {
	defer s.timeOp(s.appendLat)()
	sh := s.shardOf(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return dst, ErrClosed
	}
	e, ok := sh.m[key]
	if stale(e, ok, ver) {
		sh.mu.Unlock()
		return dst, storage.ErrStale
	}
	if ok && e.val == nil && e.vlen > 0 {
		if err := s.loadEvicted(e); err != nil {
			sh.mu.Unlock()
			return dst, err
		}
	}
	_, end, err := s.appendRecord(recAppend, key, delta, ver)
	if err != nil {
		sh.mu.Unlock()
		return dst, err
	}
	var x uint64
	if ok {
		x = storage.PairSeal(e.fh, e.ver)
	} else {
		e = &entry{fh: storage.PairPrefix(key)}
		sh.m[key] = e
		s.resident.Add(1)
	}
	// Append records never supersede earlier log bytes (replay needs
	// the whole chain), so no bytes die until the next clean.
	e.val = append(e.val, delta...)
	e.vlen = int64(len(e.val))
	if ver > 0 {
		e.ver = ver
	}
	e.onDisk = false
	// The value is the last input of the pair hash, so the digest
	// continues over just the delta.
	e.fh = storage.FNV(e.fh, delta)
	s.toggle(key, x^storage.PairSeal(e.fh, e.ver))
	s.counted()
	if dst != nil {
		dst = append(dst, e.val...)
	}
	sh.mu.Unlock()
	return dst, s.finishMutation(end)
}

// CasV atomically replaces the value under key with (newVal, ver)
// when the current value equals oldVal. A nil oldVal means "expect
// absent". It returns the value observed when the swap fails, and
// storage.ErrStale when it would swap but a non-zero ver is at or
// below the stored version.
func (s *Store) CasV(key string, oldVal, newVal []byte, ver uint64) (bool, []byte, error) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return false, nil, ErrClosed
	}
	e, ok := sh.m[key]
	if ok && e.val == nil && e.vlen > 0 {
		if err := s.loadEvicted(e); err != nil {
			sh.mu.Unlock()
			return false, nil, err
		}
	}
	switch {
	case !ok && oldVal != nil:
		sh.mu.Unlock()
		return false, nil, nil
	case ok && (oldVal == nil || string(e.val) != string(oldVal)):
		v := append([]byte(nil), e.val...)
		sh.mu.Unlock()
		return false, v, nil
	}
	end, err := s.putShardLocked(sh, key, newVal, ver)
	sh.mu.Unlock()
	if err != nil {
		return false, nil, err
	}
	return true, nil, s.finishMutation(end)
}

// Len reports the number of keys stored.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// lockAll acquires every shard lock in index order (the store-wide
// stop-the-world used by ForEach and Close).
func (s *Store) lockAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// ForEachV calls fn for every pair with its version stamp; fn must
// not mutate the store. The value passed to fn for evicted entries is
// loaded from disk. The whole store is locked for the duration, so the
// iteration is a consistent snapshot (a leaf-stream transfer depends
// on this).
func (s *Store) ForEachV(fn func(key string, val []byte, ver uint64) error) error {
	s.lockAll()
	defer s.unlockAll()
	if s.closed.Load() {
		return ErrClosed
	}
	for _, sh := range s.shards {
		for k, e := range sh.m {
			v := e.val
			if v == nil && e.vlen > 0 {
				if err := s.loadEvicted(e); err != nil {
					return err
				}
				v = e.val
			}
			if err := fn(k, v, e.ver); err != nil {
				return err
			}
		}
	}
	return nil
}

// evictToBound spills resident values until the memory bound is met,
// visiting each shard at most once per call (a shard whose remaining
// values are unevictable — empty values keep their slot — is skipped
// rather than rescanned forever). The rotating cursor spreads the
// spill across shards.
func (s *Store) evictToBound() error {
	n := uint32(len(s.shards))
	start := s.evictCursor.Add(1)
	bound := int64(s.opts.MaxMemValues)
	for i := uint32(0); i < n && s.resident.Load() > bound; i++ {
		sh := s.shards[(start+i)&s.mask]
		sh.mu.Lock()
		if s.closed.Load() {
			sh.mu.Unlock()
			return ErrClosed
		}
		err := s.evictShardLocked(sh, bound)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// evictShardLocked advances sh's clock hand, spilling values whose
// latest image is contiguous on disk; values mutated by Append since
// their last full write are first rewritten so an image exists.
func (s *Store) evictShardLocked(sh *shard, bound int64) error {
	if len(sh.evictKeys) == 0 || sh.evictPos >= len(sh.evictKeys) {
		sh.evictKeys = sh.evictKeys[:0]
		for k := range sh.m {
			sh.evictKeys = append(sh.evictKeys, k)
		}
		sh.evictPos = 0
	}
	for s.resident.Load() > bound && sh.evictPos < len(sh.evictKeys) {
		k := sh.evictKeys[sh.evictPos]
		sh.evictPos++
		e, ok := sh.m[k]
		if !ok || e.val == nil {
			continue
		}
		if !e.onDisk {
			// Rewrite the full value so a contiguous image exists,
			// preserving the entry's version stamp.
			voff, _, err := s.appendRecord(recPut, k, e.val, e.ver)
			if err != nil {
				return err
			}
			e.off, e.onDisk = voff, true
		}
		if e.vlen == 0 {
			continue // nothing to reclaim; keep resident
		}
		e.val = nil
		s.resident.Add(-1)
		s.evictions.Inc()
	}
	return nil
}

// Compact cleans the log synchronously: its live records are copied
// out of the part written before the call, which is then dropped,
// reclaiming dead space. This is the periodic checkpoint + GC the
// paper describes. It locks one shard at a time, never the log.
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

// markClosed refuses every later call. It takes every shard lock, so
// no mutation is left between its closed check and its log append.
func (s *Store) markClosed() {
	s.lockAll()
	s.closed.Store(true)
	s.unlockAll()
}

// Stats returns a snapshot of store statistics (storage.Stats).
func (s *Store) Stats() storage.Stats {
	keys := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		keys += len(sh.m)
		sh.mu.RUnlock()
	}
	st := storage.Stats{
		Keys:       keys,
		Resident:   int(s.resident.Load()),
		Persistent: s.wal != nil,
		Shards:     len(s.shards),
	}
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

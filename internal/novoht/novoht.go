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
//     appended to a log; compaction periodically rewrites the log with
//     only live records (reclaiming space — the paper's "garbage
//     collection"), which doubles as the checkpoint;
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
// and nobody committing writes them as one batch with, per
// storage.Durability mode, one fsync, and each mutation is
// acknowledged only once its record's durability level is met.
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
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/metrics"
	"zht/internal/storage"
)

// Options configures a Store.
type Options struct {
	// Path is the log file. Empty means a volatile, memory-only
	// store (the paper's "NoVoHT no persistence" configuration).
	Path string
	// Durability selects how much WAL durability a mutation must
	// reach before it is acknowledged. The zero value is
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
	// CompactEvery triggers log compaction after this many mutations
	// (0 = use DefaultCompactEvery; negative = never auto-compact).
	CompactEvery int
	// GCRatio triggers compaction when dead log bytes exceed this
	// fraction of the log (0 = use DefaultGCRatio).
	GCRatio float64
	// MaxMemValues bounds how many values stay resident in memory;
	// 0 means unbounded. Keys always stay resident. Requires
	// persistence (a Path and a Durability other than None).
	MaxMemValues int
	// SyncOnCompact fsyncs the rewritten log during compaction.
	// Group and sync durability modes always do.
	SyncOnCompact bool
	// Fault, when non-nil, injects storage-level crash faults into
	// the WAL (see storage.Fault and internal/chaos); production
	// stores leave it nil.
	Fault storage.Fault
	// Metrics, when non-nil, receives per-operation latency
	// histograms (zht.novoht.{get,put,append}.latency_ns),
	// eviction/compaction counters, and the WAL's
	// zht.storage.wal.{commits,batch.size,fsync_ns} instruments.
	// Stores sharing a registry (e.g. all partitions of one
	// instance) aggregate into the same instruments. Nil disables
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
	opts   Options
	shards []*shard
	mask   uint32
	wal    *wal // nil for a volatile store

	resident  atomic.Int64 // values currently held in memory
	deadBytes atomic.Int64 // log bytes belonging to superseded records
	mutations atomic.Int64 // mutations since last compaction
	closed    atomic.Bool

	// leaves is the maintained repair digest: leaf l is the XOR of
	// storage.PairHashV over every live pair whose key is in leaf l.
	// A key's toggles are ordered by its shard lock; the CAS in toggle
	// orders them against keys of other shards sharing the leaf.
	leaves [storage.Leaves]atomic.Uint64

	// compactMu serializes compaction and Sync against each other
	// (both touch the log file as a whole) and lets auto-compaction
	// be single-flight.
	compactMu sync.Mutex
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
	compactions  *metrics.Counter   // zht.novoht.compactions
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

// Open creates or recovers a store. If opts.Path exists, its log is
// replayed; a torn final record (from a crash mid-write) is truncated
// away, recovering the longest consistent prefix.
func Open(opts Options) (*Store, error) {
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
	if opts.MaxMemValues > 0 && opts.Path == "" {
		return nil, errors.New("novoht: MaxMemValues requires a persistent log")
	}
	nShards := opts.Shards
	if nShards <= 0 {
		nShards = DefaultShards
	}
	for nShards&(nShards-1) != 0 {
		nShards++
	}
	s := &Store{opts: opts, shards: make([]*shard, nShards), mask: uint32(nShards - 1)}
	for i := range s.shards {
		s.shards[i] = &shard{m: make(map[string]*entry)}
	}
	if reg := opts.Metrics; reg != nil {
		s.getLat = reg.Histogram("zht.novoht.get.latency_ns")
		s.putLat = reg.Histogram("zht.novoht.put.latency_ns")
		s.appendLat = reg.Histogram("zht.novoht.append.latency_ns")
		s.evictions = reg.Counter("zht.novoht.evictions")
		s.evictedLoads = reg.Counter("zht.novoht.evicted_loads")
		s.compactions = reg.Counter("zht.novoht.compactions")
	}
	if opts.Path == "" {
		return s, nil
	}
	f, err := os.OpenFile(opts.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("novoht: open log: %w", err)
	}
	logSize, err := s.replay(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(logSize, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("novoht: seek log end: %w", err)
	}
	if err := f.Truncate(logSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("novoht: truncate torn tail: %w", err)
	}
	s.wal = newWAL(f, logSize, opts.Durability, opts.GroupWindow, opts.Fault, opts.Metrics)
	return s, nil
}

// shardOf returns the lock shard owning key (FNV-1a).
func (s *Store) shardOf(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return s.shards[h&s.mask]
}

// replay loads the log into the shards, stopping at the first corrupt
// or torn record; it returns the consistent prefix length. The read
// buffer is sized to the log, capped at 1 MiB, and an empty log reads
// nothing: an instance opens one log per partition, most of them empty
// or small.
func (s *Store) replay(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("novoht: stat log: %w", err)
	}
	if st.Size() == 0 {
		return 0, nil
	}
	r := bufio.NewReaderSize(f, int(min(st.Size(), 1<<20)))
	var off int64
	for {
		rec, key, val, ver, n, err := readRecord(r, st.Size()-off)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, errBadRecord) {
				break // torn tail: keep the consistent prefix
			}
			return 0, err
		}
		sh := s.shardOf(key)
		switch rec {
		case recPut, recPutV:
			if old, ok := sh.m[key]; ok {
				// Crash replay keeps the newest version. The store
				// refuses a stamp older than the stored one
				// (storage.ErrStale), so this skips only records of logs
				// written before that rule, where an older stamp was
				// applied over a newer one.
				if ver > 0 && old.ver > ver {
					s.deadBytes.Add(recordSize(key, int64(len(val)), ver))
					break
				}
				s.deadBytes.Add(recordSize(key, old.vlen, old.ver))
			}
			voff := off + int64(n) - int64(len(val)) - 4
			sh.m[key] = &entry{val: val, off: voff, vlen: int64(len(val)), ver: ver, onDisk: true}
		case recRemove, recRemoveV:
			if old, ok := sh.m[key]; ok {
				if ver > 0 && old.ver > ver {
					s.deadBytes.Add(recordSize(key, 0, ver))
					break
				}
				s.deadBytes.Add(recordSize(key, old.vlen, old.ver) + recordSize(key, 0, ver))
				delete(sh.m, key)
			}
		case recAppend, recAppendV:
			// An append applies unconditionally, as it did live; an
			// unversioned one keeps the pair's stamp, a versioned one
			// replaces it.
			e, ok := sh.m[key]
			if !ok {
				e = &entry{}
				sh.m[key] = e
			}
			e.val = append(e.val, val...)
			e.vlen = int64(len(e.val))
			e.onDisk = false // value no longer contiguous on disk
			if rec == recAppendV {
				e.ver = ver
			}
		}
		off += int64(n)
	}
	// Every replayed value is resident, so the digest is built here in
	// one pass over the live pairs.
	keys := 0
	for _, sh := range s.shards {
		keys += len(sh.m)
		for k, e := range sh.m {
			e.fh = storage.FNV(storage.PairPrefix(k), e.val)
			s.toggle(k, storage.PairSeal(e.fh, e.ver))
		}
	}
	s.resident.Store(int64(keys))
	return off, nil
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
		s.deadBytes.Add(recordSize(key, old.vlen, old.ver))
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
	s.mutations.Add(1)
	return end, nil
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
	typ = recordType(typ, ver)
	// The record is built in a pooled buffer the WAL's committer
	// returns after writing it, and the checksum runs once over the
	// assembled bytes — no per-record hasher or string conversion.
	rec := getRec()
	rec = append(rec, typ)
	rec = binary.AppendUvarint(rec, uint64(len(key)))
	rec = binary.AppendUvarint(rec, uint64(len(val)))
	if ver > 0 {
		rec = binary.AppendUvarint(rec, ver)
	}
	n := len(rec)
	rec = append(rec, key...)
	rec = append(rec, val...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	off, err := s.wal.append(rec)
	if err != nil {
		putRec(rec)
		return 0, 0, err
	}
	return off + int64(n) + int64(len(key)), off + int64(len(rec)), nil
}

// Pooled WAL record buffers. Ownership is linear: appendRecord fills
// one, wal.append queues it, and the committer that takes it returns it
// here once its bytes are on the file (records dropped on a failed WAL
// simply fall to the GC). An async mutation usually commits its own
// record inline, but a group or sync committer writes the records of
// the callers that queued behind it, so a record is still filled on
// one goroutine and often returned on another.
//
// Unlike wire's per-P FreeList this stays a bounded channel. The list
// was chosen when records crossed from request goroutines to per-store
// writer goroutines, where a per-P list measured slower on durable
// writes (DESIGN.md §11); it has not been re-measured since the writers
// were removed. 256 records of at most maxPooledRec bytes each caps
// what the list pins at 16 MiB.
var recFree = make(chan []byte, 256)

const maxPooledRec = 64 << 10

func getRec() []byte {
	select {
	case b := <-recFree:
		return b
	default:
		return make([]byte, 0, 512)
	}
}

func putRec(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledRec {
		return
	}
	select {
	case recFree <- b[:0]:
	default:
	}
}

// finishMutation runs the post-apply policy with no shard lock held:
// enforce the memory bound, wait for the record's durability level,
// and trigger auto-compaction.
func (s *Store) finishMutation(end int64) error {
	if s.opts.MaxMemValues > 0 && s.resident.Load() > int64(s.opts.MaxMemValues) {
		if err := s.evictToBound(); err != nil {
			return err
		}
	}
	if s.wal == nil {
		return nil
	}
	if err := s.wal.waitDurable(end); err != nil {
		return err
	}
	return s.maybeCompact()
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
	s.deadBytes.Add(recordSize(key, e.vlen, e.ver) + recordSize(key, 0, ver))
	if e.val != nil || e.vlen == 0 {
		s.resident.Add(-1)
	}
	delete(sh.m, key)
	s.toggle(key, storage.PairSeal(e.fh, e.ver))
	s.mutations.Add(1)
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
	// the whole chain), so deadBytes is unchanged until compaction.
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
	s.mutations.Add(1)
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
// stop-the-world used by ForEach, compaction, and Close).
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
// iteration is a consistent snapshot (partition export depends on
// this).
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

// maybeCompact runs auto-compaction when the mutation count or
// dead-byte ratio policy asks for it. Single-flight: concurrent
// mutations that all cross the threshold compact once.
func (s *Store) maybeCompact() error {
	if s.wal == nil {
		return nil
	}
	need := false
	if s.opts.CompactEvery > 0 && s.mutations.Load() >= int64(s.opts.CompactEvery) {
		need = true
	}
	size := s.wal.logicalSize()
	if dead := s.deadBytes.Load(); size > 0 && float64(dead)/float64(size) > s.opts.GCRatio && dead > 1<<16 {
		need = true
	}
	if !need {
		return nil
	}
	return s.Compact()
}

// Compact rewrites the log to contain exactly one Put record per live
// key, reclaiming dead space; this is the periodic checkpoint + GC the
// paper describes. The WAL is quiesced (drained, no appender can run)
// for the duration: compaction holds every shard lock.
func (s *Store) Compact() error {
	if s.wal == nil {
		if s.closed.Load() {
			return ErrClosed
		}
		return ErrNoPersistence
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.lockAll()
	defer s.unlockAll()
	if s.closed.Load() {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	// Quiesce: every shard lock is held, so no new record can be
	// submitted; drain what is already in flight.
	if err := s.wal.flushTo(s.wal.logicalSize()); err != nil {
		return err
	}
	tmpPath := s.opts.Path + ".compact"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("novoht: compact: %w", err)
	}
	defer os.Remove(tmpPath)
	bw := bufio.NewWriterSize(tmp, 1<<20)

	type relocation struct {
		e   *entry
		off int64
	}
	var relocs []relocation
	var newSize int64
	for _, sh := range s.shards {
		for k, e := range sh.m {
			v := e.val
			if v == nil && e.vlen > 0 {
				buf := make([]byte, e.vlen)
				if err := s.wal.readAt(buf, e.off); err != nil {
					tmp.Close()
					return fmt.Errorf("novoht: compact read: %w", err)
				}
				v = buf
			}
			n, voff, err := writeRecordTo(bw, newSize, recPut, k, v, e.ver)
			if err != nil {
				tmp.Close()
				return err
			}
			relocs = append(relocs, relocation{e, voff})
			newSize += n
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if s.opts.SyncOnCompact || s.opts.Durability == storage.DurabilityGroup || s.opts.Durability == storage.DurabilitySync {
		// The crash-recovery contract: records acknowledged durable
		// must stay durable across the checkpoint rewrite.
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, s.opts.Path); err != nil {
		return fmt.Errorf("novoht: compact rename: %w", err)
	}
	old := s.wal.f
	f, err := os.OpenFile(s.opts.Path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("novoht: reopen after compact: %w", err)
	}
	old.Close()
	if _, err := f.Seek(newSize, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	s.wal.swapFile(f, newSize)
	for _, r := range relocs {
		r.e.off = r.off
		r.e.onDisk = true
	}
	s.deadBytes.Store(0)
	s.mutations.Store(0)
	s.compactions.Inc()
	return nil
}

// Sync flushes buffered log data and fsyncs the file.
func (s *Store) Sync() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.wal == nil {
		return nil
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.wal.syncAll()
}

// Close drains and fsyncs the WAL, then closes the store: a clean
// shutdown never loses an acknowledged write of any durability mode.
// The store is unusable afterwards.
func (s *Store) Close() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.lockAll()
	defer s.unlockAll()
	if s.closed.Swap(true) {
		return nil
	}
	if s.wal == nil {
		return nil
	}
	return s.wal.close()
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
		DeadBytes:  s.deadBytes.Load(),
		Mutations:  int(s.mutations.Load()),
		Persistent: s.wal != nil,
		Shards:     len(s.shards),
	}
	if s.wal != nil {
		st.LogBytes = s.wal.logicalSize()
	}
	return st
}

var errBadRecord = errors.New("novoht: bad record checksum")

// readRecord reads one log record of at most limit bytes, returning its
// type, key, value, version stamp (0 for unversioned types) and total
// encoded size. A header claiming more bytes than limit is a torn
// record, rejected before anything is allocated for it.
func readRecord(r *bufio.Reader, limit int64) (typ byte, key string, val []byte, ver uint64, n int, err error) {
	crc := crc32.NewIEEE()
	typ, err = r.ReadByte()
	if err != nil {
		return 0, "", nil, 0, 0, err
	}
	crc.Write([]byte{typ})
	n = 1
	switch typ {
	case recPut, recRemove, recAppend, recPutV, recRemoveV, recAppendV:
	default:
		return 0, "", nil, 0, 0, errBadRecord
	}
	klen, kn, err := readUvarintCRC(r, crc)
	if err != nil {
		return 0, "", nil, 0, 0, err
	}
	n += kn
	vlen, vn, err := readUvarintCRC(r, crc)
	if err != nil {
		return 0, "", nil, 0, 0, err
	}
	n += vn
	if typ >= recPutV { // a versioned variant
		var rn int
		if ver, rn, err = readUvarintCRC(r, crc); err != nil {
			return 0, "", nil, 0, 0, err
		}
		n += rn
	}
	if klen > 1<<20 || vlen > 1<<30 {
		return 0, "", nil, 0, 0, errBadRecord
	}
	if int64(n)+int64(klen)+int64(vlen)+4 > limit {
		return 0, "", nil, 0, 0, io.ErrUnexpectedEOF
	}
	kb := make([]byte, klen)
	if _, err := io.ReadFull(r, kb); err != nil {
		return 0, "", nil, 0, 0, err
	}
	crc.Write(kb)
	n += int(klen)
	val = make([]byte, vlen)
	if _, err := io.ReadFull(r, val); err != nil {
		return 0, "", nil, 0, 0, err
	}
	crc.Write(val)
	n += int(vlen)
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return 0, "", nil, 0, 0, err
	}
	n += 4
	if binary.LittleEndian.Uint32(sum[:]) != crc.Sum32() {
		return 0, "", nil, 0, 0, errBadRecord
	}
	return typ, string(kb), val, ver, n, nil
}

func readUvarintCRC(r *bufio.Reader, crc io.Writer) (uint64, int, error) {
	var v uint64
	var shift, n int
	for {
		b, err := r.ReadByte()
		if err != nil {
			return 0, n, err
		}
		crc.Write([]byte{b})
		n++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, n, nil
		}
		shift += 7
		if shift > 63 {
			return 0, n, errBadRecord
		}
	}
}

// writeRecordTo writes a record at logical offset base to w, returning
// the record length and the value offset. As in appendRecord, a
// non-zero ver upgrades the type to its versioned variant.
func writeRecordTo(w io.Writer, base int64, typ byte, key string, val []byte, ver uint64) (int64, int64, error) {
	var hdr [1 + 3*binary.MaxVarintLen64]byte
	hdr[0] = recordType(typ, ver)
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(len(key)))
	n += binary.PutUvarint(hdr[n:], uint64(len(val)))
	if ver > 0 {
		n += binary.PutUvarint(hdr[n:], ver)
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[:n])
	crc.Write([]byte(key))
	crc.Write(val)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	for _, chunk := range [][]byte{hdr[:n], []byte(key), val, sum[:]} {
		if _, err := w.Write(chunk); err != nil {
			return 0, 0, fmt.Errorf("novoht: compact write: %w", err)
		}
	}
	total := int64(n) + int64(len(key)) + int64(len(val)) + 4
	voff := base + int64(n) + int64(len(key))
	return total, voff, nil
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

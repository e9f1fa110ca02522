// Package storage defines the pluggable storage-engine boundary of a
// ZHT instance: the KV interface every partition store implements,
// the durability modes a write-ahead log can offer, the
// engine-agnostic partition snapshot format used by data migration,
// and the pair/leaf hashes of the repair digest every store maintains.
//
// The paper treats the per-partition store as a swappable component —
// NoVoHT is "the default storage", with BerkeleyDB and KyotoCabinet
// evaluated as alternatives (§III.I, Figure 6) — but the seed
// implementation hard-wired consumers to the concrete NoVoHT type.
// This package is the seam: internal/core, internal/figures, and the
// baselines consume only KV, so replication and durability policy can
// change without touching the routing layer.
//
// Durability levels follow the classic group-commit design, with the
// callers themselves as the log writer: the caller that finds records
// pending and nobody committing writes every pending record as one
// batch and (per mode) issues one fsync. The unit of acknowledgement
// is the request: a request stages the records of all of its
// mutations — one op, an envelope of sub-ops or replica legs, a
// leaf-stream chunk — and commits them once, and it
// is acknowledged only once every one of them meets its durability
// level.
package storage

import (
	"errors"
	"fmt"
)

// KV is one partition store. Implementations must be safe for
// concurrent use by multiple goroutines.
//
// Every mutation carries a version stamp: an opaque uint64 ordered by
// numeric comparison (internal/core stamps them from a hybrid logical
// clock). Replicas resolve concurrent writes last-writer-wins on the
// version, and quorum reads compare versions across copies. Version 0
// means "older than any stamped write": it is what pairs logged before
// versioning replay with, and what Put writes.
//
// A key's stamps rise in the order its writes apply: PutV,
// PutIfAbsentV, AppendV, CasV and RemoveV given a non-zero ver apply
// nothing and return ErrStale when the key holds a version at least as
// new. So crash replay, which keeps the newest version, rebuilds
// exactly the live store, and a sweep that removes "the copy it saw"
// by stamping just above it cannot remove a later write.
type KV interface {
	// Put stores val under key at version 0, replacing any existing
	// value. It serves stores used outside an instance (benchmarks,
	// figures); an instance stamps every write.
	Put(key string, val []byte) error
	// Get returns a copy of the value stored under key.
	Get(key string) ([]byte, bool, error)
	// GetAppendV appends the value stored under key to dst (caller
	// scratch) instead of allocating a copy, and returns it — possibly
	// grown — with the stored version. On a miss or error dst is
	// returned unmodified.
	GetAppendV(dst []byte, key string) (val []byte, ver uint64, found bool, err error)
	// PutV stores val under key with the given version, replacing any
	// existing value and older version.
	PutV(key string, val []byte, ver uint64) error
	// PutIfAbsentV stores (val, ver) only when key is not present; it
	// reports whether the store was modified.
	PutIfAbsentV(key string, val []byte, ver uint64) (bool, error)
	// AppendV concatenates delta to the value under key, creating the
	// key when absent (ZHT's fourth basic operation), and stamps the
	// pair with ver; version 0 leaves the stamp as it was. A non-nil
	// dst receives the accumulated value.
	AppendV(dst []byte, key string, delta []byte, ver uint64) ([]byte, error)
	// CasV atomically replaces the value under key with (newVal, ver)
	// when the current value equals oldVal (nil oldVal = "expect
	// absent"). It returns the value observed when the swap fails.
	CasV(key string, oldVal, newVal []byte, ver uint64) (bool, []byte, error)
	// RemoveV deletes key, reporting whether it was present.
	RemoveV(key string, ver uint64) (bool, error)
	// PutLWW stores (val, ver) only when ver is strictly newer than the
	// stored version (a missing key always accepts). It reports
	// whether the store was modified: false means the stored value is
	// at least as new and was kept.
	PutLWW(key string, val []byte, ver uint64) (bool, error)
	// RemoveLWW deletes key only when ver is strictly newer than the
	// stored version, reporting whether the key was removed. Removing
	// an absent key reports false with no error.
	RemoveLWW(key string, ver uint64) (bool, error)
	// ForEachV calls fn for every pair with its version; fn must not
	// mutate the store.
	ForEachV(fn func(key string, val []byte, ver uint64) error) error
	// ForEachLeafV is ForEachV over only the pairs whose digest leaf,
	// LeafOf(key), is in leaves; leaves outside [0, Leaves) select
	// nothing. A leaf-stream chunk reads its leaves this way.
	ForEachLeafV(leaves []int, fn func(key string, val []byte, ver uint64) error) error
	// DigestLeaves returns a copy of the store's repair digest: Leaves
	// words, leaf LeafOf(key) holding the XOR of PairHashV over every
	// stored pair. The store keeps it current on every mutation, so it
	// always equals DigestOf over the contents.
	DigestLeaves() []uint64
	// Len reports the number of keys stored.
	Len() int
	// Sync flushes buffered state and fsyncs backing storage.
	Sync() error
	// Stats returns a snapshot of store statistics.
	Stats() Stats
	// Close flushes durable state and closes the store.
	Close() error
}

// Stats is a point-in-time snapshot of a store's internals.
type Stats struct {
	// Keys is the number of live keys.
	Keys int
	// LogBytes is the length of the log file the store appends to,
	// including superseded records not yet cleaned away. Stores that
	// share a log report the same log.
	LogBytes int64
	// DeadBytes is the portion of LogBytes owned by superseded
	// records (reclaimed by the next clean).
	DeadBytes int64
	// Mutations counts mutations of the log's stores since the last
	// clean.
	Mutations int
	// Persistent reports whether the store is backed by a log file.
	Persistent bool
}

// Durability selects how much of the write-ahead log's durability a
// mutation must reach before it is acknowledged. The zero value is
// Async — the seed store's behavior — so existing configurations are
// unchanged.
type Durability int

const (
	// DurabilityAsync issues no fsync and waits on no other call: the
	// mutation writes its record to the OS itself or, if another call
	// is already committing, leaves it to that call, which writes
	// everything queued before it returns. So once every call on a
	// log has returned, each acknowledged record is in the file and
	// survives a process crash; power loss can lose the tail. This is
	// the mode of the paper's measured ~3µs persistence cost.
	DurabilityAsync Durability = iota
	// DurabilityNone disables persistence entirely: the store is
	// volatile and any configured log path is ignored (the paper's
	// "NoVoHT no persistence" configuration).
	DurabilityNone
	// DurabilityGroup acknowledges a mutation only after its record
	// is fsynced, amortizing each fsync across every record the
	// group-commit batch coalesced.
	DurabilityGroup
	// DurabilitySync acknowledges a mutation only after its record
	// got its own fsync — one fsync per operation, the mode group
	// commit exists to beat.
	DurabilitySync
)

// String returns the flag spelling of d.
func (d Durability) String() string {
	switch d {
	case DurabilityNone:
		return "none"
	case DurabilityAsync:
		return "async"
	case DurabilityGroup:
		return "group"
	case DurabilitySync:
		return "sync"
	}
	return fmt.Sprintf("Durability(%d)", int(d))
}

// ParseDurability parses a -durability flag value.
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "none":
		return DurabilityNone, nil
	case "", "async":
		return DurabilityAsync, nil
	case "group":
		return DurabilityGroup, nil
	case "sync":
		return DurabilitySync, nil
	}
	return 0, fmt.Errorf("storage: unknown durability mode %q (want none, async, group, or sync)", s)
}

// Fault injects storage-level failures for crash-recovery testing
// (see internal/chaos for scripted implementations). A WAL consults
// the hook before touching the file; a returned error marks the WAL
// broken — exactly as if the process died mid-commit — and every
// subsequent or waiting operation fails.
type Fault interface {
	// BeforeWrite is consulted before appending n bytes to the log.
	// It returns how many of those bytes actually reach the file
	// (keep < n models a torn write) and the error to inject; a nil
	// error must return keep == n.
	BeforeWrite(n int) (keep int, err error)
	// BeforeSync is consulted before an fsync; a non-nil error makes
	// the fsync fail (the records it would have hardened stay
	// unacknowledged).
	BeforeSync() error
}

// ErrStale reports a stamped mutation refused because the key holds a
// version at least as new. A writer that drew its stamp before taking
// the store's lock lost a race with a concurrent writer of the key;
// it redraws a stamp and retries.
var ErrStale = errors.New("storage: version stamp is not newer than the stored pair's")

// ErrBroken reports an operation on a store whose WAL failed (a
// crash-injection fault or a real I/O error); the store is read-only
// garbage at that point and must be reopened from its log.
var ErrBroken = errors.New("storage: write-ahead log is broken")

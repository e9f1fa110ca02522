// Package storage holds what ZHT's storage engine, NoVoHT
// (internal/novoht), shares with the code around it: the durability
// modes a write-ahead log can offer, the crash-injection fault hooks,
// the store statistics and errors, the layout of a version stamp and
// the rule that orders a key's stamps (StampAbove), and the pair/leaf
// hashes of the repair digest every store maintains.
//
// The paper makes NoVoHT ZHT's storage (§III.I) and tries BerkeleyDB
// and KyotoCabinet only as Figure 6 comparisons; in this tree those two
// are Figure 6 adapters (internal/baselines) that no instance opens.
// So there is one store type, *novoht.Store, and every consumer in the
// module holds it directly; its methods carry the store contract (the
// version stamp rules, the digest).
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

// KV is the three-method view of a store that the benchmark module's
// storage microbenchmark holds a *novoht.Store as; that benchmark is
// its only user.
type KV interface {
	Put(key string, val []byte) error
	Get(key string) ([]byte, bool, error)
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

// StampNodeBits is how many low bits of a version stamp carry the
// writer's node hash, below Unix milliseconds, so stamps of two nodes
// never tie (DESIGN.md §12).
const StampNodeBits = 16

// Stamp packs ms over the low StampNodeBits of node.
func Stamp(ms, node uint64) uint64 { return ms<<StampNodeBits | node&(1<<StampNodeBits-1) }

// StampAbove returns the stamp an owner's write given ver stores over a
// key whose pair or tombstone holds stored: ver when it is newer, else
// one millisecond above stored with ver's node bits, so a key's stamps
// rise in the order its writes apply, whatever stamp each writer drew.
func StampAbove(stored, ver uint64) uint64 {
	if ver > stored {
		return ver
	}
	return Stamp(stored>>StampNodeBits+1, ver)
}

// ErrBroken reports an operation on a store whose WAL failed (a
// crash-injection fault or a real I/O error); the store is read-only
// garbage at that point and must be reopened from its log.
var ErrBroken = errors.New("storage: write-ahead log is broken")

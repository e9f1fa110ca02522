// Package core implements ZHT proper: the zero-hop distributed hash
// table's instance server, client, and manager (paper §III).
//
// An Instance serves a set of partitions, each backed by a NoVoHT
// store. A Client holds the full membership table and routes every
// request directly to the owning instance — zero hops — refreshing the
// table lazily when a server reports it stale. The Manager role
// orchestrates membership changes: dynamic joins (with partition
// migration), planned departures, and failure handling with replica
// failover and re-replication.
package core

import (
	"errors"
	"time"

	"zht/internal/hashing"
	"zht/internal/metrics"
	"zht/internal/storage"
	"zht/internal/wire"
)

// Config holds deployment-wide parameters shared by every instance
// and client.
type Config struct {
	// NumPartitions is n, the fixed partition count — also the
	// ceiling on deployment size (§III.B). It never changes after
	// bootstrap.
	NumPartitions int
	// Replicas is the number of replicas per partition in addition
	// to the primary. The first replica is updated synchronously,
	// the rest asynchronously (§III.J).
	Replicas int
	// WriteLevel is the default write consistency: how many copies
	// (primary + replicas) must acknowledge a mutation before the
	// client sees success (DESIGN.md §12). Zero (ConsistencyDefault)
	// means Quorum; All updates every replica synchronously. Clients
	// and instances resolve per-request overrides against this default.
	WriteLevel wire.Consistency
	// HashName selects the ring hash function (see hashing.ByName);
	// empty selects the default.
	HashName string
	// DataDir, when non-empty, persists every partition store of an
	// instance to one NoVoHT log, DataDir/<instance ID>.log (a DataDir
	// holding the older <instance ID>-pNNNNNN.log files is imported at
	// boot). Empty keeps all partitions in memory (the Blue Gene/P
	// nodes used ramdisks).
	DataDir string
	// Durability selects the write-ahead-log acknowledgement level
	// for every partition store (see storage.Durability). The zero
	// value is async — buffered writes, the seed behavior;
	// storage.DurabilityNone makes every partition volatile even
	// when DataDir is set.
	Durability storage.Durability
	// opRetries is how many times a client retries an unreachable
	// instance (with exponential backoff) before declaring it failed.
	// 0 means DefaultOpRetries. A test hook: no binary sets it.
	opRetries int
	// RetryBase is the first backoff delay; the delay doubles per
	// retry up to retryMax, and each sleep is full-jitter randomized
	// so concurrent clients do not synchronize retry storms.
	// 0 means DefaultRetryBase.
	RetryBase time.Duration
	// retryMax caps the exponential backoff delay. 0 means
	// DefaultRetryMax. A test hook: no binary sets it.
	retryMax time.Duration
	// OpDeadline bounds one client operation end to end: all of its
	// transport retries, table refreshes, redirects, and replica
	// failovers share this single time budget (propagated to servers
	// via wire.Request.Budget) instead of compounding their own
	// timeouts. Past it the operation fails with ErrUnavailable.
	// 0 means DefaultOpDeadline; negative disables the deadline.
	OpDeadline time.Duration
	// AntiEntropy is the period of the instance's replica anti-entropy
	// loop: each tick, every partition this instance replicates is
	// digest-synced against the partition's authority (owner, or first
	// alive replica when the owner is down) and divergent leaf ranges
	// are pulled (DESIGN.md §9). It also gates read-repair on failover
	// reads. 0 disables the loop entirely (the seed behavior):
	// replicas then converge only through write-time legs, hinted
	// handoff, and failure-triggered rebuilds.
	AntiEntropy time.Duration
	// HandoffCap bounds a destination's leg queue once sends to it fail
	// (its hinted-handoff backlog); further entries are dropped (counted
	// by zht.repair.handoff.dropped) and left for anti-entropy to
	// repair. 0 means DefaultHandoffCap; negative discards failed legs.
	HandoffCap int
	// Metrics, when non-nil, receives every client-, instance-, and
	// store-level measurement (latency histograms, retry/shed/breaker
	// counters — see OBSERVABILITY.md for the catalogue). Nil disables
	// metrics at near-zero cost: instruments degrade to nil pointers
	// whose methods no-op.
	Metrics *metrics.Registry
	// Admission, when non-nil, gates every client-facing KV request
	// (single ops and batch sub-ops) before it is served; over-quota
	// requests are shed with wire.StatusBusy plus the hook's
	// RetryAfter hint. Internal traffic (replication legs, replica
	// reads, migration) bypasses it. See AdmissionHook and
	// internal/tenant.
	Admission AdmissionHook
}

// Defaults for Config zero values.
const (
	DefaultOpRetries  = 3
	DefaultRetryBase  = 2 * time.Millisecond
	DefaultRetryMax   = 100 * time.Millisecond
	DefaultOpDeadline = 10 * time.Second
	DefaultHandoffCap = 1024
)

// Fixed tuning, not knobs (tests retune breakers via testBreakerTuning).
const (
	breakerThreshold = 5                      // consecutive transport failures that open a circuit
	breakerCooldown  = 250 * time.Millisecond // an open circuit's wait before one half-open probe
	gossipCooldown   = 25 * time.Millisecond  // least gap between gossip catch-up pulls (DESIGN.md §10)
	migrateRate      = 8 << 20                // migration bytes/s per transfer, so a rebalance cannot starve foreground traffic
)

func (c *Config) fill() error {
	if c.NumPartitions <= 0 {
		return errors.New("core: NumPartitions must be positive")
	}
	if c.Replicas < 0 {
		return errors.New("core: Replicas must be non-negative")
	}
	if c.WriteLevel > wire.ConsistencyAll {
		return errors.New("core: unknown consistency level")
	}
	if c.WriteLevel == wire.ConsistencyDefault {
		c.WriteLevel = wire.ConsistencyQuorum
	}
	if hashing.ByName(c.HashName) == nil {
		return errors.New("core: unknown hash function " + c.HashName)
	}
	if c.opRetries == 0 {
		c.opRetries = DefaultOpRetries
	}
	if c.RetryBase == 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.retryMax == 0 {
		c.retryMax = DefaultRetryMax
	}
	if c.retryMax < c.RetryBase {
		c.retryMax = c.RetryBase
	}
	if c.OpDeadline == 0 {
		c.OpDeadline = DefaultOpDeadline
	}
	if c.HandoffCap == 0 {
		c.HandoffCap = DefaultHandoffCap
	}
	if c.AntiEntropy < 0 {
		c.AntiEntropy = 0
	}
	return nil
}

// hash returns the configured hash function.
func (c *Config) hash() hashing.Func { return hashing.ByName(c.HashName) }

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
	// OpRetries is how many times a client retries an unreachable
	// instance (with exponential backoff) before declaring it failed.
	// 0 means DefaultOpRetries.
	OpRetries int
	// RetryBase is the first backoff delay; the delay doubles per
	// retry up to RetryMax, and each sleep is full-jitter randomized
	// so concurrent clients do not synchronize retry storms.
	// 0 means DefaultRetryBase.
	RetryBase time.Duration
	// RetryMax caps the exponential backoff delay.
	// 0 means DefaultRetryMax.
	RetryMax time.Duration
	// OpDeadline bounds one client operation end to end: all of its
	// transport retries, table refreshes, redirects, and replica
	// failovers share this single time budget (propagated to servers
	// via wire.Request.Budget) instead of compounding their own
	// timeouts. Past it the operation fails with ErrUnavailable.
	// 0 means DefaultOpDeadline; negative disables the deadline.
	OpDeadline time.Duration
	// BreakerThreshold is how many consecutive transport failures to
	// one endpoint trip its circuit breaker; while open, calls to
	// that endpoint fail fast instead of burning OpRetries×RetryBase
	// per operation. 0 means DefaultBreakerThreshold; negative
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before
	// admitting a half-open probe. 0 means DefaultBreakerCooldown.
	BreakerCooldown time.Duration
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
	// GossipCooldown is the minimum interval between gossip catch-up
	// pulls when piggybacked epochs reveal a stale membership table
	// (DESIGN.md §10); gossip is how most of the ring learns of a
	// membership change, so it cannot be turned off. 0 means
	// DefaultGossipCooldown; negative is rejected.
	GossipCooldown time.Duration
	// MigrateRate caps migration streaming throughput per transfer in
	// bytes/second, so a join or departure cannot starve foreground
	// traffic. 0 means DefaultMigrateRate; negative removes the cap.
	MigrateRate int
	// Metrics, when non-nil, receives every client-, instance-, and
	// store-level measurement (latency histograms, retry/shed/breaker
	// counters — see OBSERVABILITY.md for the catalogue). Nil disables
	// metrics at near-zero cost: instruments degrade to nil pointers
	// whose methods no-op.
	Metrics *metrics.Registry
	// NetworkAware orders the bootstrap ring by the endpoints' torus
	// coordinates (Z-order) so that replica traffic — which flows to
	// ring neighbours — stays network-local (§VI future work,
	// implemented).
	NetworkAware bool
	// Admission, when non-nil, gates every client-facing KV request
	// (single ops and batch sub-ops) before it is served; over-quota
	// requests are shed with wire.StatusBusy plus the hook's
	// RetryAfter hint. Internal traffic (replication legs, replica
	// reads, migration) bypasses it. See AdmissionHook and
	// internal/tenant.
	Admission AdmissionHook
	// MaxKeyLen / MaxValueLen bound the payloads the write path
	// accepts (Insert/Append/Cas; Append is checked per-op, not
	// against the accumulated value). Oversized requests are rejected
	// with wire.StatusTooLarge, a terminal verdict. 0 = unbounded,
	// the pre-gateway behavior.
	MaxKeyLen   int
	MaxValueLen int
}

// Defaults for Config zero values.
const (
	DefaultOpRetries        = 3
	DefaultRetryBase        = 2 * time.Millisecond
	DefaultRetryMax         = 100 * time.Millisecond
	DefaultOpDeadline       = 10 * time.Second
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 250 * time.Millisecond
	DefaultHandoffCap       = 1024
	DefaultGossipCooldown   = 25 * time.Millisecond
	DefaultMigrateRate      = 8 << 20 // 8 MiB/s
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
	if c.OpRetries == 0 {
		c.OpRetries = DefaultOpRetries
	}
	if c.RetryBase == 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.RetryMax == 0 {
		c.RetryMax = DefaultRetryMax
	}
	if c.RetryMax < c.RetryBase {
		c.RetryMax = c.RetryBase
	}
	if c.OpDeadline == 0 {
		c.OpDeadline = DefaultOpDeadline
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.HandoffCap == 0 {
		c.HandoffCap = DefaultHandoffCap
	}
	if c.AntiEntropy < 0 {
		c.AntiEntropy = 0
	}
	if c.GossipCooldown < 0 {
		return errors.New("core: GossipCooldown must be non-negative")
	}
	if c.GossipCooldown == 0 {
		c.GossipCooldown = DefaultGossipCooldown
	}
	if c.MigrateRate == 0 {
		c.MigrateRate = DefaultMigrateRate
	}
	if c.MaxKeyLen < 0 || c.MaxValueLen < 0 {
		return errors.New("core: size limits must be non-negative")
	}
	return nil
}

// hash returns the configured hash function.
func (c *Config) hash() hashing.Func { return hashing.ByName(c.HashName) }

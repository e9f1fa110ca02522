package core

import (
	"zht/internal/metrics"
	"zht/internal/wire"
)

// clientMetrics holds the client-side instruments, pre-resolved at
// construction so the hot path never touches the registry map. With
// metrics disabled (nil registry) every field is nil and recording
// degrades to nil-checks; latency timing is additionally sampled
// (one op in metrics.SampleEvery) and skipped entirely when allLat
// is nil, so untimed ops never read the clock.
type clientMetrics struct {
	ops         *metrics.Counter   // zht.client.ops
	retries     *metrics.Counter   // zht.client.retries
	busyRetries *metrics.Counter   // zht.client.busy_retries
	wrongOwner  *metrics.Counter   // zht.client.wrong_owner
	unavailable *metrics.Counter   // zht.client.unavailable
	fastfails   *metrics.Counter   // zht.client.breaker.fastfails
	batches     *metrics.Counter   // zht.client.batches
	batchSize   *metrics.Histogram // zht.client.batch.size
	// quorumReads counts lookups the client fanned out to replicas
	// for newest-version-wins resolution (a Quorum or All read);
	// staleReadsRepaired counts those fan-outs that observed at least
	// one copy older than the winner and queued an async read-repair
	// of it (DESIGN.md §12).
	quorumReads        *metrics.Counter // zht.consistency.quorum_reads
	staleReadsRepaired *metrics.Counter // zht.consistency.stale_reads_repaired
	allLat             *metrics.Histogram
	opLat              map[wire.Op]*metrics.Histogram
}

func newClientMetrics(reg *metrics.Registry) clientMetrics {
	m := clientMetrics{
		ops:                reg.Counter("zht.client.ops"),
		retries:            reg.Counter("zht.client.retries"),
		busyRetries:        reg.Counter("zht.client.busy_retries"),
		wrongOwner:         reg.Counter("zht.client.wrong_owner"),
		unavailable:        reg.Counter("zht.client.unavailable"),
		fastfails:          reg.Counter("zht.client.breaker.fastfails"),
		batches:            reg.Counter("zht.client.batches"),
		batchSize:          reg.Histogram("zht.client.batch.size"),
		quorumReads:        reg.Counter("zht.consistency.quorum_reads"),
		staleReadsRepaired: reg.Counter("zht.consistency.stale_reads_repaired"),
		allLat:             reg.Histogram("zht.client.op.all.latency_ns"),
	}
	if reg != nil {
		m.opLat = map[wire.Op]*metrics.Histogram{
			wire.OpInsert: reg.Histogram("zht.client.op.insert.latency_ns"),
			wire.OpLookup: reg.Histogram("zht.client.op.lookup.latency_ns"),
			wire.OpRemove: reg.Histogram("zht.client.op.remove.latency_ns"),
			wire.OpAppend: reg.Histogram("zht.client.op.append.latency_ns"),
			wire.OpCas:    reg.Histogram("zht.client.op.cas.latency_ns"),
		}
	}
	return m
}

// instanceMetrics holds the server-side core instruments. Nil fields
// (metrics disabled) degrade to no-ops.
type instanceMetrics struct {
	// syncErrors counts synchronous replication legs that failed —
	// transport errors or non-OK statuses from the first replica (or
	// any replica a write level promoted to sync). Each failed leg is
	// a window where primary and secondary have diverged until handoff
	// replay or anti-entropy repairs it; a non-zero rate means reads
	// served by a failover replica may be stale.
	syncErrors *metrics.Counter // zht.core.replica.sync_errors
	// repBreakerTrips / repBreakerOpen mirror the client breaker
	// instruments for the instance's replication breaker: an open
	// circuit short-circuits replication legs to a dead peer straight
	// into hinted handoff instead of paying a transport timeout per
	// mutation.
	repBreakerTrips *metrics.Counter // zht.core.replica.breaker.trips
	repBreakerOpen  *metrics.Gauge   // zht.core.replica.breaker.open

	// Consistency instruments (DESIGN.md §12; see OBSERVABILITY.md
	// "Consistency"). quorumWrites counts mutations the owner
	// coordinated at Quorum or All (i.e. success waited on replica
	// acks, not just the owner's copy); versionConflicts counts
	// replica applies rejected by the last-writer-wins compare (a
	// stale leg arriving after a newer write — expected under
	// reordering, never data loss).
	quorumWrites     *metrics.Counter // zht.consistency.quorum_writes
	versionConflicts *metrics.Counter // zht.consistency.version_conflicts

	// Anti-entropy instruments (see OBSERVABILITY.md "Repair").
	digestSyncs     *metrics.Counter // zht.repair.digest_syncs
	rangesPulled    *metrics.Counter // zht.repair.ranges_pulled
	readRepairs     *metrics.Counter // zht.repair.read_repairs
	handoffQueued   *metrics.Counter // zht.repair.handoff.queued
	handoffReplayed *metrics.Counter // zht.repair.handoff.replayed
	handoffDropped  *metrics.Counter // zht.repair.handoff.dropped

	// Membership instruments (DESIGN.md §10; the gossip service
	// registers the zht.membership.gossip pull/advance counters and
	// zht.membership.stale_detected itself).
	epoch            *metrics.Gauge   // zht.membership.epoch
	gossipFullTables *metrics.Counter // zht.membership.gossip.full_tables

	// Tenancy instruments (DESIGN.md §13). expiredReads counts lookups
	// that found a TTL envelope past its expiry and answered NotFound
	// (lazy expiry); reaped counts expired pairs the anti-entropy-tick
	// reaper deleted from local stores.
	expiredReads *metrics.Counter // zht.tenant.expired_reads
	reaped       *metrics.Counter // zht.tenant.reaped

	// Migration engine instruments (throttled streaming rebalance).
	migPartitions *metrics.Counter // zht.migrate.partitions
	migPairs      *metrics.Counter // zht.migrate.pairs
	migBytes      *metrics.Counter // zht.migrate.bytes
	migRounds     *metrics.Counter // zht.migrate.rounds
	migCutovers   *metrics.Counter // zht.migrate.cutovers
	migAborts     *metrics.Counter // zht.migrate.aborts
	migThrottleNs *metrics.Counter // zht.migrate.throttle_ns
}

func newInstanceMetrics(reg *metrics.Registry) instanceMetrics {
	return instanceMetrics{
		syncErrors:       reg.Counter("zht.core.replica.sync_errors"),
		repBreakerTrips:  reg.Counter("zht.core.replica.breaker.trips"),
		repBreakerOpen:   reg.Gauge("zht.core.replica.breaker.open"),
		quorumWrites:     reg.Counter("zht.consistency.quorum_writes"),
		versionConflicts: reg.Counter("zht.consistency.version_conflicts"),

		digestSyncs:     reg.Counter("zht.repair.digest_syncs"),
		rangesPulled:    reg.Counter("zht.repair.ranges_pulled"),
		readRepairs:     reg.Counter("zht.repair.read_repairs"),
		handoffQueued:   reg.Counter("zht.repair.handoff.queued"),
		handoffReplayed: reg.Counter("zht.repair.handoff.replayed"),
		handoffDropped:  reg.Counter("zht.repair.handoff.dropped"),

		epoch:            reg.Gauge("zht.membership.epoch"),
		gossipFullTables: reg.Counter("zht.membership.gossip.full_tables"),

		expiredReads: reg.Counter("zht.tenant.expired_reads"),
		reaped:       reg.Counter("zht.tenant.reaped"),

		migPartitions: reg.Counter("zht.migrate.partitions"),
		migPairs:      reg.Counter("zht.migrate.pairs"),
		migBytes:      reg.Counter("zht.migrate.bytes"),
		migRounds:     reg.Counter("zht.migrate.rounds"),
		migCutovers:   reg.Counter("zht.migrate.cutovers"),
		migAborts:     reg.Counter("zht.migrate.aborts"),
		migThrottleNs: reg.Counter("zht.migrate.throttle_ns"),
	}
}

package core

import (
	"fmt"
	"math/rand"
	"time"

	"zht/internal/repair"
	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Manager-role orchestration: dynamic joins and planned departures
// (paper §III.C). Failure handling lives in instance.go
// (handleReport) because any instance's manager can receive a report.

// Join admits a new instance into a running deployment:
//
//  1. check out a membership table from the seed (a "random physical
//     node" in the paper),
//  2. plan the join: relieve the most-loaded instance of half its
//     partitions,
//  3. stream those partitions' contents in throttled leaf chunks
//     while the relieved instance keeps serving, then lock each
//     partition for a short final sync (no whole-partition pauses,
//     no rehashing),
//  4. commit the incremental membership update on the relieved
//     instance, which releases its queued requests with redirects
//     when the delta lands, then announce it to the other instances
//     whose copies it moves (Instance.announce); the rest of the ring
//     learns of it through gossip.
//
// The newcomer's handler must already be reachable at newcomer.Addr
// before Join is called (use a HandlerSwitch to bind the address
// first); peers start sending it traffic the moment the commit lands.
// Join retries when it loses an epoch race with a concurrent
// membership change, backing off with full jitter between attempts so
// racing joiners do not re-collide, and plans each retry on the newest
// table it has seen: a seed may lag until gossip reaches it.
func Join(cfg Config, newcomer ring.Instance, seedAddr string, caller transport.Caller, bind func(*Instance)) (*Instance, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	var newest *ring.Table // the newest table a turned-down attempt carried
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			d := cfg.RetryBase << uint(attempt-1)
			if d <= 0 || d > cfg.retryMax {
				d = cfg.retryMax
			}
			time.Sleep(time.Duration(rand.Int63n(int64(d))) + 1)
		}
		inst, seen, err := joinOnce(cfg, newcomer, seedAddr, newest, caller, bind)
		if err == nil {
			return inst, nil
		}
		newest, lastErr = newerTable(newest, seen), err
	}
	return nil, fmt.Errorf("core: join failed: %w", lastErr)
}

// joinOnce runs one join attempt, planned on the seed's table or on
// newest if that is newer. When the attempt is turned down, it also
// returns the table the refusal carried.
func joinOnce(cfg Config, newcomer ring.Instance, seedAddr string, newest *ring.Table, caller transport.Caller, bind func(*Instance)) (*Instance, *ring.Table, error) {
	resp, err := caller.Call(seedAddr, &wire.Request{Op: wire.OpMembership})
	if err != nil {
		return nil, nil, fmt.Errorf("fetch table from seed: %w", err)
	}
	table, err := ring.DecodeTable(resp.Table)
	if err != nil {
		return nil, nil, fmt.Errorf("bad table from seed: %w", err)
	}
	table = newerTable(table, newest)
	delta, parts, err := table.PlanJoin(newcomer)
	if err != nil {
		return nil, nil, err
	}
	nt, err := table.Apply(delta)
	if err != nil {
		return nil, nil, err
	}
	inst, err := NewInstance(cfg, newcomer, nt, caller)
	if err != nil {
		return nil, nil, err
	}
	bind(inst)

	// The instance being relieved. Until the commit below lands, it is
	// the only peer that knows the newcomer exists, and the newcomer is
	// in nobody's peer list — so the advanced epoch the newcomer stamps
	// on its pulls cannot propagate early through gossip.
	giver := table.OwnerOf(pickFirst(parts, table))
	thr := repair.NewThrottle(migrateRate, inst.met.migThrottleNs)
	abort := func() {
		inst.met.migAborts.Inc()
		for _, p := range parts {
			caller.Call(giver.Addr, &wire.Request{
				Op: wire.OpMigrate, Partition: int64(p), Aux: migrateAbortMarker,
			})
		}
		inst.Close()
	}

	// Phase 1: stream every partition's contents in throttled leaf
	// chunks while the giver keeps serving (the dual-read window: the
	// giver still owns p at its epoch; the newcomer converges toward
	// the live copy with digest catch-up rounds).
	for _, p := range parts {
		if err := inst.migrateStream(giver.Addr, p, inst.pullChunks, thr); err != nil {
			abort()
			return nil, nil, fmt.Errorf("stream partition %d from %s: %w", p, giver.Addr, err)
		}
	}

	// Phase 2: lock each partition on the giver (new requests queue,
	// in-flight appliers drain), then close the residual divergence
	// with one unthrottled final sync.
	for _, p := range parts {
		mresp, err := caller.Call(giver.Addr, &wire.Request{
			Op: wire.OpMigrate, Partition: int64(p), Key: newcomer.Addr, Aux: migrateLockMarker,
		})
		if err != nil || mresp.Status != wire.StatusOK {
			abort()
			return nil, tableOf(mresp), fmt.Errorf("lock partition %d on %s: %v %s", p, giver.Addr, err, respErr(mresp))
		}
		if err := inst.migrateFinal(giver.Addr, p, inst.pullChunks); err != nil {
			abort()
			return nil, nil, fmt.Errorf("final sync of partition %d from %s: %w", p, giver.Addr, err)
		}
		inst.met.migPartitions.Inc()
	}

	// Commit: the relieved instance must accept the delta first (it
	// releases its queued requests on apply).
	var commit string
	if len(parts) > 0 {
		commit = giver.Addr
	}
	if seen, err := inst.announce(table, nt, ring.EncodeDelta(delta), commit); err != nil {
		abort()
		return nil, seen, err
	}
	inst.met.migCutovers.Add(int64(len(parts)))
	// The newcomer's partitions have new replicas: fill them, as every
	// other owner does for its changed copy sets (afterTableChange).
	if cfg.Replicas > 0 {
		for _, p := range parts {
			inst.rebuildReplicas(nt, p)
		}
	}
	return inst, nil, nil
}

// Depart performs a planned departure (§III.C): the departing
// instance streams each of its partitions to alive ring neighbours in
// throttled leaf chunks while it keeps serving, then locks each
// partition for a short final sync and announces the membership update
// marking itself Departing to the instances whose copies it moves
// (Instance.announce); the rest of the ring learns of it through
// gossip. The caller should Close the instance afterwards.
func Depart(inst *Instance) error {
	table := inst.Table()
	delta, moves, err := table.PlanDeparture(inst.self.ID)
	if err != nil {
		return err
	}
	thr := repair.NewThrottle(migrateRate, inst.met.migThrottleNs)

	// Phase 1: stream while serving. No migration state exists yet, so
	// a failure here needs no rollback — the receivers just hold a
	// stale partial copy their replica digests will reconcile.
	for tgtIdx, parts := range moves {
		tgt := table.Instances[tgtIdx]
		for _, p := range parts {
			if err := inst.migrateStream(tgt.Addr, p, inst.pushChunks, thr); err != nil {
				return fmt.Errorf("core: stream partition %d to %s: %w", p, tgt.Addr, err)
			}
		}
	}

	// Phase 2: lock each partition locally (queueing new requests),
	// drain in-flight appliers, and push the residual divergence
	// unthrottled. Queued requests release with redirects when the
	// delta is applied locally below.
	var begun []int
	rollback := func() {
		inst.met.migAborts.Inc()
		for _, p := range begun {
			inst.completeMigration(p, "", false)
		}
	}
	for tgtIdx, parts := range moves {
		tgt := table.Instances[tgtIdx]
		for _, p := range parts {
			if inst.lockForMove(p) == nil {
				rollback()
				return fmt.Errorf("core: partition %d already migrating", p)
			}
			begun = append(begun, p)
			if err := inst.migrateFinal(tgt.Addr, p, inst.pushChunks); err != nil {
				rollback()
				return fmt.Errorf("core: final sync of partition %d to %s: %w", p, tgt.Addr, err)
			}
			inst.met.migPartitions.Inc()
		}
	}

	// Applying the delta locally flips ownership and releases the
	// queued requests with redirects; then it is announced.
	if _, err := inst.applyAndAnnounce(table, delta); err != nil {
		rollback()
		return err
	}
	inst.met.migCutovers.Add(int64(len(begun)))
	return nil
}

func pickFirst(parts []int, table *ring.Table) int {
	if len(parts) == 0 {
		// Saturated ring: the newcomer takes nothing; any partition
		// works for resolving the giver (unused).
		return 0
	}
	return parts[0]
}

// newerTable returns whichever of a and b has the higher epoch; either
// may be nil.
func newerTable(a, b *ring.Table) *ring.Table {
	if a == nil || (b != nil && b.Epoch > a.Epoch) {
		return b
	}
	return a
}

// tableOf decodes the membership table a response carries, or nil.
func tableOf(r *wire.Response) *ring.Table {
	if r == nil {
		return nil
	}
	t, _ := ring.DecodeTable(r.Table)
	return t
}

func respErr(r *wire.Response) string {
	if r == nil {
		return ""
	}
	return r.Err
}

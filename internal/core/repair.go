package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"zht/internal/novoht"
	"zht/internal/repair"
	"zht/internal/ring"
	"zht/internal/storage"
	"zht/internal/tenant"
	"zht/internal/wire"
)

// Instance-side half of the replica anti-entropy subsystem
// (DESIGN.md §9). internal/repair owns the mechanisms — digests, the
// leg queue, payload codecs — and this file owns the policy: how a
// queued leg is sent, which peer is a partition's authority, when to
// digest-sync, what a failover read schedules, and how a divergent
// leaf's contents are replaced.

var errLegNotSent = errors.New("core: replica leg breaker open or shed by peer")

// sendLeg is the leg queue's send policy. An open replication breaker
// fails the entry without a transport attempt; transport errors feed
// the breaker, so the queue's retries double as its half-open probe.
// Any decoded response consumes the entry except StatusBusy (the peer
// is alive but shedding: back off and retry) — an answering peer has
// applied or durably rejected the mutation, and anti-entropy covers
// rejects.
func (in *Instance) sendLeg(addr string, env *wire.Request) error {
	if !in.rbrk.allow(addr) {
		return errLegNotSent
	}
	resp, err := in.caller.Call(addr, env)
	if err != nil {
		in.rbrk.failure(addr)
		return err
	}
	in.rbrk.success(addr)
	if resp.Status == wire.StatusBusy {
		return errLegNotSent
	}
	return nil
}

// PartitionDigest returns the repair digest leaves for partition p's
// local store without creating one: a partition this instance holds
// nothing for has the all-zero digest. Peers' digest probes and the
// convergence tests read it.
func (in *Instance) PartitionDigest(p int) []uint64 {
	if s := in.storeIfPresent(p); s != nil {
		return s.DigestLeaves()
	}
	return make([]uint64, storage.Leaves)
}

// handleDigest serves wire.OpDigest: the partition's digest snapshot.
func (in *Instance) handleDigest(req *wire.Request) *wire.Response {
	p := int(req.Partition)
	if in.part(p) == nil {
		return &wire.Response{Status: wire.StatusError, Err: "core: bad partition"}
	}
	return &wire.Response{Status: wire.StatusOK, Value: repair.EncodeDigest(in.PartitionDigest(p))}
}

// handleRepairPull serves wire.OpRepairPull in both directions:
//
//   - pull (Value empty): answer with this store's pairs in the
//     requested leaves — the authority side of an anti-entropy sync.
//   - push (Value = encoded pairs): replace the requested leaves'
//     local contents with the authoritative set — the replica side of
//     read-repair.
func (in *Instance) handleRepairPull(req *wire.Request) *wire.Response {
	p := int(req.Partition)
	if in.part(p) == nil {
		return &wire.Response{Status: wire.StatusError, Err: "core: bad partition"}
	}
	leaves, err := repair.DecodeLeafSet(req.Aux)
	if err != nil {
		return &wire.Response{Status: wire.StatusError, Err: err.Error()}
	}
	if len(req.Value) > 0 {
		pairs, err := repair.DecodePairs(req.Value)
		if err != nil {
			return &wire.Response{Status: wire.StatusError, Err: err.Error()}
		}
		// FlagWholesale distinguishes a live owner's complete image
		// (migration pushes — absentees may be deleted) from an acting
		// authority's best-effort push (read-repair — upsert only).
		if err := in.applyLeafContent(p, leaves, pairs, req.Flags&wire.FlagWholesale != 0); err != nil {
			return &wire.Response{Status: wire.StatusError, Err: err.Error()}
		}
		return &wire.Response{Status: wire.StatusOK}
	}
	pairs, err := in.collectLeafPairs(p, leaves)
	if err != nil {
		return &wire.Response{Status: wire.StatusError, Err: err.Error()}
	}
	return &wire.Response{Status: wire.StatusOK, Value: repair.EncodePairs(pairs)}
}

// collectLeafPairs snapshots the local pairs falling in the given
// leaves of partition p, with their version stamps: repair transfers
// must carry versions or the receiver's LWW compare would treat
// authoritative pairs as unordered.
func (in *Instance) collectLeafPairs(p int, leaves []int) ([]repair.Pair, error) {
	s, err := in.store(p)
	if err != nil {
		return nil, err
	}
	var pairs []repair.Pair
	err = s.ForEachLeafV(leaves, func(k string, v []byte, ver uint64) error {
		pairs = append(pairs, repair.Pair{Key: k, Value: append([]byte(nil), v...), Ver: ver})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// applyLeafContent converges the given leaves of partition p toward
// the authoritative pair set, version-aware in both directions
// (DESIGN.md §12):
//
//   - Upserts install last-writer-wins: a local pair newer than the
//     authority's copy is kept (the authority's digest predates a
//     write this replica already holds — repair must never replace
//     newer with older).
//   - Local keys the authority lacks are deleted only when wholesale
//     is set — the pair set is a live owner's complete image, so an
//     absent key was removed (removes carry no tombstones). Under a
//     non-wholesale sync (the authority is itself a failover replica)
//     a local extra is kept: it may be an acked write the acting
//     authority missed, and deleting it could drop the write from its
//     last copy. The cost is bounded divergence — the leaf re-pulls
//     each round until the true owner returns or re-replication
//     rebuilds the set.
//
// Its deletes and installs are staged and committed once, as one
// request, before it returns.
func (in *Instance) applyLeafContent(p int, leaves []int, pairs []repair.Pair, wholesale bool) (err error) {
	pt := in.part(p)
	if pt == nil {
		return fmt.Errorf("core: bad partition %d", p)
	}
	s := in.open(pt)
	defer func() {
		if cerr := in.log.Commit(); err == nil {
			err = cerr
		}
	}()
	want := make(map[int]bool, len(leaves))
	for _, l := range leaves {
		want[l] = true
	}
	auth := make(map[string]repair.Pair, len(pairs))
	for _, pr := range pairs {
		if want[storage.LeafOf(pr.Key)] {
			auth[pr.Key] = pr
		}
	}
	if wholesale {
		var stale []stalePair
		if err := s.ForEachLeafV(leaves, func(k string, _ []byte, ver uint64) error {
			if _, ok := auth[k]; !ok {
				stale = append(stale, stalePair{k, ver})
			}
			return nil
		}); err != nil {
			return err
		}
		for _, sp := range stale {
			ok, err := sp.remove(s)
			if err != nil {
				return err
			}
			if ok {
				pt.note(sp.key, sp.ver+1)
			}
		}
	}
	for k, pr := range auth {
		if _, err := in.install(pt, k, pr.Value, pr.Ver); err != nil {
			return err
		}
	}
	return nil
}

// stalePair is a pair a sweep found should go: the key and the
// version it was seen at.
type stalePair struct {
	key string
	ver uint64
}

// remove deletes the pair only if the store still holds the copy the
// sweep saw: the remove is stamped just above it, so a write that
// replaced it since keeps the key.
func (sp stalePair) remove(s *novoht.Store) (bool, error) {
	return s.RemoveLWW(sp.key, sp.ver+1)
}

// removeGrace is how long a remove's stamp keeps refusing stale copies
// of the pair. It outlasts a migration (migrationTimeout), the longest
// a streamed chunk collected before a remove can wait before it lands.
const removeGrace = 2 * migrationTimeout

// note records a remove of key stamped ver in pt. The stamps of
// recent removes — the owner's replicated removes, replica remove legs,
// and the deletes of a wholesale repair or migration sync — refuse
// stale copies of the pair. The stores keep no tombstones, so an absent
// key carries no version and PutLWW onto it applies: without these, a
// rebuild push, a repair pull or a migration chunk collected before a
// remove would bring the removed pair back when it lands after the
// remove (DESIGN.md §12). The stamps live in memory only, for
// removeGrace past each remove, and are dropped as note grows the set.
func (pt *partition) note(key string, ver uint64) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.removed == nil {
		pt.removed = make(map[string]uint64)
	}
	// The key may alias a pooled request buffer; the map keeps a copy.
	pt.removed[strings.Clone(key)] = max(ver, pt.removed[key])
	if len(pt.removed) >= int(pt.sweepAt) {
		cutoff := uint64(time.Now().Add(-removeGrace).UnixMilli()) << hlcNodeBits
		for k, v := range pt.removed {
			if v < cutoff {
				delete(pt.removed, k)
			}
		}
		pt.sweepAt = int32(max(64, 2*len(pt.removed)))
	}
	pt.nRemoved.Store(int64(len(pt.removed)))
}

// covers reports whether a pair of key stamped ver is no newer than a
// remembered remove of key.
func (pt *partition) covers(key string, ver uint64) bool {
	if pt.nRemoved.Load() == 0 {
		return false
	}
	pt.mu.Lock()
	v, ok := pt.removed[key]
	pt.mu.Unlock()
	return ok && ver <= v
}

// repairAuthority returns the instance whose copy of partition p is
// authoritative for repair: the owner while it is alive, else the
// failover target (failoverTarget: the same election the failover
// serve and the client's failover routing use, so reads and repair
// agree on who is canonical). Returns false when nobody alive holds p.
func (in *Instance) repairAuthority(table *ring.Table, p int) (ring.Instance, bool) {
	idx := table.Owner[p]
	if table.Status[idx] == ring.Alive {
		return table.Instances[idx], true
	}
	rep := failoverTarget(table, p, in.cfg.Replicas)
	return rep, rep.ID != ""
}

// holdsReplica reports whether this instance is in partition p's
// replica set.
func (in *Instance) holdsReplica(table *ring.Table, p int) bool {
	for _, r := range table.ReplicasOf(p, in.cfg.Replicas) {
		if r.ID == in.self.ID {
			return true
		}
	}
	return false
}

// antiEntropyLoop periodically digest-syncs every partition this
// instance replicates against the partition's authority, bounding how
// long any divergence — dropped legs past the handoff cap, faults
// internal/chaos injects — can persist.
func (in *Instance) antiEntropyLoop() {
	defer in.loopWG.Done()
	tick := time.NewTicker(in.cfg.AntiEntropy)
	defer tick.Stop()
	for {
		select {
		case <-in.closed:
			return
		case <-tick.C:
		}
		// The TTL reaper rides the same tick (DESIGN.md §13): reaping
		// before the digest sync means a round never re-pulls ranges
		// whose only divergence was expired pairs this node still held.
		// Unlike the round below, the reaper also runs at Replicas=0 —
		// expiry is a single-copy concern too.
		in.reapExpired()
		in.antiEntropyRound()
	}
}

// reapExpired sweeps every local partition store (owned + replica)
// and deletes pairs whose TTL envelope has expired, so lazily-expired
// reads eventually become reclaimed space. Each node reaps on its own
// wall clock; replicas that have not reaped yet can re-propagate an
// expired pair through anti-entropy until their own sweep deletes it
// — the documented lazy-expiry anomaly (DESIGN.md §13). Reads never
// see the stale copy either way: the expiry check runs on every
// lookup.
func (in *Instance) reapExpired() {
	nowMs := time.Now().UnixMilli()
	for _, s := range in.openStores() {
		var dead []stalePair
		s.ForEachV(func(key string, val []byte, ver uint64) error {
			if tenant.ExpiredAt(val, nowMs) {
				dead = append(dead, stalePair{key, ver})
			}
			return nil
		})
		for _, d := range dead {
			if ok, err := d.remove(s); err == nil && ok {
				in.met.reaped.Inc()
			}
		}
	}
	// One commit for the sweep's removes. A failure breaks the log,
	// which reports it to every later request; the sweep has no caller
	// to tell.
	_ = in.log.Commit()
}

// antiEntropyRound runs one sweep: partitions are grouped by
// authority address and each group's digest probes ride one batched
// envelope (CallBatch), so a sweep costs one round trip per peer plus
// one pull per divergent partition.
func (in *Instance) antiEntropyRound() {
	if in.cfg.Replicas <= 0 {
		return
	}
	table := in.tableRef()
	if myIdx := table.IndexOf(in.self.ID); myIdx < 0 || table.Status[myIdx] != ring.Alive {
		return
	}
	targets := make(map[string][]int)
	for p := 0; p < table.NumPartitions; p++ {
		auth, ok := in.repairAuthority(table, p)
		if !ok || auth.ID == in.self.ID {
			continue
		}
		if !in.holdsReplica(table, p) {
			continue
		}
		targets[auth.Addr] = append(targets[auth.Addr], p)
	}
	for addr, ps := range targets {
		in.digestSync(addr, ps)
	}
}

// digestSync compares local digests for ps against the authority at
// addr and pulls divergent leaves. Errors are dropped: the next tick
// retries, and an unreachable authority is the failure detector's
// problem, not this loop's.
func (in *Instance) digestSync(addr string, ps []int) {
	reqs := make([]*wire.Request, len(ps))
	for i, p := range ps {
		reqs[i] = &wire.Request{Op: wire.OpDigest, Partition: int64(p)}
	}
	resps, err := in.caller.CallBatch(addr, reqs)
	if err != nil || len(resps) != len(ps) {
		return
	}
	for i, p := range ps {
		if resps[i].Status != wire.StatusOK {
			continue
		}
		remote, err := repair.DecodeDigest(resps[i].Value)
		if err != nil {
			continue
		}
		in.met.digestSyncs.Inc()
		diff := repair.DiffLeaves(in.PartitionDigest(p), remote)
		if len(diff) == 0 {
			continue
		}
		// The pull is wholesale (local absentees deleted) only when the
		// authority is the partition's live owner — the one node whose
		// image is complete.
		table := in.tableRef()
		idx := table.Owner[p]
		wholesale := table.Status[idx] == ring.Alive && table.Instances[idx].Addr == addr
		t, _ := in.pullChunks(addr, p, diff, wholesale, nil)
		in.met.rangesPulled.Add(int64(t.leaves))
	}
}

// scheduleReadRepair asynchronously repairs partition p's other
// replicas from this instance — the acting authority serving a
// failover read — at most once per anti-entropy period per partition.
// Disabled (like the loop) when AntiEntropy is zero, so failover
// reads in repair-less deployments behave exactly as before.
func (in *Instance) scheduleReadRepair(table *ring.Table, p int) {
	if in.cfg.AntiEntropy <= 0 || in.cfg.Replicas <= 0 {
		return
	}
	// One CAS admits one round per period: of two racing failover
	// reads, the loser sees the winner's time, or fails its swap.
	pt, now := in.part(p), time.Now().UnixNano()
	if last := pt.rrAt.Load(); now-last < int64(in.cfg.AntiEntropy) || !pt.rrAt.CompareAndSwap(last, now) {
		return
	}
	select {
	case <-in.closed:
		return
	default:
	}
	in.met.readRepairs.Inc()
	in.loopWG.Add(1)
	go func() {
		defer in.loopWG.Done()
		in.pushToReplicas(table, p)
	}()
}

// pushToReplicas converges every other replica of partition p in table
// toward this instance's copy: per replica, one digest diff, then an
// upsert-only push of the divergent leaves. Errors are dropped: a
// rebuild or read-repair is best effort, and anti-entropy, where it
// runs, retries what a push missed.
func (in *Instance) pushToReplicas(table *ring.Table, p int) {
	for _, r := range table.ReplicasOf(p, in.cfg.Replicas) {
		if r.ID != in.self.ID {
			in.converge(r.Addr, p, 1, in.pushChunks, false, nil)
		}
	}
}

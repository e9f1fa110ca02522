package core

import (
	"errors"
	"fmt"
	"time"

	"zht/internal/novoht"
	"zht/internal/repair"
	"zht/internal/ring"
	"zht/internal/storage"
	"zht/internal/tenant"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Instance-side half of the replica anti-entropy subsystem
// (DESIGN.md §9). internal/repair owns the mechanisms — digests, the
// leg queue, payload codecs — and this file owns the policy: how a
// queued leg is sent, when to digest-sync against a partition's owner,
// and how a divergent leaf's contents are replaced.

var errLegNotSent = errors.New("core: replica leg shed by a busy peer")

// sendLeg is the leg queue's send policy. A transport error
// (unreachable or timed out) fails the entry, and the queue backs off
// and retries it: those retries are the only probe of a failing
// destination. Any other error means the transport can never carry the
// entry (UDP's datagram limit, say), so it is dropped as undeliverable
// and anti-entropy repairs the gap. Any decoded response consumes the
// entry except StatusBusy (the peer is alive but shedding: back off and
// retry) — an answering peer has applied or durably rejected the
// mutation, and anti-entropy covers rejects.
func (in *Instance) sendLeg(addr string, env *wire.Request) error {
	resp, err := in.caller.Call(addr, env)
	if err != nil {
		if errors.Is(err, transport.ErrUnreachable) || errors.Is(err, transport.ErrTimeout) {
			return err
		}
		return fmt.Errorf("%w: %v", repair.ErrUndeliverable, err)
	}
	busy := resp.Status == wire.StatusBusy
	wire.PutResponse(resp)
	if busy {
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
// The response is drawn from the pool the transport returns it to, so
// an anti-entropy round keeps the pool's gets and puts level.
func (in *Instance) handleDigest(req *wire.Request) *wire.Response {
	p := int(req.Partition)
	if in.part(p) == nil {
		return wire.ErrorReply("core: bad partition")
	}
	resp := wire.GetResponse()
	resp.Status, resp.Value = wire.StatusOK, repair.EncodeDigest(storage.DigestVersion, in.PartitionDigest(p))
	return resp
}

// remoteDigest decodes a peer's digest payload, refusing and counting
// one made of another pair-hash version than this build's: its leaves
// differ wherever a pair lives, so a diff against it would move every
// non-empty leaf. Anti-entropy and a replica rebuild skip that peer,
// and a migration catch-up fails on it.
func (in *Instance) remoteDigest(b []byte) ([]uint64, error) {
	ver, leaves, err := repair.DecodeDigest(b)
	if err != nil {
		return nil, err
	}
	if ver != storage.DigestVersion {
		in.met.digestSkips.Inc()
		return nil, fmt.Errorf("core: peer digest of pair-hash version %d, this build's is %d", ver, storage.DigestVersion)
	}
	return leaves, nil
}

// handleRepairPull serves wire.OpRepairPull in both directions:
//
//   - pull (Value empty): answer with this store's pairs in the
//     requested leaves — the authority side of an anti-entropy sync.
//   - push (Value = encoded pairs): replace the requested leaves'
//     local contents with the authoritative set — the receiving side of
//     a migration or a replica rebuild.
func (in *Instance) handleRepairPull(req *wire.Request) *wire.Response {
	p := int(req.Partition)
	if in.part(p) == nil {
		return wire.ErrorReply("core: bad partition")
	}
	leaves, err := repair.DecodeLeafSet(req.Aux)
	if err != nil {
		return wire.ErrorReply(err.Error())
	}
	if len(req.Value) > 0 {
		pairs, err := repair.DecodePairs(req.Value)
		if err != nil {
			return wire.ErrorReply(err.Error())
		}
		// FlagWholesale distinguishes a live owner's complete image
		// (migration pushes — absentees may be deleted) from a
		// best-effort push (a replica rebuild — upsert only).
		if err := in.applyLeafContent(p, leaves, pairs, req.Flags&wire.FlagWholesale != 0); err != nil {
			return wire.ErrorReply(err.Error())
		}
		return wire.Reply(wire.StatusOK, nil)
	}
	pairs, err := in.collectLeafPairs(p, leaves)
	if err != nil {
		return wire.ErrorReply(err.Error())
	}
	return wire.Reply(wire.StatusOK, repair.EncodePairs(pairs))
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
//     is set — the pair set is the owner's complete image, so an
//     absent key was removed (tombstones do not travel). Under a
//     non-wholesale sync (a replica's rebuild push, or a pull from a
//     peer that no longer owns the partition) a local extra is kept:
//     it may be an acked write the sender missed, and deleting it
//     could drop the write from its last copy.
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
		// Each delete removes only the copy the sweep saw (stamped just
		// above it) and buries the key, so a stale copy of the pair in
		// a later chunk does not bring it back. The clock observes the
		// tombstone's stamp, which the store forgets at reclaim.
		for _, sp := range stale {
			in.clock.Observe(sp.ver + 1)
			if _, err := s.BuryLWW(sp.key, sp.ver+1); err != nil {
				return err
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
// instance replicates against the partition's owner, bounding how
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
// lookup. The clock observes each reaped pair's stamp, which its store
// no longer holds: the owner's next write of the key must land above a
// copy that has not been reaped yet.
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
				in.clock.Observe(d.ver)
				in.met.reaped.Inc()
			}
		}
	}
	// One commit for the sweep's removes. A failure breaks the log,
	// which reports it to every later request; the sweep has no caller
	// to tell.
	_ = in.log.Commit()
}

// antiEntropyRound runs one sweep: partitions are grouped by owner
// address and each group's digest probes ride one batched
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
		owner := table.OwnerOf(p)
		if owner.ID == in.self.ID || !in.holdsReplica(table, p) {
			continue
		}
		targets[owner.Addr] = append(targets[owner.Addr], p)
	}
	for addr, ps := range targets {
		in.digestSync(addr, ps)
	}
}

// digestSync compares local digests for ps against the owner at addr
// and pulls divergent leaves. Errors are dropped: the next tick
// retries, and an unreachable owner is the failure detector's problem,
// not this loop's.
func (in *Instance) digestSync(addr string, ps []int) {
	reqs := make([]*wire.Request, len(ps))
	for i, p := range ps {
		reqs[i] = &wire.Request{Op: wire.OpDigest, Partition: int64(p)}
	}
	resps, err := in.caller.CallBatch(addr, reqs)
	if err != nil {
		return
	}
	defer wire.ReleaseResponses(resps)
	if len(resps) != len(ps) {
		return
	}
	for i, p := range ps {
		if resps[i].Status != wire.StatusOK {
			continue
		}
		remote, err := in.remoteDigest(resps[i].Value)
		if err != nil {
			continue
		}
		in.met.digestSyncs.Inc()
		diff := repair.DiffLeaves(in.PartitionDigest(p), remote)
		if len(diff) == 0 {
			continue
		}
		// The pull is wholesale (local absentees deleted) only while addr
		// still owns p — the one node whose image is complete.
		wholesale := in.tableRef().OwnerOf(p).Addr == addr
		t, _ := in.pullChunks(addr, p, diff, wholesale, nil)
		in.met.rangesPulled.Add(int64(t.leaves))
	}
}

// pushToReplicas converges every other replica of partition p in table
// toward this instance's copy: per replica, one digest diff, then an
// upsert-only push of the divergent leaves. Errors are dropped: a
// rebuild is best effort, and anti-entropy, where it runs, retries what
// a push missed.
func (in *Instance) pushToReplicas(table *ring.Table, p int) {
	for _, r := range table.ReplicasOf(p, in.cfg.Replicas) {
		if r.ID != in.self.ID {
			in.converge(r.Addr, p, 1, in.pushChunks, false, nil)
		}
	}
}

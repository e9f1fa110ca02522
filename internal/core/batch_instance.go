package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"zht/internal/ring"
	"zht/internal/wire"
)

// Server side of the batched request path: one OpBatch envelope
// carries N sub-operations, and the instance amortizes the per-request
// cost — migration gate, ownership check, partition locks, replication
// round trips — across every sub-op that lands on the same partition.
// This is the apply-loop half of the pipeline the paper's
// connection-caching ablation (§III.F) motivates at the transport
// level: once messages are cheap to carry, the next win is making each
// message carry more work.

// tagPool and groupPool recycle the grouping scratch handleBatch uses
// per envelope: composite (partition<<32 | index) tags, and the index
// slice handed to applyBatchPartition (which only iterates it — the
// slice never outlives the call).
var (
	tagPool   = sync.Pool{New: func() any { return new([]int64) }}
	groupPool = sync.Pool{New: func() any { return new([]int) }}
)

// handleBatch serves an OpBatch envelope: decode the sub-requests,
// group them by partition, apply each partition's group under a single
// lock acquisition, and pack the sub-responses (input order) into the
// envelope response.
func (in *Instance) handleBatch(req *wire.Request) *wire.Response {
	subs, err := wire.DecodeOps(req.Aux)
	if err != nil {
		return &wire.Response{Status: wire.StatusError, Err: "core: bad batch: " + err.Error()}
	}
	resps := make([]*wire.Response, len(subs))

	// Group sub-op indices by partition, preserving input order within
	// each group (same key → same partition → same group, so per-key
	// ordering matches sequential execution). Each KV sub-op gets a
	// composite (partition, index) tag; sorting the tags clusters each
	// partition's ops contiguously, and the index in the low bits keeps
	// the order within a partition stable. Tag and group scratch come
	// from pools so grouping allocates nothing — a map of per-partition
	// slices cost nearly an allocation per sub-op. Partitions are
	// visited in ascending order (groups hold disjoint locks and
	// release them before the next group, so visiting order is
	// correctness-neutral); non-partition ops dispatch immediately so
	// their position relative to same-batch KV ops is irrelevant.
	tp := tagPool.Get().(*[]int64)
	tags := (*tp)[:0]
	// Admission releases collected for admitted KV sub-ops; every one
	// is called when the envelope finishes.
	var releases []func()
	defer func() {
		for _, rel := range releases {
			rel()
		}
	}()
	for i, s := range subs {
		var p int
		switch s.Op {
		case wire.OpInsert, wire.OpLookup, wire.OpRemove, wire.OpAppend, wire.OpCas:
			// Each KV sub-op passes the same admission and size gates as
			// handleKV: a shed or oversized slot gets its verdict here
			// and never joins a partition group, so one over-quota
			// tenant's slots cannot ride a well-behaved tenant's batch.
			if s.Flags&(wire.FlagNoReplicate|wire.FlagReplicaRead) == 0 {
				if in.tooLarge(s) {
					resps[i] = statusResp(wire.StatusTooLarge)
					continue
				}
				if in.cfg.Admission != nil {
					release, retry, ok := in.cfg.Admission.Admit(s.Key, len(s.Value))
					if !ok {
						r := statusResp(wire.StatusBusy)
						r.RetryAfter = uint64(retry)
						resps[i] = r
						continue
					}
					releases = append(releases, release)
				}
			}
			p = in.tableRef().Partition(in.hashf(s.Key))
		case wire.OpReplicate:
			// Batched replication legs apply in input order — the order
			// the primary applied them — via the ordinary replicate
			// handler; grouping would buy nothing (no locks, no fan-out).
			resps[i] = in.handleReplicate(s)
			continue
		default:
			resps[i] = in.Handle(s)
			continue
		}
		tags = append(tags, int64(p)<<32|int64(i))
	}
	slices.Sort(tags)
	gp := groupPool.Get().(*[]int)
	idxs := (*gp)[:0]
	for k := 0; k < len(tags); {
		p := int(tags[k] >> 32)
		idxs = idxs[:0]
		for ; k < len(tags) && int(tags[k]>>32) == p; k++ {
			idxs = append(idxs, int(tags[k]&0xffffffff))
		}
		in.applyBatchPartition(p, subs, idxs, resps)
	}
	*gp = idxs[:0]
	groupPool.Put(gp)
	*tp = tags[:0]
	tagPool.Put(tp)
	// Sub-responses carry the epoch piggyback too: batch transports
	// unpack the envelope, so the envelope's own stamp is not visible
	// to the batch client.
	epoch := in.Epoch()
	for _, r := range resps {
		if r != nil && r.Epoch == 0 {
			r.Epoch = epoch
		}
	}
	env := wire.NewBatchResponse(resps)
	// The envelope now carries everything; sub-requests and
	// sub-responses go back to their pools (applyBatchPartition fans
	// routing verdicts out as per-slot copies, so each slot is
	// released exactly once).
	wire.ReleaseOps(subs)
	wire.ReleaseResponses(resps)
	return env
}

// applyBatchPartition runs one partition's sub-ops through the same
// admission sequence as handleKV — migration gate, post-gate ownership
// check, store resolution — but pays it once for the whole group.
// Routing verdicts (WrongOwner, Migrating, errors) are fanned out to
// every sub-op in the group: ops for one partition route all-or-
// nothing, so the client re-routes them together. Mutations hold their
// keys' mutation stripes once across the group, and replication of
// the successful mutations is coalesced into one batched OpReplicate
// per replica.
func (in *Instance) applyBatchPartition(p int, subs []*wire.Request, idxs []int, resps []*wire.Response) {
	// fan writes a distinct pooled copy of r to every slot in the
	// group: handleBatch releases each slot independently, so slots
	// must never share one *Response. The copies may share r's Table
	// backing — releasing a Response never frees Table.
	fan := func(r *wire.Response) {
		for _, i := range idxs {
			resps[i] = r.ShallowCopy()
		}
	}

	// Migration gate + op lock, exactly as handleKV (nothing to detach:
	// Handle detached the envelope already).
	lock := in.opLock(p)
	for {
		if resp := in.migrationGate(p, nil); resp != nil {
			fan(resp)
			return
		}
		lock.RLock()
		if in.isMigrating(p) {
			lock.RUnlock()
			continue
		}
		break
	}
	defer lock.RUnlock()

	// Ownership on a post-gate snapshot (see handleKV for why).
	table := in.tableRef()
	ownerIdx := table.Owner[p]
	owner := table.Instances[ownerIdx]
	ownerFailed := table.Status[ownerIdx] != ring.Alive
	if owner.ID != in.self.ID {
		if !(ownerFailed && in.firstAliveReplica(table, p) == in.self.ID) {
			fan(&wire.Response{Status: wire.StatusWrongOwner, Table: ring.EncodeTable(table)})
			return
		}
	}

	s, err := in.store(p)
	if err != nil {
		fan(&wire.Response{Status: wire.StatusError, Err: err.Error()})
		return
	}

	// Lock the mutation stripes of every key the group mutates, in
	// ascending stripe order (concurrent envelopes acquire in the same
	// order, so they cannot deadlock), and hold them across apply +
	// replication: same key → same stripe, so per-key replica order
	// still matches apply order, while groups touching disjoint keys
	// overlap — feeding the store's group-commit WAL whole batches.
	var stripes []int
	seen := make(map[int]bool)
	for _, i := range idxs {
		if in.mutates(subs[i]) {
			st := int(in.hashf(subs[i].Key) % uint64(len(in.mutLocks)))
			if !seen[st] {
				seen[st] = true
				stripes = append(stripes, st)
			}
		}
	}
	sort.Ints(stripes)
	for _, st := range stripes {
		in.mutLocks[st].Lock()
		defer in.mutLocks[st].Unlock()
	}
	// applied collects the sub-ops whose mutation succeeded, in apply
	// order — the order replicas must see them in — alongside the
	// version each was stamped with and, where the leg value differs
	// from the request's (appends), the full value the legs carry.
	var applied []int
	var vers []uint64
	var legVals [][]byte
	for _, i := range idxs {
		if !in.mutates(subs[i]) {
			resps[i] = in.applyKV(s, subs[i])
			continue
		}
		ver := in.clock.Next()
		r, legVal := in.applyPrimary(s, subs[i], ver)
		resps[i] = r
		if r.Status != wire.StatusOK {
			if legVal != nil {
				wire.PutBuffer(legVal)
			}
			continue
		}
		applied = append(applied, i)
		vers = append(vers, ver)
		legVals = append(legVals, legVal)
	}
	if len(applied) == 0 {
		return
	}
	acked, copies := in.replicateBatch(table, p, subs, applied, vers, legVals)
	for j, i := range applied {
		if legVals[j] != nil {
			wire.PutBuffer(legVals[j])
		}
		// Each sub-op's own write level is enforced against the acks
		// the shared envelope fan-out collected: an envelope ack means
		// that replica applied the whole group, so per-sub-op acks are
		// identical and only the demanded level differs.
		if need := in.writeLevel(subs[i]).Acks(copies); need > 1 {
			in.met.quorumWrites.Inc()
			if acked+1 < need {
				resps[i].Status = wire.StatusError
				resps[i].Err = fmt.Sprintf("core: quorum not met (%d/%d acks)", acked+1, need)
			}
		}
	}
}

// replicateBatch pushes a partition's successful mutations along the
// replica chain as one batched OpReplicate envelope per replica
// instead of one round trip per mutation. Envelopes go synchronously
// (via CallBatch) to as many replicas as the strictest write level in
// the group demands — an envelope ack counts only when every leg in
// it succeeded — and through the per-destination async FIFO to the
// rest; a single envelope enqueued there preserves the queue's
// per-key ordering guarantee unchanged. Returns the envelope acks
// collected and the copy count levels resolve against, so the caller
// can enforce each sub-op's own level.
func (in *Instance) replicateBatch(table *ring.Table, p int, subs []*wire.Request, applied []int, vers []uint64, legVals [][]byte) (acked, copies int) {
	reps := table.ReplicasOf(p, in.cfg.Replicas)
	copies = 1
	for _, r := range reps {
		if r.ID != in.self.ID {
			copies++
		}
	}
	if copies == 1 {
		return 0, copies
	}
	syncNeed := 0
	for _, i := range applied {
		if n := in.writeLevel(subs[i]).Acks(copies) - 1; n > syncNeed {
			syncNeed = n
		}
	}
	fwds := make([]wire.Request, len(applied))
	for j, i := range applied {
		fwds[j] = replicaFwd(p, subs[i], vers[j], legVals[j])
	}
	first := true
	for _, r := range reps {
		if r.ID == in.self.ID {
			continue
		}
		legs := make([]*wire.Request, len(fwds))
		// As in replicate(): the first replica's envelope is always
		// synchronous; the level only decides how many acks matter.
		if first || acked < syncNeed {
			first = false
			for j := range fwds {
				f := fwds[j]
				f.Flags |= wire.FlagSyncReplica
				legs[j] = &f
			}
			// As in replicate(): failed legs are counted and handed to
			// hinted handoff for replay; an open breaker skips the
			// transport attempt for a peer already known dead.
			if !in.rbrk.allow(r.Addr) {
				in.met.syncErrors.Add(int64(len(legs)))
				for _, l := range legs {
					in.hintLeg(r.Addr, l)
				}
				continue
			}
			rs, err := in.caller.CallBatch(r.Addr, legs)
			if err != nil {
				in.rbrk.failure(r.Addr)
				in.met.syncErrors.Add(int64(len(legs)))
				for _, l := range legs {
					in.hintLeg(r.Addr, l)
				}
				continue
			}
			in.rbrk.success(r.Addr)
			allOK := true
			for j, resp := range rs {
				if resp.Status != wire.StatusOK {
					allOK = false
					in.met.syncErrors.Inc()
					if j < len(legs) {
						in.hintLeg(r.Addr, legs[j])
					}
				}
			}
			if allOK && len(rs) == len(legs) {
				acked++
			}
			continue
		}
		for j := range fwds {
			f := fwds[j]
			f.Value = append([]byte(nil), f.Value...)
			f.Aux = append([]byte(nil), f.Aux...)
			legs[j] = &f
		}
		in.enqueueAsync(r.Addr, wire.NewBatchRequest(legs))
	}
	return acked, copies
}

package core

import (
	"fmt"
	"slices"
	"sync"

	"zht/internal/ring"
	"zht/internal/wire"
)

// Server side of the batched request path: one OpBatch envelope
// carries N sub-operations, and the instance amortizes the per-request
// cost — migration gate, in-flight count, ownership, locks, replica
// round trips — across the whole envelope: locks are taken once per
// envelope and replica legs travel as one envelope per destination.
// This is the apply-loop half of the pipeline the paper's
// connection-caching ablation (§III.F) motivates at the transport
// level: once messages are cheap to carry, the next win is making each
// message carry more work.

// batchScratch is one envelope's working set, pooled so grouping,
// locking and the replica fan-out allocate nothing per partition
// group. It is flat: tags order the KV sub-ops by partition, a group is
// a run of tags, and the leg arrays are indexed by applied position —
// the envelope's successful mutations in apply order, so each group's
// legs are one contiguous run of them.
type batchScratch struct {
	tags    []int64 // partition<<32 | sub-op index, sorted
	groups  []batchGroup
	applied []int           // sub-op index per applied position
	legVals [][]byte        // leg value where it differs from the request's (appends)
	fwds    []wire.Request  // the OpReplicate leg per applied position
	legs    []*wire.Request // the destination envelope being assembled
	members []int           // groups whose legs that envelope carries
	pending []int           // groups with a leg still to ship this round
	// vals is an envelope's value arena: every looked-up value of the
	// envelope is appended here, and its sub-response aliases it until
	// the envelope response is encoded. A single op does without.
	vals       []byte
	inEnvelope bool // lookups answer into vals
	// A single op's request and response slots (handleKV runs it as a
	// batch of one), and the response of a one-leg sync round.
	one     [1]*wire.Request
	oneResp [1]*wire.Response
	legResp [1]*wire.Response
}

// maxArena caps the value arena capacity a pooled scratch keeps.
const maxArena = 64 << 10

// batchGroup is one partition's run of sub-ops: tags[lo:hi], and
// applied[alo:ahi] once applied.
type batchGroup struct {
	p        int
	lo, hi   int
	alo, ahi int
	live     bool // not yet answered with a routing verdict
	part     *partition
	peers    []ring.Instance // non-self replicas in ring order
	syncNeed int             // replica acks the group's strictest level needs
	acked    int             // rounds in which every leg of the group succeeded
}

// syncIn reports whether g's leg in round k is synchronous: always to
// the first replica, and to later ones while g holds fewer acks than
// its level needs (straggler promotion).
func (g *batchGroup) syncIn(k int) bool { return k == 0 || g.acked < g.syncNeed }

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release clears every reference the envelope left in sc — request
// memory, stores, replica sets — and returns it to the pool.
func (sc *batchScratch) release() {
	clear(sc.groups)
	clear(sc.legVals)
	clear(sc.fwds)
	clear(sc.legs)
	sc.one[0], sc.oneResp[0], sc.legResp[0] = nil, nil, nil
	sc.vals, sc.inEnvelope = sc.vals[:0], false
	if cap(sc.vals) > maxArena {
		sc.vals = nil
	}
	sc.tags, sc.groups, sc.applied = sc.tags[:0], sc.groups[:0], sc.applied[:0]
	sc.legVals, sc.fwds, sc.legs = sc.legVals[:0], sc.fwds[:0], sc.legs[:0]
	sc.members, sc.pending = sc.members[:0], sc.pending[:0]
	batchPool.Put(sc)
}

// fan answers every slot of group g with a copy of the routing
// verdict r and drops g from the rest of the envelope: ops for one
// partition route all-or-nothing, so the client re-routes them
// together. The copies share r's Table backing but never own it.
func (sc *batchScratch) fan(g *batchGroup, resps []*wire.Response, r *wire.Response) {
	for _, t := range sc.tags[g.lo:g.hi] {
		resps[t&0xffffffff].ShareFrom(r)
	}
	g.live = false
}

// handleBatch serves an OpBatch envelope: decode the sub-requests,
// group them by partition, apply them under one acquisition of every
// lock the envelope needs, and pack the sub-responses (input order)
// into the envelope response.
//
// The envelope costs its memory once, not per sub-op: the
// sub-requests are decoded by value into one pooled slab, the
// sub-responses are answered into the same slab, looked-up values are
// copied into the scratch's one value arena, and all of it is released
// once the envelope response is encoded. Like a single op, the
// envelope is served on the connection's read loop unless one of its
// sub-ops may block (servesInline); only then does it detach.
func (in *Instance) handleBatch(req *wire.Request) *wire.Response {
	slab, err := wire.DecodeOpsSlab(req.Aux)
	if err != nil {
		return wire.ErrorReply("core: bad batch: " + err.Error())
	}
	subs := slab.Reqs
	resps := slab.Responses(len(subs))
	for _, s := range subs {
		if !in.servesInline(s) {
			req.Detach()
			break
		}
	}

	// Each KV sub-op gets a composite (partition, index) tag; sorting
	// the tags clusters each partition's ops contiguously, and the
	// index in the low bits keeps the order within a partition stable
	// (same key → same partition → same group, so per-key ordering
	// matches sequential execution). Non-partition ops dispatch
	// immediately, so their position relative to same-batch KV ops is
	// irrelevant.
	sc := batchPool.Get().(*batchScratch)
	sc.inEnvelope = true
	hasLegs := false
	// Admission releases collected for admitted KV sub-ops; every one
	// is called when the envelope finishes.
	var releases []func()
	defer func() {
		for _, rel := range releases {
			rel()
		}
	}()
	for i, s := range subs {
		switch s.Op {
		case wire.OpInsert, wire.OpLookup, wire.OpRemove, wire.OpAppend, wire.OpCas:
			// Each KV sub-op passes the same admission and size gates as
			// a single op: a shed or oversized slot gets its verdict here
			// and never joins a partition group, so one over-quota
			// tenant's slots cannot ride a well-behaved tenant's batch.
			release, refused := in.admit(s)
			if refused != nil {
				resps[i].Take(refused)
				continue
			}
			if release != nil {
				releases = append(releases, release)
			}
			p := in.tableRef().Partition(in.hashf(s.Key))
			sc.tags = append(sc.tags, int64(p)<<32|int64(i))
		case wire.OpReplicate:
			// Batched replication legs apply in input order — the order
			// the primary applied them — via the ordinary replicate
			// handler; grouping would buy nothing (no locks, no fan-out).
			in.handleReplicate(s, resps[i])
			hasLegs = true
		default:
			resps[i].Take(in.Handle(s))
		}
	}
	if hasLegs {
		// One commit for every leg of the envelope — a sync round, a leg
		// queue drain or a handoff replay — before any of them is acked.
		if err := in.log.Commit(); err != nil {
			for i, s := range subs {
				if s.Op == wire.OpReplicate {
					setErr(resps[i], err)
				}
			}
		}
	}
	if len(sc.tags) > 0 {
		// req detaches if a migration gate has to wait: the delta that
		// ends the wait may arrive on this connection.
		in.applyBatch(subs, resps, sc, req)
	}
	// Sub-responses carry the epoch piggyback too: batch transports
	// unpack the envelope, so the envelope's own stamp is not visible
	// to the batch client.
	epoch := in.Epoch()
	for _, r := range resps {
		if r.Epoch == 0 {
			r.Epoch = epoch
		}
	}
	// The envelope now carries everything, so the arena and the slab go
	// back to their pools.
	env := wire.NewBatchResponse(resps)
	sc.release()
	slab.Release()
	return env
}

// applyBatch is the instance's one write pipeline. It runs KV ops —
// an envelope's sub-ops, or a single op as a batch of one — through
// migration gate, post-gate ownership, store, apply, commit, replicate,
// and write-level enforcement, paying the WAL commit and each replica
// round trip once per envelope rather than once per partition or per
// record.
// It answers sub-op i into resps[i], a zeroed response the caller owns.
// A migration gate that must wait detaches detach first.
//
// Every group that passed the migration gate holds its partition's
// in-flight count across the apply and every synchronous replica
// round, so a migration's drain waits for the group. No lock above the
// store is held: each store stamps a key's writes in the order it
// applies them, and replicas take the newest stamp (DESIGN.md §12), so
// envelopes overlap freely — feeding the stores' group-commit WALs
// whole batches.
//
// applyBatch only sequences the phases and holds the locks, so its
// frame stays small under the replica round trip: a TCP server runs a
// detached request's successor on a fresh goroutine, whose stack each
// extra frame on this path can force to grow once more.
func (in *Instance) applyBatch(subs []*wire.Request, resps []*wire.Response, sc *batchScratch, detach *wire.Request) {
	table := in.lockBatch(resps, sc, detach)
	defer addInflight(sc.groups, -1)
	if in.applyGroups(subs, resps, sc) {
		in.commitGroups(subs, resps, sc)
	}
	if len(sc.applied) == 0 {
		return
	}
	in.replicateEnvelope(table, subs, sc)
	in.settleGroups(subs, resps, sc)
}

// lockBatch groups the sorted tags by partition, answers every group
// that may not be served here with its routing verdict and enters the
// in-flight count of the rest (applyBatch exits those still live); it
// returns the table snapshot ownership was judged on.
func (in *Instance) lockBatch(resps []*wire.Response, sc *batchScratch, detach *wire.Request) *ring.Table {
	if len(sc.tags) > 1 {
		slices.Sort(sc.tags)
	}
	tags := sc.tags
	for k := 0; k < len(tags); {
		lo, p := k, int(tags[k]>>32)
		for k < len(tags) && int(tags[k]>>32) == p {
			k++
		}
		// Set in place: copying a whole batchGroup literal into the slice
		// is a measurable share of a single op.
		sc.groups = append(sc.groups, batchGroup{})
		g := &sc.groups[len(sc.groups)-1]
		g.p, g.lo, g.hi, g.live, g.part = p, lo, k, true, &in.parts[p]
	}
	groups := sc.groups

	// The gate (a partition being given away queues its ops until the
	// move resolves, §III.C): each live group enters its partition's
	// in-flight count, held through the apply so a migration's drain
	// waits for it and its final sync cannot miss an acknowledged write,
	// and only then reads the migration record, so a move that began
	// before the count was entered, whose drain may have read zero, is
	// seen. A group that finds a move exits every count the envelope
	// holds, waits for the move to resolve and starts the pass again: no
	// count is held while the envelope waits, since a join moves its
	// partitions one at a time before it commits.
	for gi := 0; gi < len(groups); gi++ {
		g := &groups[gi]
		if !g.live {
			continue
		}
		g.part.inflight.Add(1)
		if testGatePass != nil {
			testGatePass(in, g.p)
		}
		ps := g.part.mig.Load()
		if ps == nil {
			continue
		}
		addInflight(groups[:gi+1], -1)
		if resp := in.awaitMove(ps, detach); resp != nil {
			sc.fan(g, resps, resp)
		}
		gi = -1 // start the pass again
	}

	// Ownership is evaluated on one table snapshot taken AFTER the
	// gate: an op racing a just-completed migration would otherwise
	// pass its gate, then consult a pre-migration table and apply a
	// write to a partition that has already moved away.
	table := in.tableRef()
	var wrongOwner *wire.Response
	for gi := range groups {
		g := &groups[gi]
		if !g.live || table.OwnerOf(g.p).ID == in.self.ID {
			continue
		}
		if wrongOwner == nil {
			wrongOwner = &wire.Response{Status: wire.StatusWrongOwner, Table: ring.EncodeTable(table)}
		}
		g.part.inflight.Add(-1)
		sc.fan(g, resps, wrongOwner)
	}
	return table
}

// applyGroups applies every live group's sub-ops. Every mutation is
// version-stamped, so replicas resolve reordered legs last-writer-wins
// instead of diverging: the envelope reads the clock's floor once, at
// its first mutation, and each store stamps a write at that floor or
// above the key's stored stamp, so a key touched twice in one envelope
// gets rising stamps. applied collects the replicated ones that
// succeeded, in apply order — the order replicas must see them in —
// alongside each one's replica leg and, where the leg value differs
// from the request's (appends), the scratch holding the full value the
// leg carries. The stores only stage the mutations' log records; it
// reports whether any mutation ran, so applyBatch owes a commit.
func (in *Instance) applyGroups(subs []*wire.Request, resps []*wire.Response, sc *batchScratch) (mutated bool) {
	var arena *[]byte
	if sc.inEnvelope {
		arena = &sc.vals
	}

	var floor uint64
	for gi := range sc.groups {
		g := &sc.groups[gi]
		if !g.live {
			continue
		}
		g.alo = len(sc.applied)
		s := in.open(g.part)
		for _, t := range sc.tags[g.lo:g.hi] {
			i := int(t & 0xffffffff)
			if subs[i].Op == wire.OpLookup {
				in.applyLookup(s, subs[i], resps[i], arena)
				continue
			}
			if !mutated {
				mutated, floor = true, in.clock.Floor()
			}
			ver, legVal := in.applyMutation(s, subs[i], resps[i], floor)
			if resps[i].Status != wire.StatusOK || !in.mutates(subs[i]) {
				if legVal != nil {
					wire.PutBuffer(legVal)
				}
				continue
			}
			sc.applied = append(sc.applied, i)
			sc.legVals = append(sc.legVals, legVal)
			sc.fwds = append(sc.fwds, replicaFwd(g.p, subs[i], ver, legVal))
		}
		g.ahi = len(sc.applied)
	}
	return mutated
}

// commitGroups commits the log records the envelope's mutations
// staged — one WAL commit for the whole envelope, at the log's
// durability mode — before any replica leg leaves, so a replica never
// holds a write its primary could still lose. If the commit fails, no
// mutation of the envelope is acknowledged or replicated: each answers
// the error, since a prefix of the envelope's records may be lost.
func (in *Instance) commitGroups(subs []*wire.Request, resps []*wire.Response, sc *batchScratch) {
	err := in.log.Commit()
	if err == nil {
		return
	}
	for gi := range sc.groups {
		g := &sc.groups[gi]
		if !g.live {
			continue
		}
		for _, t := range sc.tags[g.lo:g.hi] {
			if i := t & 0xffffffff; subs[i].Op != wire.OpLookup {
				resps[i].Value = nil
				setErr(resps[i], err)
			}
		}
		g.ahi = g.alo
	}
	for _, lv := range sc.legVals {
		if lv != nil {
			wire.PutBuffer(lv)
		}
	}
	clear(sc.legVals)
	clear(sc.fwds)
	sc.applied, sc.legVals, sc.fwds = sc.applied[:0], sc.legVals[:0], sc.fwds[:0]
}

// settleGroups releases the applied legs' value scratch and enforces
// each sub-op's own write level against the acks its group collected:
// an ack means that replica applied the group's every leg, so
// per-sub-op acks within a group are identical and only the demanded
// level differs. A refused write is not rolled back: handoff replay or
// anti-entropy finishes spreading it (DESIGN.md §12).
func (in *Instance) settleGroups(subs []*wire.Request, resps []*wire.Response, sc *batchScratch) {
	for gi := range sc.groups {
		g := &sc.groups[gi]
		for j := g.alo; j < g.ahi; j++ {
			i := sc.applied[j]
			if lv := sc.legVals[j]; lv != nil {
				wire.PutBuffer(lv)
			}
			if need := in.writeLevel(subs[i]).Acks(1 + len(g.peers)); need > 1 {
				in.met.quorumWrites.Inc()
				if g.acked+1 < need {
					resps[i].Status = wire.StatusQuorumNotMet
					resps[i].Err = fmt.Sprintf("core: quorum not met (%d/%d acks)", g.acked+1, need)
				}
			}
		}
	}
}

// replicateEnvelope pushes the envelope's applied mutations along
// their replica chains in rounds. Round k carries every group's legs
// for its k-th non-self replica, and all legs bound for one
// destination in a round ride one envelope — so a server envelope
// costs one replica round trip per destination per round, however
// many partitions it touched. A group's leg is synchronous in round 0
// (the paper's strongly paired first replica, §III.J, at every level:
// even ONE keeps an eagerly consistent second copy, and the level only
// decides how many acks success waits on) and in any later round while
// the group holds fewer acks than its strictest sub-op's level needs
// (straggler promotion: the level counts acks, not positions);
// otherwise it joins the destination's one async envelope, whose leg
// queue keeps per-key order. A group earns a round's ack only if every
// one of its legs in the envelope succeeded.
func (in *Instance) replicateEnvelope(table *ring.Table, subs []*wire.Request, sc *batchScratch) {
	groups := sc.groups
	rounds := 0
	// The replica set depends only on the owner, so groups with the
	// same owner — normally all of them — share one.
	lastOwner := -1
	var peers []ring.Instance
	for gi := range groups {
		g := &groups[gi]
		if g.alo == g.ahi {
			continue
		}
		if o := table.Owner[g.p]; o != lastOwner {
			lastOwner = o
			reps := table.ReplicasOf(g.p, in.cfg.Replicas)
			peers = reps[:0]
			for _, r := range reps {
				if r.ID != in.self.ID {
					peers = append(peers, r)
				}
			}
		}
		g.peers = peers
		for j := g.alo; j < g.ahi; j++ {
			g.syncNeed = max(g.syncNeed, in.writeLevel(subs[sc.applied[j]]).Acks(1+len(peers))-1)
		}
		rounds = max(rounds, len(peers))
	}

	for k := 0; k < rounds; k++ {
		sc.pending = sc.pending[:0]
		for gi := range groups {
			if k < len(groups[gi].peers) {
				sc.pending = append(sc.pending, gi)
			}
		}
		// Peel off one (destination, sync-ness) envelope at a time. A
		// group's acks change only once its leg has shipped, so syncIn
		// is stable for every group still pending in this round.
		for len(sc.pending) > 0 {
			lead := &groups[sc.pending[0]]
			addr, sync := lead.peers[k].Addr, lead.syncIn(k)
			sc.legs, sc.members = sc.legs[:0], sc.members[:0]
			rest := sc.pending[:0]
			for _, gi := range sc.pending {
				g := &groups[gi]
				if g.peers[k].Addr != addr || g.syncIn(k) != sync {
					rest = append(rest, gi)
					continue
				}
				sc.members = append(sc.members, gi)
				for j := g.alo; j < g.ahi; j++ {
					sc.legs = append(sc.legs, &sc.fwds[j])
				}
			}
			sc.pending = rest
			if sync {
				in.syncEnvelope(addr, sc)
			} else {
				// The envelope is encoded here, so it holds no reference
				// to the scratch legs.
				in.legs.Enqueue(addr, wire.NewBatchRequest(sc.legs))
			}
		}
	}
}

// syncEnvelope sends sc.legs to addr as one synchronous CallBatch —
// or, when the round carries a single leg, as a plain Call, which
// skips the envelope codec and its slices — and credits an ack to each
// member group whose legs all succeeded. A failed leg is a consistency
// gap until repaired: it is counted, and the round's failed legs are
// handed off as one envelope to the destination's leg queue, so the gap
// closes when the peer answers again. While the leg queue holds the
// destination failing, the round skips the transport and hands every
// leg off, so a dead peer costs nothing per mutation and the legs land
// behind the ones that failed first.
func (in *Instance) syncEnvelope(addr string, sc *batchScratch) {
	var rs []*wire.Response
	if !in.legs.Failing(addr) {
		var err error
		if len(sc.legs) == 1 {
			sc.legResp[0], err = in.caller.Call(addr, sc.legs[0])
			rs = sc.legResp[:]
		} else {
			rs, err = in.caller.CallBatch(addr, sc.legs)
		}
		if err != nil {
			rs = nil
		}
	}
	// Failed legs are compacted to the front of sc.legs in order.
	pos, failed := 0, 0
	for _, gi := range sc.members {
		g := &sc.groups[gi]
		ok := true
		for j := g.alo; j < g.ahi; j, pos = j+1, pos+1 {
			if pos < len(rs) && rs[pos].Status == wire.StatusOK {
				continue
			}
			ok = false
			sc.legs[failed] = sc.legs[pos]
			failed++
		}
		if ok {
			g.acked++
		}
	}
	wire.ReleaseResponses(rs)
	if failed > 0 {
		in.met.syncErrors.Add(int64(failed))
		in.legs.HandOff(addr, wire.NewBatchRequest(sc.legs[:failed]))
	}
}

// addInflight adds d to the in-flight count of every live group's
// partition: 1 enters the groups, -1 exits them.
func addInflight(groups []batchGroup, d int32) {
	for gi := range groups {
		if groups[gi].live {
			groups[gi].part.inflight.Add(d)
		}
	}
}

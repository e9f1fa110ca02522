package core

import (
	"fmt"

	"zht/internal/repair"
	"zht/internal/storage"
	"zht/internal/wire"
)

// The leaf stream: the one way stamped pairs move between copies of a
// partition outside replica legs (DESIGN.md §10). Migration, replica
// rebuild and anti-entropy all diff Merkle digests
// (OpDigest) and move the divergent leaves' contents in chunks of
// OpRepairPull pulls or pushes, so a transfer costs what diverged, not
// what exists. A migration streams while the old owner keeps serving:
// a full pass, then digest catch-up rounds that shrink the divergence
// the live traffic reopens; only the final sync runs behind the
// migration lock, so the unavailability window covers the residue of
// one round, not the whole partition.

// migrateCatchupRounds bounds the unlocked digest catch-up passes one
// streaming transfer runs before cutover. Whatever divergence survives
// (sustained write pressure on the moving partition) is closed by the
// locked final sync.
const migrateCatchupRounds = 5

// migrateLeavesPerPull is how many Merkle leaves one pull or push
// round trip moves: an eighth of a partition's storage.Leaves, so the
// throttle paces a transfer in fine steps.
const migrateLeavesPerPull = 8

// The OpMigrate requests, by Aux. A lock asks the current owner to
// lock a partition for cutover: begin the migration (queue new
// requests), drain in-flight appliers, and hold until the membership
// delta — or the watchdog — resolves the move. An abort rolls a lock
// back. No pairs travel in either; content moves through the leaf
// stream.
var (
	migrateLockMarker  = []byte("lock")
	migrateAbortMarker = []byte("abort")
)

// tally counts what a leaf transfer moved; callers decide which
// metrics it feeds.
type tally struct {
	leaves, pairs, bytes int
	rounds               int // diffs that found divergence (converge)
}

func (t *tally) add(o tally) {
	t.leaves += o.leaves
	t.pairs += o.pairs
	t.bytes += o.bytes
	t.rounds += o.rounds
}

// chunkMover moves the given leaves of partition p between this
// instance and the peer at addr, migrateLeavesPerPull at a time:
// pullChunks or pushChunks. wholesale says the source's image is
// complete, so the receiver deletes keys absent from it; thr (nil =
// unlimited) paces the transfer by payload bytes.
type chunkMover func(addr string, p int, leaves []int, wholesale bool, thr *repair.Throttle) (tally, error)

// pullChunks fetches the given leaves of partition p from addr and
// converges the local ranges toward each chunk (applyLeafContent).
func (in *Instance) pullChunks(addr string, p int, leaves []int, wholesale bool, thr *repair.Throttle) (tally, error) {
	var t tally
	for _, ls := range leafChunks(leaves) {
		c, err := in.pullChunk(addr, p, ls, wholesale, thr)
		t.add(c)
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// pullChunk is pullChunks for one chunk of leaves, ls.
func (in *Instance) pullChunk(addr string, p int, ls []int, wholesale bool, thr *repair.Throttle) (tally, error) {
	resp, err := in.caller.Call(addr, &wire.Request{
		Op: wire.OpRepairPull, Partition: int64(p),
		Aux: repair.EncodeLeafSet(ls),
	})
	if err != nil {
		return tally{}, err
	}
	defer wire.PutResponse(resp)
	if resp.Status != wire.StatusOK {
		return tally{}, fmt.Errorf("core: pull partition %d leaves from %s: %s", p, addr, resp.Err)
	}
	thr.Take(len(resp.Value))
	pairs, err := repair.DecodePairs(resp.Value)
	if err != nil {
		return tally{}, err
	}
	if err := in.applyLeafContent(p, ls, pairs, wholesale); err != nil {
		return tally{}, err
	}
	return tally{leaves: len(ls), pairs: len(pairs), bytes: len(resp.Value)}, nil
}

// pushChunks sends the given leaves of partition p to addr as repair
// pushes, flagged wire.FlagWholesale when wholesale is set.
func (in *Instance) pushChunks(addr string, p int, leaves []int, wholesale bool, thr *repair.Throttle) (tally, error) {
	var flags uint8
	if wholesale {
		flags = wire.FlagWholesale
	}
	var t tally
	for _, ls := range leafChunks(leaves) {
		pairs, err := in.collectLeafPairs(p, ls)
		if err != nil {
			return t, err
		}
		enc := repair.EncodePairs(pairs)
		thr.Take(len(enc))
		r, err := call(in.caller, addr, &wire.Request{
			Op: wire.OpRepairPull, Partition: int64(p), Flags: flags,
			Aux: repair.EncodeLeafSet(ls), Value: enc,
		})
		if err != nil {
			return t, err
		}
		if r.status != wire.StatusOK {
			return t, fmt.Errorf("core: push partition %d leaves to %s: %s", p, addr, r.err)
		}
		t.add(tally{leaves: len(ls), pairs: len(pairs), bytes: len(enc)})
	}
	return t, nil
}

// converge runs up to rounds digest diffs of partition p against the
// peer at addr, each followed by moving the divergent leaves, and
// stops at the first diff that finds none.
func (in *Instance) converge(addr string, p, rounds int, move chunkMover, wholesale bool, thr *repair.Throttle) (tally, error) {
	var t tally
	for r := 0; r < rounds; r++ {
		diff, err := in.diffLeaves(addr, p)
		if err != nil || len(diff) == 0 {
			return t, err
		}
		t.rounds++
		m, err := move(addr, p, diff, wholesale, thr)
		t.add(m)
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// diffLeaves returns the Merkle leaves of partition p where the local
// store and the peer at addr diverge.
func (in *Instance) diffLeaves(addr string, p int) ([]int, error) {
	resp, err := in.caller.Call(addr, &wire.Request{Op: wire.OpDigest, Partition: int64(p)})
	if err != nil {
		return nil, err
	}
	defer wire.PutResponse(resp)
	if resp.Status != wire.StatusOK {
		return nil, fmt.Errorf("core: digest of partition %d from %s: %s", p, addr, resp.Err)
	}
	remote, err := in.remoteDigest(resp.Value)
	if err != nil {
		return nil, err
	}
	return repair.DiffLeaves(in.PartitionDigest(p), remote), nil
}

// migrateStream streams partition p between this instance and the peer
// at addr while the owner keeps serving: one full pass over every leaf,
// then up to migrateCatchupRounds digest catch-up rounds, all paced by
// thr. move is pullChunks for a join (the peer is the live owner) and
// pushChunks for a departure (this instance is); either way the
// source's image is complete, so the transfer is wholesale. A non-nil
// error aborts the membership change.
func (in *Instance) migrateStream(addr string, p int, move chunkMover, thr *repair.Throttle) error {
	t, err := move(addr, p, allLeaves(), true, thr)
	if err == nil {
		var c tally
		c, err = in.converge(addr, p, migrateCatchupRounds, move, true, thr)
		in.met.migRounds.Add(int64(c.rounds))
		t.add(c)
	}
	in.countMigration(t)
	return err // residue closes in the locked final sync
}

// migrateFinal converges partition p against addr once the owner has
// locked and drained it: one digest diff, one move of whatever
// divergence the live traffic left. It runs inside the cutover window,
// so it is deliberately not rate-limited.
func (in *Instance) migrateFinal(addr string, p int, move chunkMover) error {
	t, err := in.converge(addr, p, 1, move, true, nil)
	in.countMigration(t)
	return err
}

func (in *Instance) countMigration(t tally) {
	in.met.migBytes.Add(int64(t.bytes))
	in.met.migPairs.Add(int64(t.pairs))
}

// allLeaves lists every Merkle leaf index of a partition.
func allLeaves() []int {
	out := make([]int, storage.Leaves)
	for i := range out {
		out[i] = i
	}
	return out
}

// leafChunks splits a leaf set into chunks of migrateLeavesPerPull.
func leafChunks(leaves []int) [][]int {
	var out [][]int
	for i := 0; i < len(leaves); i += migrateLeavesPerPull {
		out = append(out, leaves[i:min(i+migrateLeavesPerPull, len(leaves))])
	}
	return out
}

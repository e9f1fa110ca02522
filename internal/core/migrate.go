package core

import (
	"fmt"

	"zht/internal/repair"
	"zht/internal/storage"
	"zht/internal/wire"
)

// Throttled streaming migration (DESIGN.md §10): instead of moving a
// partition as one unthrottled whole-partition image while requests
// queue, membership changes stream its contents in bounded leaf
// chunks — reusing the repair subsystem's Merkle digests and leaf
// transfer codec — while the old owner keeps serving. Multi-round
// digest catch-up shrinks the divergence the live traffic reopens;
// only the final sync runs behind the migration lock, so the
// unavailability window covers the residue of one round, not the
// whole partition.

// migrateCatchupRounds bounds the unlocked digest catch-up passes one
// streaming transfer runs before cutover. Whatever divergence survives
// (sustained write pressure on the moving partition) is closed by the
// locked final sync.
const migrateCatchupRounds = 5

// migrateLeavesPerPull is how many Merkle leaves one migration pull or
// push round trip moves: an eighth of a partition's storage.Leaves, so
// the throttle paces a transfer in fine steps.
const migrateLeavesPerPull = 8

// migrateLockMarker is the OpMigrate Aux that asks the current owner
// to lock a partition for cutover: begin the migration (queue new
// requests), drain in-flight appliers, and hold until the membership
// delta — or the watchdog — resolves the move. Unlike the legacy pull
// path it carries no image back; the requester streams content
// through repair pulls instead.
var migrateLockMarker = []byte("lock")

// migratePull streams partition p from the owner at src into the
// local store: one full pass over all Merkle leaves in chunks of
// migrateLeavesPerPull, then unlocked digest catch-up rounds. src
// keeps serving throughout; thr caps the transfer rate. A non-nil
// error aborts the join.
func (in *Instance) migratePull(src string, p int, thr *repair.Throttle) error {
	if err := in.pullLeafChunks(src, p, allLeaves(), thr); err != nil {
		return err
	}
	for r := 0; r < migrateCatchupRounds; r++ {
		diff, err := in.migrateDiff(src, p)
		if err != nil {
			return err
		}
		if len(diff) == 0 {
			return nil
		}
		in.met.migRounds.Inc()
		if err := in.pullLeafChunks(src, p, diff, thr); err != nil {
			return err
		}
	}
	return nil // residue closes in the locked final sync
}

// migrateFinalPull converges partition p against the now-quiesced
// owner at src: one digest diff, one unthrottled pull of whatever
// divergence the live traffic left. Runs inside the cutover window, so
// it is deliberately not rate-limited.
func (in *Instance) migrateFinalPull(src string, p int) error {
	diff, err := in.migrateDiff(src, p)
	if err != nil {
		return err
	}
	if len(diff) == 0 {
		return nil
	}
	return in.pullLeafChunks(src, p, diff, nil)
}

// migratePush is migratePull with the roles reversed: the departing
// owner streams partition p into dst, which passively applies leaf
// content. Same full pass + catch-up round structure.
func (in *Instance) migratePush(dst string, p int, thr *repair.Throttle) error {
	if err := in.pushLeafChunks(dst, p, allLeaves(), thr); err != nil {
		return err
	}
	for r := 0; r < migrateCatchupRounds; r++ {
		diff, err := in.migrateDiff(dst, p)
		if err != nil {
			return err
		}
		if len(diff) == 0 {
			return nil
		}
		in.met.migRounds.Inc()
		if err := in.pushLeafChunks(dst, p, diff, thr); err != nil {
			return err
		}
	}
	return nil
}

// migrateFinalPush converges dst's copy of partition p after this
// instance locked and drained it; unthrottled for the same reason as
// migrateFinalPull.
func (in *Instance) migrateFinalPush(dst string, p int) error {
	diff, err := in.migrateDiff(dst, p)
	if err != nil {
		return err
	}
	if len(diff) == 0 {
		return nil
	}
	return in.pushLeafChunks(dst, p, diff, nil)
}

// migrateDiff returns the Merkle leaves of partition p where the
// local store and the peer at addr diverge.
func (in *Instance) migrateDiff(addr string, p int) ([]int, error) {
	resp, err := in.caller.Call(addr, &wire.Request{Op: wire.OpDigest, Partition: int64(p)})
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StatusOK {
		return nil, fmt.Errorf("core: digest of partition %d from %s: %s", p, addr, resp.Err)
	}
	remote, err := repair.DecodeDigest(resp.Value)
	if err != nil {
		return nil, err
	}
	return repair.DiffLeaves(in.PartitionDigest(p), remote), nil
}

// pullLeafChunks fetches the given leaves of partition p from addr in
// chunks of migrateLeavesPerPull, replacing local leaf contents
// wholesale; thr (nil = unlimited) paces the transfer by response
// bytes.
func (in *Instance) pullLeafChunks(addr string, p int, leaves []int, thr *repair.Throttle) error {
	for _, ls := range leafChunks(leaves) {
		resp, err := in.caller.Call(addr, &wire.Request{
			Op: wire.OpRepairPull, Partition: int64(p),
			Aux: repair.EncodeLeafSet(ls),
		})
		if err != nil {
			return err
		}
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("core: pull partition %d leaves from %s: %s", p, addr, resp.Err)
		}
		thr.Take(len(resp.Value))
		pairs, err := repair.DecodePairs(resp.Value)
		if err != nil {
			return err
		}
		// The source holds the partition locked (or is its live owner
		// mid-stream): its leaf image is complete, so the pull is
		// wholesale — local absentees are deleted.
		if err := in.applyLeafContent(p, ls, pairs, true); err != nil {
			return err
		}
		in.met.migBytes.Add(int64(len(resp.Value)))
		in.met.migPairs.Add(int64(len(pairs)))
	}
	return nil
}

// pushLeafChunks sends the given leaves of partition p to addr in
// chunks, as repair pushes the receiver applies wholesale.
func (in *Instance) pushLeafChunks(addr string, p int, leaves []int, thr *repair.Throttle) error {
	for _, ls := range leafChunks(leaves) {
		pairs, err := in.collectLeafPairs(p, ls)
		if err != nil {
			return err
		}
		enc := repair.EncodePairs(pairs)
		thr.Take(len(enc))
		resp, err := in.caller.Call(addr, &wire.Request{
			Op: wire.OpRepairPull, Partition: int64(p),
			Aux: repair.EncodeLeafSet(ls), Value: enc,
			// The pusher is the partition's owner giving it away: its
			// image is complete, so the receiver may delete absentees.
			Flags: wire.FlagWholesale,
		})
		if err != nil {
			return err
		}
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("core: push partition %d leaves to %s: %s", p, addr, resp.Err)
		}
		in.met.migBytes.Add(int64(len(enc)))
		in.met.migPairs.Add(int64(len(pairs)))
	}
	return nil
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
		end := i + migrateLeavesPerPull
		if end > len(leaves) {
			end = len(leaves)
		}
		out = append(out, leaves[i:end])
	}
	return out
}

package ring

import (
	"errors"
	"fmt"
	"slices"
)

// Delta is an incremental membership update, sent by managers so every
// table converges without shipping the full table (paper §III.C: "the
// manager broadcasts out the incremental information of membership in
// an atomic manner"; here a manager sends it to the CopyHolders only).
type Delta struct {
	// FromEpoch is the epoch this delta applies on top of; applying
	// it yields FromEpoch+1.
	FromEpoch uint64
	// AddInstance, when non-zero, appends a new instance to the ring.
	AddInstance *Instance
	// SetStatus marks existing instances (by ID) with a new status.
	SetStatus map[InstanceID]Status
	// Reassign moves partitions to new owners (by instance ID).
	Reassign map[int]InstanceID
}

// ErrEpochMismatch reports a delta that does not apply to the table's
// current epoch; the holder must fetch a full table instead.
var ErrEpochMismatch = errors.New("ring: delta epoch mismatch")

// Apply produces the next-epoch table with the delta applied. The
// receiver is not modified.
func (t *Table) Apply(d Delta) (*Table, error) {
	if d.FromEpoch != t.Epoch {
		return nil, fmt.Errorf("%w: table at %d, delta from %d", ErrEpochMismatch, t.Epoch, d.FromEpoch)
	}
	nt := t.Clone()
	nt.Epoch++
	if d.AddInstance != nil {
		if nt.IndexOf(d.AddInstance.ID) >= 0 {
			return nil, fmt.Errorf("ring: instance %q already a member", d.AddInstance.ID)
		}
		nt.Instances = append(nt.Instances, *d.AddInstance)
		nt.Status = append(nt.Status, Alive)
		nt.buildIndex() // Clone's index predates the append
	}
	for id, s := range d.SetStatus {
		i := nt.IndexOf(id)
		if i < 0 {
			return nil, fmt.Errorf("ring: SetStatus for unknown instance %q", id)
		}
		nt.Status[i] = s
	}
	for p, id := range d.Reassign {
		if p < 0 || p >= nt.NumPartitions {
			return nil, fmt.Errorf("ring: reassign of invalid partition %d", p)
		}
		i := nt.IndexOf(id)
		if i < 0 {
			return nil, fmt.Errorf("ring: reassign to unknown instance %q", id)
		}
		nt.Owner[p] = i
	}
	return nt, nil
}

// PlanJoin computes the delta admitting a new instance: it joins as the
// neighbour of the most-loaded node and takes over (roughly) half of
// that node's partitions (paper §III.C "Node Joins"). The returned
// partition list is what must be migrated before the delta is
// broadcast.
func (t *Table) PlanJoin(newcomer Instance) (Delta, []int, error) {
	if t.IndexOf(newcomer.ID) >= 0 {
		return Delta{}, nil, fmt.Errorf("ring: instance %q already a member", newcomer.ID)
	}
	busy := t.MostLoaded()
	if busy < 0 {
		return Delta{}, nil, errors.New("ring: no alive instance to relieve")
	}
	parts := t.PartitionsOf(busy)
	// Take the upper half of the busy instance's contiguous run.
	take := parts[len(parts)/2:]
	if len(parts) <= 1 {
		// The busy node has a single partition; the newcomer joins
		// with no partitions (the ring is saturated for now).
		take = nil
	}
	d := Delta{
		FromEpoch:   t.Epoch,
		AddInstance: &newcomer,
		Reassign:    make(map[int]InstanceID, len(take)),
	}
	for _, p := range take {
		d.Reassign[p] = newcomer.ID
	}
	return d, take, nil
}

// PlanDeparture computes the delta for a planned departure (§III.C
// "Node departures"): the departing instance's partitions migrate to
// its alive ring neighbours, then the instance is marked Departing.
// The returned map lists, per receiving instance index, the partitions
// it must absorb.
func (t *Table) PlanDeparture(id InstanceID) (Delta, map[int][]int, error) {
	idx := t.IndexOf(id)
	if idx < 0 {
		return Delta{}, nil, fmt.Errorf("ring: unknown instance %q", id)
	}
	if t.AliveCount() <= 1 {
		return Delta{}, nil, errors.New("ring: cannot depart the last alive instance")
	}
	parts := t.PartitionsOf(idx)
	d := Delta{
		FromEpoch: t.Epoch,
		SetStatus: map[InstanceID]Status{id: Departing},
		Reassign:  make(map[int]InstanceID, len(parts)),
	}
	moves := make(map[int][]int)
	// Spread the partitions over alive neighbours round-robin,
	// starting with the clockwise successor.
	var targets []int
	for step := 1; step < len(t.Instances); step++ {
		i := (idx + step) % len(t.Instances)
		if t.Status[i] == Alive && i != idx {
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		return Delta{}, nil, errors.New("ring: no alive neighbour to absorb partitions")
	}
	for n, p := range parts {
		tgt := targets[n%len(targets)]
		d.Reassign[p] = t.Instances[tgt].ID
		moves[tgt] = append(moves[tgt], p)
	}
	return d, moves, nil
}

// PlanFailure computes the delta for an unplanned failure (§III.C
// "Node departures", failure path): the failed node is marked Failed
// and each of its partitions fails over to the partition's first
// replica. Re-replication is initiated by the manager separately.
func (t *Table) PlanFailure(id InstanceID, replicas int) (Delta, error) {
	idx := t.IndexOf(id)
	if idx < 0 {
		return Delta{}, fmt.Errorf("ring: unknown instance %q", id)
	}
	d := Delta{
		FromEpoch: t.Epoch,
		SetStatus: map[InstanceID]Status{id: Failed},
		Reassign:  make(map[int]InstanceID),
	}
	// Failing over needs the replica set computed while the node is
	// still in the ring but excluded from candidacy: mark a scratch
	// copy failed first.
	scratch := t.Clone()
	scratch.Status[idx] = Failed
	for _, p := range t.PartitionsOf(idx) {
		reps := scratch.ReplicasOf(p, replicas)
		if len(reps) == 0 {
			return Delta{}, fmt.Errorf("ring: partition %d has no alive replica to fail over to", p)
		}
		d.Reassign[p] = reps[0].ID
	}
	return d, nil
}

// CopyHolders returns the instances holding a copy of a partition whose
// copy set — the owner plus ReplicasOf(p, replicas) — differs between
// old and nt. Holders in either table count: the instances that give up
// a copy as well as those that take one on or must rebuild one. These
// are the instances a membership change must reach directly; every
// other table converges through gossip.
func CopyHolders(old, nt *Table, replicas int) map[InstanceID]bool {
	holders := make(map[InstanceID]bool)
	for p := 0; p < nt.NumPartitions; p++ {
		if !CopySetChanged(old, nt, p, replicas) {
			continue
		}
		for _, id := range append(old.copySet(p, replicas), nt.copySet(p, replicas)...) {
			holders[id] = true
		}
	}
	return holders
}

// CopySetChanged reports whether partition p's copy set — the owner
// plus ReplicasOf(p, replicas) — differs between old and nt: whether
// the change moved a copy of p, so some instance lost or must take on
// one.
func CopySetChanged(old, nt *Table, p, replicas int) bool {
	return !slices.Equal(old.copySet(p, replicas), nt.copySet(p, replicas))
}

// copySet lists the IDs of partition p's owner and replicas.
func (t *Table) copySet(p, replicas int) []InstanceID {
	ids := []InstanceID{t.OwnerOf(p).ID}
	for _, in := range t.ReplicasOf(p, replicas) {
		ids = append(ids, in.ID)
	}
	return ids
}

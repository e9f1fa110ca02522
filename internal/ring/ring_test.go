package ring

import (
	"fmt"
	"maps"
	"math"
	"testing"
	"testing/quick"

	"zht/internal/hashing"
)

func mkInstances(k, perNode int) []Instance {
	var out []Instance
	for n := 0; n < k; n++ {
		for i := 0; i < perNode; i++ {
			out = append(out, Instance{
				ID:   InstanceID(fmt.Sprintf("uuid-%d-%d", n, i)),
				Addr: fmt.Sprintf("node%d:%d", n, 5000+i),
				Node: fmt.Sprintf("node%d", n),
			})
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, mkInstances(1, 1)); err == nil {
		t.Error("want error for zero partitions")
	}
	if _, err := New(10, nil); err == nil {
		t.Error("want error for no instances")
	}
	if _, err := New(2, mkInstances(4, 1)); err == nil {
		t.Error("want error when instances exceed partitions")
	}
	dup := mkInstances(2, 1)
	dup[1].ID = dup[0].ID
	if _, err := New(10, dup); err == nil {
		t.Error("want error for duplicate IDs")
	}
	empty := mkInstances(1, 1)
	empty[0].ID = ""
	if _, err := New(10, empty); err == nil {
		t.Error("want error for empty ID")
	}
}

func TestBalancedAssignment(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{1024, 4}, {1000, 7}, {16, 16}, {1 << 20, 64}} {
		tab, err := New(tc.n, mkInstances(tc.k, 1))
		if err != nil {
			t.Fatal(err)
		}
		load := tab.Load()
		min, max := tc.n, 0
		for _, l := range load {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if max-min > 1 {
			t.Errorf("n=%d k=%d: partition load imbalance %d..%d", tc.n, tc.k, min, max)
		}
		if err := tab.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestContiguousOwnership(t *testing.T) {
	tab, _ := New(100, mkInstances(5, 1))
	// Bootstrap assignment must give each instance one contiguous run.
	changes := 0
	for p := 1; p < tab.NumPartitions; p++ {
		if tab.Owner[p] != tab.Owner[p-1] {
			changes++
		}
	}
	if changes != len(tab.Instances)-1 {
		t.Errorf("ownership changes %d times; want %d (contiguous blocks)", changes, len(tab.Instances)-1)
	}
}

func TestPartitionMapping(t *testing.T) {
	tab, _ := New(1024, mkInstances(8, 1))
	if got := tab.Partition(0); got != 0 {
		t.Errorf("Partition(0) = %d", got)
	}
	if got := tab.Partition(math.MaxUint64); got != 1023 {
		t.Errorf("Partition(max) = %d, want 1023", got)
	}
	// Contiguity: partition is monotone non-decreasing in the hash.
	prev := -1
	for i := 0; i < 1000; i++ {
		h := uint64(i) * (math.MaxUint64 / 1000)
		p := tab.Partition(h)
		if p < prev {
			t.Fatalf("Partition not monotone: %d then %d", prev, p)
		}
		prev = p
	}
}

func TestPartitionUniform(t *testing.T) {
	tab, _ := New(64, mkInstances(4, 1))
	counts := make([]int, 64)
	const n = 100000
	for i := 0; i < n; i++ {
		// Lookup3 has the strongest high-bit mixing of the provided
		// functions; partitioning keys on contiguous hash ranges
		// depends on exactly those bits.
		counts[tab.Partition(hashing.Lookup3(fmt.Sprintf("key-%d", i)))]++
	}
	expect := float64(n) / 64
	for p, c := range counts {
		if math.Abs(float64(c)-expect) > expect*0.3 {
			t.Errorf("partition %d holds %d keys, expect %.0f±30%%", p, c, expect)
		}
	}
}

func TestLookupMatchesOwner(t *testing.T) {
	tab, _ := New(256, mkInstances(16, 2))
	err := quick.Check(func(h uint64) bool {
		return tab.Lookup(h) == tab.OwnerOf(tab.Partition(h))
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestReplicasDistinctNodes(t *testing.T) {
	// 4 physical nodes × 2 instances: replicas must land on distinct
	// physical nodes, never the owner's node.
	tab, _ := New(64, mkInstances(4, 2))
	for p := 0; p < tab.NumPartitions; p++ {
		reps := tab.ReplicasOf(p, 2)
		if len(reps) != 2 {
			t.Fatalf("partition %d: got %d replicas, want 2", p, len(reps))
		}
		nodes := map[string]bool{tab.OwnerOf(p).Node: true}
		for _, r := range reps {
			if nodes[r.Node] {
				t.Fatalf("partition %d: replica on duplicate node %s", p, r.Node)
			}
			nodes[r.Node] = true
		}
	}
}

func TestReplicasSkipFailed(t *testing.T) {
	tab, _ := New(64, mkInstances(4, 1))
	// Fail the clockwise successor of partition 0's owner.
	owner := tab.Owner[0]
	succ := (owner + 1) % len(tab.Instances)
	tab.Status[succ] = Failed
	reps := tab.ReplicasOf(0, 2)
	for _, r := range reps {
		if r.ID == tab.Instances[succ].ID {
			t.Error("replica set includes failed instance")
		}
	}
	if len(reps) != 2 {
		t.Errorf("got %d replicas, want 2 (two alive non-owner nodes remain)", len(reps))
	}
}

func TestReplicasFewNodes(t *testing.T) {
	tab, _ := New(8, mkInstances(2, 1))
	if got := len(tab.ReplicasOf(0, 3)); got != 1 {
		t.Errorf("2-node ring: got %d replicas, want 1", got)
	}
	tab1, _ := New(8, mkInstances(1, 1))
	if got := len(tab1.ReplicasOf(0, 2)); got != 0 {
		t.Errorf("1-node ring: got %d replicas, want 0", got)
	}
}

func TestIndexOf(t *testing.T) {
	tab, _ := New(16, mkInstances(4, 1))
	for i, in := range tab.Instances {
		if got := tab.IndexOf(in.ID); got != i {
			t.Errorf("IndexOf(%q) = %d, want %d", in.ID, got, i)
		}
	}
	if tab.IndexOf("nope") != -1 {
		t.Error("IndexOf(unknown) should be -1")
	}
}

func TestApplyEpochMismatch(t *testing.T) {
	tab, _ := New(16, mkInstances(2, 1))
	_, err := tab.Apply(Delta{FromEpoch: tab.Epoch + 5})
	if err == nil {
		t.Fatal("want epoch mismatch error")
	}
}

func TestPlanJoinMovesHalf(t *testing.T) {
	tab, _ := New(64, mkInstances(2, 1))
	newcomer := Instance{ID: "uuid-new", Addr: "node9:5000", Node: "node9"}
	d, moved, err := tab.PlanJoin(newcomer)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 16 {
		t.Errorf("join moved %d partitions, want 16 (half of 32)", len(moved))
	}
	nt, err := tab.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if nt.Epoch != tab.Epoch+1 {
		t.Errorf("epoch = %d, want %d", nt.Epoch, tab.Epoch+1)
	}
	idx := nt.IndexOf(newcomer.ID)
	if idx < 0 {
		t.Fatal("newcomer missing from new table")
	}
	if got := len(nt.PartitionsOf(idx)); got != 16 {
		t.Errorf("newcomer owns %d partitions, want 16", got)
	}
	if err := nt.Validate(); err != nil {
		t.Error(err)
	}
	// The original table must be untouched.
	if len(tab.Instances) != 2 {
		t.Error("PlanJoin/Apply mutated the source table")
	}
}

func TestPlanJoinDuplicate(t *testing.T) {
	tab, _ := New(16, mkInstances(2, 1))
	if _, _, err := tab.PlanJoin(tab.Instances[0]); err == nil {
		t.Error("want error joining an existing member")
	}
}

func TestPlanJoinRepeatedBalances(t *testing.T) {
	// Start with 1 instance and join 7 more: the load spread should
	// stay within a factor ~2 of ideal (join always splits the
	// most-loaded node).
	tab, _ := New(1024, mkInstances(1, 1))
	for j := 0; j < 7; j++ {
		in := Instance{ID: InstanceID(fmt.Sprintf("j-%d", j)), Addr: fmt.Sprintf("n%d:1", j), Node: fmt.Sprintf("jn%d", j)}
		d, _, err := tab.PlanJoin(in)
		if err != nil {
			t.Fatal(err)
		}
		if tab, err = tab.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	load := tab.Load()
	if len(load) != 8 {
		t.Fatalf("got %d instances", len(load))
	}
	for i, l := range load {
		if l < 64 || l > 256 {
			t.Errorf("instance %d owns %d partitions; want within [64,256] of ideal 128", i, l)
		}
	}
}

func TestPlanDeparture(t *testing.T) {
	tab, _ := New(60, mkInstances(3, 1))
	dep := tab.Instances[1].ID
	d, moves, err := tab.PlanDeparture(dep)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ps := range moves {
		total += len(ps)
	}
	if total != 20 {
		t.Errorf("departure moves %d partitions, want 20", total)
	}
	nt, err := tab.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	idx := nt.IndexOf(dep)
	if nt.Status[idx] != Departing {
		t.Errorf("status = %v, want Departing", nt.Status[idx])
	}
	if got := len(nt.PartitionsOf(idx)); got != 0 {
		t.Errorf("departing instance still owns %d partitions", got)
	}
}

func TestPlanDepartureLastNode(t *testing.T) {
	tab, _ := New(8, mkInstances(1, 1))
	if _, _, err := tab.PlanDeparture(tab.Instances[0].ID); err == nil {
		t.Error("want error departing the last instance")
	}
}

func TestPlanFailureFailsOverToFirstReplica(t *testing.T) {
	tab, _ := New(64, mkInstances(4, 1))
	victim := tab.Instances[2]
	victimParts := tab.PartitionsOf(2)
	d, err := tab.PlanFailure(victim.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := tab.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if nt.Status[nt.IndexOf(victim.ID)] != Failed {
		t.Error("victim not marked failed")
	}
	for _, p := range victimParts {
		o := nt.OwnerOf(p)
		if o.ID == victim.ID {
			t.Fatalf("partition %d still owned by failed instance", p)
		}
		// Failover target must be the first replica computed on the
		// pre-failure ring with the victim excluded.
		scratch := tab.Clone()
		scratch.Status[2] = Failed
		want := scratch.ReplicasOf(p, 2)[0].ID
		if o.ID != want {
			t.Errorf("partition %d failed over to %q, want first replica %q", p, o.ID, want)
		}
	}
}

// TestCopyHolders checks the announce set of a join and a failure on
// an 8-instance ring with one replica: the instances whose copies move,
// old holders and new, and nobody else.
func TestCopyHolders(t *testing.T) {
	tab, _ := New(32, mkInstances(8, 1))
	ids := func(idx ...int) map[InstanceID]bool {
		m := make(map[InstanceID]bool)
		for _, i := range idx {
			m[tab.Instances[i].ID] = true
		}
		return m
	}
	if got := CopyHolders(tab, tab.Clone(), 1); len(got) != 0 {
		t.Errorf("no change: holders %v, want none", got)
	}

	newcomer := Instance{ID: "uuid-new", Addr: "new:5000", Node: "node-new"}
	d, _, err := tab.PlanJoin(newcomer)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := tab.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	// Instance 0 gives half its partitions to the newcomer, which is
	// appended after instance 7: the moved partitions go from {0, 1} to
	// {new, 0}, and instance 7's from {7, 0} to {7, new}.
	want := ids(0, 1, 7)
	want[newcomer.ID] = true
	if got := CopyHolders(tab, joined, 1); !maps.Equal(got, want) {
		t.Errorf("join: holders %v, want %v", got, want)
	}

	d, err = tab.PlanFailure(tab.Instances[3].ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	failed, err := tab.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	// Instance 3's partitions go from {3, 4} to {4, 5}, and instance
	// 2's from {2, 3} to {2, 4}.
	if got, want := CopyHolders(tab, failed, 1), ids(2, 3, 4, 5); !maps.Equal(got, want) {
		t.Errorf("failure: holders %v, want %v", got, want)
	}
}

func TestPlanFailureUnknown(t *testing.T) {
	tab, _ := New(8, mkInstances(2, 1))
	if _, err := tab.PlanFailure("ghost", 1); err == nil {
		t.Error("want error for unknown instance")
	}
}

// TestAfterOrdersTablesOfOneEpoch checks the total order adoption uses:
// epochs first, then at one epoch more instances, then the greater
// encoding, so exactly one of two different tables of an epoch wins and
// a table never orders after itself.
func TestAfterOrdersTablesOfOneEpoch(t *testing.T) {
	tab, _ := New(32, mkInstances(8, 1))
	plan := func(d Delta, err error) *Table {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		nt, err := tab.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		return nt
	}
	failA := plan(tab.PlanFailure(tab.Instances[2].ID, 1))
	failB := plan(tab.PlanFailure(tab.Instances[5].ID, 1))
	d, _, err := tab.PlanJoin(Instance{ID: "uuid-new", Addr: "new:5000", Node: "node-new"})
	joined := plan(d, err)

	if !failA.After(tab) || tab.After(failA) {
		t.Error("a newer epoch must order after an older one")
	}
	if failA.After(failA.Clone()) {
		t.Error("a table must not order after an identical one")
	}
	if failA.After(failB) == failB.After(failA) {
		t.Error("exactly one of two different tables of one epoch must win")
	}
	if !joined.After(failA) || !joined.After(failB) {
		t.Error("at one epoch, the table with more instances must win")
	}
}

// TestDeltaLogReset checks that a reset log covers no range, so a
// puller behind a replaced table fetches the full table.
func TestDeltaLogReset(t *testing.T) {
	l := NewDeltaLog(0)
	l.Record(1, []byte("a"))
	l.Record(2, []byte("b"))
	l.Reset()
	if _, ok := l.Since(1, 3); ok || l.Len() != 0 {
		t.Fatalf("reset log still covers [1, 3) or holds %d deltas", l.Len())
	}
	l.Record(3, []byte("c"))
	if f, ok := l.Since(3, 4); !ok || string(f[0]) != "c" {
		t.Fatalf("log after reset: Since(3, 4) = %q, %v", f, ok)
	}
}

func TestCloneIndependence(t *testing.T) {
	tab, _ := New(16, mkInstances(2, 1))
	c := tab.Clone()
	c.Owner[0] = 1
	c.Status[0] = Failed
	c.Epoch = 99
	if tab.Owner[0] == 1 || tab.Status[0] == Failed || tab.Epoch == 99 {
		t.Error("Clone shares state with original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tab, _ := New(16, mkInstances(2, 1))
	bad := tab.Clone()
	bad.Owner[3] = 17
	if bad.Validate() == nil {
		t.Error("want validate error for out-of-range owner")
	}
	bad2 := tab.Clone()
	bad2.Instances[1].ID = bad2.Instances[0].ID
	if bad2.Validate() == nil {
		t.Error("want validate error for duplicate ID")
	}
	bad3 := tab.Clone()
	bad3.Owner = bad3.Owner[:10]
	if bad3.Validate() == nil {
		t.Error("want validate error for truncated owner list")
	}
}

func TestStatusString(t *testing.T) {
	if Alive.String() != "alive" || Failed.String() != "failed" || Departing.String() != "departing" {
		t.Error("unexpected Status strings")
	}
	if Status(9).String() == "" {
		t.Error("unknown status should still format")
	}
}

func TestSortNetworkAware(t *testing.T) {
	ins := mkInstances(8, 1)
	coords := map[InstanceID][3]int{}
	for i, in := range ins {
		coords[in.ID] = [3]int{i % 2, (i / 2) % 2, i / 4}
	}
	SortNetworkAware(ins, func(in Instance) [3]int { return coords[in.ID] })
	// Z-order on a 2x2x2 cube: consecutive ring entries should differ
	// in few coordinates; verify total ring-walk Manhattan distance is
	// no worse than a known-good bound (Z-order gives 11 on 2x2x2).
	dist := 0
	for i := 1; i < len(ins); i++ {
		a, b := coords[ins[i-1].ID], coords[ins[i].ID]
		for d := 0; d < 3; d++ {
			dist += abs(a[d] - b[d])
		}
	}
	if dist > 11 {
		t.Errorf("Z-order ring walk distance %d, want <= 11", dist)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

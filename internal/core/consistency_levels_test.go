package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"zht/internal/metrics"
	"zht/internal/ring"
	"zht/internal/storage"
	"zht/internal/wire"
)

// keyReplicatedOn finds a key whose partition's owner is NOT victim
// and whose sole replica (Replicas=1 deployments) IS victim, so tests
// can fail exactly the replica leg of a write. Returns the key and its
// partition.
func keyReplicatedOn(t *testing.T, table *ring.Table, in *Instance, victim ring.InstanceID) (string, int) {
	t.Helper()
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("cons-%d", i)
		p := table.Partition(in.hashf(key))
		reps := table.ReplicasOf(p, 1)
		if table.OwnerOf(p).ID != victim && len(reps) == 1 && reps[0].ID == victim {
			return key, p
		}
	}
	t.Fatal("no key found with the victim as sole replica")
	return "", 0
}

// TestWriteLevelsAgainstDownReplica pins the write-side quorum math
// at Replicas=1 (copies=2): with the sole replica unreachable but
// still marked Alive, QUORUM and ALL writes must refuse to ack
// (need 2, got 1) while ONE acks via the primary alone — and the
// per-request level must override the deployment default.
func TestWriteLevelsAgainstDownReplica(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := Config{
		NumPartitions: 32, Replicas: 1,
		RetryBase: time.Millisecond, retryMax: 2 * time.Millisecond,
		WriteLevel: wire.ConsistencyAll, // deployment default: strictest
		Metrics:    mreg,
	}
	d, reg, c := startDeployment(t, cfg, 3)
	table := d.Instance(0).Table()
	victim := d.Instance(2)
	key, _ := keyReplicatedOn(t, table, d.Instance(0), victim.ID())

	reg.SetDown(victim.Addr(), true)

	// Default resolves to the configured ALL → quorum not met.
	if err := c.Insert(key, []byte("v")); err == nil || !strings.Contains(err.Error(), "quorum not met") {
		t.Fatalf("default(ALL) insert with replica down: err = %v, want quorum-not-met", err)
	}
	err := c.InsertWith(key, []byte("v"), wire.ConsistencyQuorum)
	if err == nil || !strings.Contains(err.Error(), "quorum not met") {
		t.Fatalf("QUORUM insert with replica down: err = %v, want quorum-not-met", err)
	}
	// A write refused at its level is the partition being unavailable
	// at that level — the class every chaos soak tolerates.
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("QUORUM insert refusal %v is not ErrUnavailable", err)
	}
	// Per-request ONE overrides the ALL default and acks via primary.
	if err := c.InsertWith(key, []byte("v1"), wire.ConsistencyOne); err != nil {
		t.Fatalf("ONE insert with replica down: %v", err)
	}
	// Quorum-not-met is an ack refusal, not a rollback: the primary
	// applied before fan-out, so the value reads back.
	if v, err := c.Lookup(key); err != nil || string(v) != "v1" {
		t.Fatalf("read-back after refused acks: %q %v", v, err)
	}
	if got := mreg.Counter("zht.consistency.quorum_writes").Value(); got < 2 {
		t.Fatalf("quorum_writes = %d after two quorum-demanding writes, want >= 2", got)
	}

	// Heal; once the leg queue's next retry reaches the replica, QUORUM
	// writes ack again.
	reg.SetDown(victim.Addr(), false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.InsertWith(key, []byte("v2"), wire.ConsistencyQuorum)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("QUORUM insert never acked after heal: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQuorumReadNewestWinsAndRepairs stamps the owner's copy of a key
// with a newer version than its replica holds, then drives a QUORUM
// read: the newest version must win, and the stale replica must be
// repaired asynchronously as a side effect.
func TestQuorumReadNewestWinsAndRepairs(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := Config{
		NumPartitions: 32, Replicas: 1,
		RetryBase: time.Millisecond, Metrics: mreg,
	}
	d, _, c := startDeployment(t, cfg, 3)
	table := d.Instance(0).Table()
	victim := d.Instance(2)
	key, p := keyReplicatedOn(t, table, d.Instance(0), victim.ID())
	var owner *Instance
	for _, in := range d.Instances() {
		if in.ID() == table.OwnerOf(p).ID {
			owner = in
		}
	}

	// Both copies hold v1 (ALL write), then the owner's copy alone
	// advances to v2 via a directly injected newer-versioned replica
	// apply — staleness with no hinted-handoff debt pending, so only
	// read-repair can close it.
	if err := c.InsertWith(key, []byte("v1"), wire.ConsistencyAll); err != nil {
		t.Fatal(err)
	}
	resp := owner.Handle(&wire.Request{
		Op: wire.OpReplicate, Partition: int64(p), Key: key,
		Value: []byte("v2"), Version: owner.clock.nextStamp(),
		Aux: encodeReplicaAux(wire.OpInsert),
	})
	if resp.Status != wire.StatusOK {
		t.Fatalf("version bump on owner: %v %s", resp.Status, resp.Err)
	}

	v, err := c.LookupWith(key, wire.ConsistencyQuorum)
	if err != nil || string(v) != "v2" {
		t.Fatalf("QUORUM read = %q %v, want newest copy v2", v, err)
	}
	if got := mreg.Counter("zht.consistency.quorum_reads").Value(); got < 1 {
		t.Fatalf("quorum_reads = %d, want >= 1", got)
	}

	// The stale replica converges through the async read-repair leg.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rv, ok, _ := storeGet(victim, p, key); ok && string(rv) == "v2" {
			break
		}
		if time.Now().After(deadline) {
			rv, ok, rerr := storeGet(victim, p, key)
			t.Fatalf("replica never read-repaired: %q %v %v", rv, ok, rerr)
		}
		time.Sleep(time.Millisecond)
	}
	if got := mreg.Counter("zht.consistency.stale_reads_repaired").Value(); got < 1 {
		t.Fatalf("stale_reads_repaired = %d, want >= 1", got)
	}
}

// TestRemovedKeyResurfacesUnderQuorumRead pins DESIGN.md §12 anomaly
// (3): the vote sees no tombstone, so a replica copy that missed a
// remove outranks the owner's absence in a QUORUM vote. The read
// answers FOUND with the old value and fires a read-repair push at the
// owner, which the remove's tombstone refuses, so the owner still
// lacks the key. Tombstones the vote reads (ROADMAP item 2) flip this
// test: the owner's tombstone would win the vote.
func TestRemovedKeyResurfacesUnderQuorumRead(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := Config{NumPartitions: 32, Replicas: 1, RetryBase: time.Millisecond, Metrics: mreg}
	d, _, c, lt := startTappedDeployment(t, cfg, 3, 2)
	table := d.Instance(0).Table()
	victim := d.Instance(2)
	key, p := keyReplicatedOn(t, table, d.Instance(0), victim.ID())
	owner := d.Instance(table.IndexOf(table.OwnerOf(p).ID))

	if err := c.InsertWith(key, []byte("old"), wire.ConsistencyAll); err != nil {
		t.Fatal(err)
	}
	// The replica misses the remove: the transport refuses its leg,
	// which the leg queue drops as undeliverable.
	lt.mu.Lock()
	lt.refused = key
	lt.mu.Unlock()
	if err := c.RemoveWith(key, wire.ConsistencyOne); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	if v, ok, err := storeGet(victim, p, key); err != nil || !ok || string(v) != "old" {
		t.Fatalf("replica copy after the missed remove = %q, ok=%v err=%v; want the pre-remove pair", v, ok, err)
	}
	conflicts := mreg.Counter("zht.consistency.version_conflicts")
	before := conflicts.Value()

	if v, err := c.LookupWith(key, wire.ConsistencyQuorum); err != nil || string(v) != "old" {
		t.Fatalf("QUORUM read of the removed key = %q, %v; want the stale copy's FOUND \"old\"", v, err)
	}
	await(t, "the owner's refusal of the read-repair push", func() bool { return conflicts.Value() > before })
	if _, ok, err := storeGet(owner, p, key); err != nil || ok {
		t.Fatalf("owner holds the removed key after the read-repair push: ok=%v err=%v", ok, err)
	}
	if got := mreg.Counter("zht.consistency.stale_reads_repaired").Value(); got != 1 {
		t.Fatalf("stale_reads_repaired = %d, want 1", got)
	}
}

// TestReplicaLWWIgnoresOlderVersions pins the replica-apply side of
// the versioned protocol: an older-stamped insert or remove must lose
// against a newer local version (counted as a conflict, normalized to
// OK on the wire), while newer stamps win.
func TestReplicaLWWIgnoresOlderVersions(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := Config{NumPartitions: 4, Replicas: 1, Metrics: mreg}
	d, _, _ := startDeployment(t, cfg, 2)
	in := d.Instance(0)
	conflicts := mreg.Counter("zht.consistency.version_conflicts")
	key := keyForPartition(t, cfg, in.Table(), 0)

	apply := func(op wire.Op, val []byte, ver uint64) *wire.Response {
		return in.Handle(&wire.Request{
			Op: wire.OpReplicate, Partition: 0, Key: key,
			Value: val, Version: ver, Aux: encodeReplicaAux(op),
		})
	}

	if r := apply(wire.OpInsert, []byte("new"), 100<<storage.StampNodeBits); r.Status != wire.StatusOK {
		t.Fatalf("seed insert: %v %s", r.Status, r.Err)
	}
	// Older insert: normalized OK, not applied, conflict counted.
	if r := apply(wire.OpInsert, []byte("old"), 50<<storage.StampNodeBits); r.Status != wire.StatusOK {
		t.Fatalf("stale insert must normalize to OK: %v %s", r.Status, r.Err)
	}
	if v, ok, _ := storeGet(in, 0, key); !ok || string(v) != "new" {
		t.Fatalf("older insert overwrote newer value: %q %v", v, ok)
	}
	if got := conflicts.Value(); got != 1 {
		t.Fatalf("version_conflicts = %d after stale insert, want 1", got)
	}
	// Older remove: also loses.
	if r := apply(wire.OpRemove, nil, 60<<storage.StampNodeBits); r.Status != wire.StatusOK {
		t.Fatalf("stale remove: %v %s", r.Status, r.Err)
	}
	if v, ok, _ := storeGet(in, 0, key); !ok || string(v) != "new" {
		t.Fatalf("older remove deleted newer value: %q %v", v, ok)
	}
	if got := conflicts.Value(); got != 2 {
		t.Fatalf("version_conflicts = %d after stale remove, want 2", got)
	}
	// Newer remove wins.
	if r := apply(wire.OpRemove, nil, 200<<storage.StampNodeBits); r.Status != wire.StatusOK {
		t.Fatalf("newer remove: %v %s", r.Status, r.Err)
	}
	if _, ok, _ := storeGet(in, 0, key); ok {
		t.Fatal("newer-versioned remove did not delete")
	}
}

// TestHLCStamps pins the version clock's floor: it never falls, carries
// the node discriminant in the low bits, and passes every stamp the
// clock observed, also while writers observe stamps concurrently.
func TestHLCStamps(t *testing.T) {
	a := newHLC(ring.InstanceID("node-a"))
	b := newHLC(ring.InstanceID("node-b"))
	if a.node == b.node {
		t.Fatal("distinct instance IDs hashed to the same node bits")
	}
	const nodeMask = 1<<storage.StampNodeBits - 1
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		v := a.Floor()
		if v < prev {
			t.Fatalf("floor %d fell: %x after %x", i, v, prev)
		}
		if v&nodeMask != a.node {
			t.Fatalf("floor %x lost node bits %x", v, a.node)
		}
		prev = v
	}
	future := storage.Stamp(wallMillis()+1_000_000, b.node)
	a.Observe(future)
	if v := a.Floor(); v <= future {
		t.Fatalf("Floor() = %x did not pass observed %x", v, future)
	}

	// Concurrent writers each observe ever newer stamps of another node
	// and read the floor after each: every read passes the stamp its
	// writer just observed, keeps the node bits, and never falls below
	// that writer's previous read.
	const workers, each = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prev := uint64(0)
			for i := 0; i < each; i++ {
				seen := storage.Stamp(future>>storage.StampNodeBits+uint64(w*each+i+1), b.node)
				a.Observe(seen)
				v := a.Floor()
				if v <= seen || v < prev || v&nodeMask != a.node {
					t.Errorf("floor %x after observing %x (previous floor %x, node %x)", v, seen, prev, a.node)
					return
				}
				prev = v
			}
		}(w)
	}
	wg.Wait()
}

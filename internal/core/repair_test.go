package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/metrics"
	"zht/internal/novoht"
	"zht/internal/repair"
	"zht/internal/storage"
	"zht/internal/transport"
	"zht/internal/wire"
)

// TestHandoffReplaysDroppedSyncLeg is the hinted-handoff regression
// test: a replication leg that fails while the replica peer is down
// must be queued and replayed — not dropped — so the replica converges
// once the peer is reachable again, without any anti-entropy loop.
func TestHandoffReplaysDroppedSyncLeg(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := Config{
		NumPartitions: 16, Replicas: 1,
		RetryBase: time.Millisecond, retryMax: 4 * time.Millisecond,
		// ONE: the write must ack via the primary alone while the sole
		// replica is down; the failed (still-synchronous) first leg is
		// what feeds hinted handoff here.
		WriteLevel: wire.ConsistencyOne,
		Metrics:    mreg,
	}
	d, reg, c := startDeployment(t, cfg, 3)

	// A key whose owner is alive and whose sole replica is the victim.
	table := d.Instance(0).Table()
	victim := d.Instance(1)
	var key string
	var p int
	for i := 0; ; i++ {
		key = fmt.Sprintf("handoff-%d", i)
		p = table.Partition(d.Instance(0).hashf(key))
		reps := table.ReplicasOf(p, 1)
		if table.OwnerOf(p).ID != victim.ID() && len(reps) == 1 && reps[0].ID == victim.ID() {
			break
		}
	}
	var owner *Instance
	for _, in := range d.Instances() {
		if in.ID() == table.OwnerOf(p).ID {
			owner = in
		}
	}

	reg.SetDown(victim.Addr(), true)
	if err := c.Insert(key, []byte("survives-outage")); err != nil {
		t.Fatalf("insert with replica down must still ack via primary: %v", err)
	}
	if got := mreg.Counter("zht.repair.handoff.queued").Value(); got < 1 {
		t.Fatalf("handoff.queued = %d after failed sync leg, want >= 1", got)
	}
	if reflect.DeepEqual(owner.PartitionDigest(p), victim.PartitionDigest(p)) {
		t.Fatal("replica digest already equals primary while the leg is undelivered")
	}

	reg.SetDown(victim.Addr(), false)
	deadline := time.Now().Add(5 * time.Second)
	for !reflect.DeepEqual(owner.PartitionDigest(p), victim.PartitionDigest(p)) {
		if time.Now().After(deadline) {
			t.Fatalf("dropped leg never replayed: owner %v, replica %v",
				owner.PartitionDigest(p), victim.PartitionDigest(p))
		}
		time.Sleep(time.Millisecond)
	}
	if v, ok, err := storeGet(victim, p, key); err != nil || !ok || string(v) != "survives-outage" {
		t.Fatalf("replica store after replay: %q %v %v", v, ok, err)
	}
	if got := mreg.Counter("zht.repair.handoff.replayed").Value(); got < 1 {
		t.Fatalf("handoff.replayed = %d after recovery, want >= 1", got)
	}
}

// TestLegQueueIdlesAfterDrain: once Drain returns, every async leg has
// landed, and — drainers running only while their queue holds entries —
// the deployment sheds every goroutine the replicated traffic started.
func TestLegQueueIdlesAfterDrain(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 2, RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 8)
	before := runtime.NumGoroutine()
	for i := 0; i < 2000; i++ {
		if err := c.Insert(fmt.Sprintf("idle-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	d.Drain()
	for i := 0; i < 2000; i += 97 {
		if n := copiesOf(d, fmt.Sprintf("idle-%d", i)); n != 3 {
			t.Fatalf("idle-%d has %d copies after Drain, want 3", i, n)
		}
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after Drain, %d before traffic: idle drainers left running", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainWithPeerDown: async legs to an unreachable replica fall into
// its handoff backlog, which Drain does not wait for — so Drain returns
// promptly — and the backlog is replayed once the peer answers again.
func TestDrainWithPeerDown(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := Config{NumPartitions: 32, Replicas: 2, RetryBase: time.Millisecond, retryMax: 4 * time.Millisecond, Metrics: mreg}
	d, reg, c := startDeployment(t, cfg, 4)
	table := d.Instance(0).Table()
	victim := d.Instance(1)

	// Keys whose owner and synchronous first replica are alive and whose
	// second, async replica is the victim.
	reg.SetDown(victim.Addr(), true)
	var keys []string
	for i := 0; len(keys) < 20; i++ {
		key := fmt.Sprintf("drain-down-%d", i)
		p := table.Partition(victim.hashf(key))
		reps := table.ReplicasOf(p, 2)
		if table.OwnerOf(p).ID == victim.ID() || len(reps) != 2 || reps[0].ID == victim.ID() || reps[1].ID != victim.ID() {
			continue
		}
		if err := c.Insert(key, []byte("v")); err != nil {
			t.Fatalf("insert %s: %v", key, err)
		}
		keys = append(keys, key)
	}
	drained := make(chan struct{})
	go func() { d.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(time.Second):
		t.Fatal("Drain blocked on legs queued to a down peer")
	}

	reg.SetDown(victim.Addr(), false)
	deadline := time.Now().Add(5 * time.Second)
	for _, key := range keys {
		p := table.Partition(victim.hashf(key))
		for {
			if _, ok, err := storeGet(victim, p, key); err == nil && ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("async leg for %s never replayed to the returning peer", key)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := mreg.Counter("zht.repair.handoff.replayed").Value(); got < 1 {
		t.Fatalf("handoff.replayed = %d after the peer returned, want >= 1", got)
	}
}

// storeGet reads a key straight out of an instance's partition store.
func storeGet(in *Instance, p int, key string) ([]byte, bool, error) {
	s, err := in.store(p)
	if err != nil {
		return nil, false, err
	}
	return s.Get(key)
}

// TestAntiEntropyRepairsOverflowedHandoff drives more failed legs than
// the handoff cap can hold: the overflow is counted as dropped, and
// the anti-entropy loop — not handoff replay — closes the remaining
// gap after the peer heals.
func TestAntiEntropyRepairsOverflowedHandoff(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := Config{
		NumPartitions: 8, Replicas: 1,
		HandoffCap:  4, // overflow after 4 queued legs per destination
		AntiEntropy: 25 * time.Millisecond,
		RetryBase:   time.Millisecond, retryMax: 4 * time.Millisecond,
		// ONE: every write targets a dead sole replica; the test needs
		// them acked so the overflow + anti-entropy path is what heals.
		WriteLevel: wire.ConsistencyOne,
		Metrics:    mreg,
	}
	d, reg, c := startDeployment(t, cfg, 2)

	// With two nodes every partition's sole replica is the other node;
	// down node 1 and write enough keys owned by node 0 to overflow
	// its handoff queue.
	victim := d.Instance(1)
	reg.SetDown(victim.Addr(), true)
	table := d.Instance(0).Table()
	keys := 0
	for i := 0; keys < 20 && i < 10000; i++ {
		key := fmt.Sprintf("overflow-%d", i)
		p := table.Partition(d.Instance(0).hashf(key))
		if table.OwnerOf(p).ID != d.Instance(0).ID() {
			continue
		}
		if err := c.Insert(key, []byte("v")); err != nil {
			t.Fatalf("insert %s: %v", key, err)
		}
		keys++
	}
	if got := mreg.Counter("zht.repair.handoff.dropped").Value(); got < 1 {
		t.Fatalf("handoff.dropped = %d after %d legs with cap 4, want >= 1", got, keys)
	}

	reg.SetDown(victim.Addr(), false)
	converged := func() bool {
		for p := 0; p < cfg.NumPartitions; p++ {
			if !reflect.DeepEqual(d.Instance(0).PartitionDigest(p), victim.PartitionDigest(p)) {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	for !converged() {
		if time.Now().After(deadline) {
			t.Fatal("replica never converged after handoff overflow + heal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := mreg.Counter("zht.repair.digest_syncs").Value(); got < 1 {
		t.Fatalf("digest_syncs = %d after anti-entropy convergence, want >= 1", got)
	}
	if got := mreg.Counter("zht.repair.ranges_pulled").Value(); got < 1 {
		t.Fatalf("ranges_pulled = %d after anti-entropy convergence, want >= 1", got)
	}
}

// TestRepairOpsOverWire exercises OpDigest and OpRepairPull as a peer
// would: digest fetch, divergent-leaf pull, and push-apply.
func TestRepairOpsOverWire(t *testing.T) {
	cfg := Config{NumPartitions: 4, Replicas: 1}
	d, _, _ := startDeployment(t, cfg, 2)
	a, b := d.Instance(0), d.Instance(1)

	// Seed partition 2 of a directly (bypassing the client) with a key
	// that hashes to it: an installed pair must.
	alpha := keyForPartition(t, cfg, a.Table(), 2)
	sa, err := a.store(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sa.PutV(alpha, []byte("1"), 1); err != nil {
		t.Fatal(err)
	}

	resp := a.Handle(&wire.Request{Op: wire.OpDigest, Partition: 2})
	if resp.Status != wire.StatusOK {
		t.Fatalf("digest: %v %s", resp.Status, resp.Err)
	}
	if resp2 := a.Handle(&wire.Request{Op: wire.OpDigest, Partition: 99}); resp2.Status != wire.StatusError {
		t.Fatal("out-of-range partition digest must error")
	}

	// b pulls every leaf from a and applies: contents converge.
	all := make([]int, 0, storage.Leaves)
	for l := 0; l < storage.Leaves; l++ {
		all = append(all, l)
	}
	pull := a.Handle(&wire.Request{Op: wire.OpRepairPull, Partition: 2, Aux: repair.EncodeLeafSet(all)})
	if pull.Status != wire.StatusOK {
		t.Fatalf("pull: %v %s", pull.Status, pull.Err)
	}
	push := b.Handle(&wire.Request{Op: wire.OpRepairPull, Partition: 2, Aux: repair.EncodeLeafSet(all), Value: pull.Value})
	if push.Status != wire.StatusOK {
		t.Fatalf("push-apply: %v %s", push.Status, push.Err)
	}
	if v, ok, err := storeGet(b, 2, alpha); err != nil || !ok || string(v) != "1" {
		t.Fatalf("pair did not transfer: %q %v %v", v, ok, err)
	}
	if !reflect.DeepEqual(a.PartitionDigest(2), b.PartitionDigest(2)) {
		t.Fatal("digests differ after full-leaf transfer")
	}

	// A wholesale push-apply (a live owner's complete image) also
	// deletes stale keys absent from the authority; any other push keeps
	// them, whatever their version.
	stale := alpha + "-stale"
	for i := 0; b.partitionOf(stale) != 2; i++ {
		stale = fmt.Sprintf("%s-stale-%d", alpha, i)
	}
	sb, err := b.store(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.PutV(stale, []byte("x"), 2); err != nil {
		t.Fatal(err)
	}
	for _, flags := range []uint8{0, wire.FlagWholesale} {
		push = b.Handle(&wire.Request{Op: wire.OpRepairPull, Partition: 2, Flags: flags,
			Aux: repair.EncodeLeafSet(all), Value: pull.Value})
		if push.Status != wire.StatusOK {
			t.Fatalf("push-apply (flags %v): %v %s", flags, push.Status, push.Err)
		}
		if _, ok, _ := storeGet(b, 2, stale); ok != (flags == 0) {
			t.Fatalf("stale key present = %v after push-apply with flags %v", ok, flags)
		}
	}
}

// TestUpsertPushKeepsNewerVersions: a non-wholesale push (a rebuild)
// carries a snapshot of the pusher's leaves, so it must
// not roll back a key the receiver has since taken a newer version of
// — the push races the key's next replica leg — while keys it holds
// older or not at all take the pushed pair.
func TestUpsertPushKeepsNewerVersions(t *testing.T) {
	cfg := Config{NumPartitions: 4, Replicas: 1}
	d, _, _ := startDeployment(t, cfg, 2)
	in := d.Instance(1)
	const p = 2
	keys := map[string]string{} // role -> a key of partition p
	for i := 0; len(keys) < 3; i++ {
		if k := fmt.Sprintf("upsert-%d", i); in.partitionOf(k) == p {
			keys[[]string{"raced", "stale", "fresh"}[len(keys)]] = k
		}
	}
	s, err := in.store(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutV(keys["raced"], []byte("newer leg"), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutV(keys["stale"], []byte("older leg"), 2); err != nil {
		t.Fatal(err)
	}
	var pushed []repair.Pair
	for _, k := range keys {
		pushed = append(pushed, repair.Pair{Key: k, Value: []byte("pushed"), Ver: 3})
	}
	resp := in.Handle(&wire.Request{Op: wire.OpRepairPull, Partition: p,
		Aux: repair.EncodeLeafSet(allLeaves()), Value: repair.EncodePairs(pushed)})
	if resp.Status != wire.StatusOK {
		t.Fatalf("push: %s %s", resp.Status, resp.Err)
	}
	for role, want := range map[string]string{"raced": "newer leg", "stale": "pushed", "fresh": "pushed"} {
		if v, ok, _ := storeGet(in, p, keys[role]); !ok || string(v) != want {
			t.Errorf("%s key = %q %v after the push, want %q", role, v, ok, want)
		}
	}
}

// TestStaleCopyDoesNotResurrectRemove pins the removal half of the
// autoscale soak's "no acked write lost" contract: a copy of a pair
// collected before an acknowledged remove — an upsert-only rebuild
// push, an upsert-only repair pull — lands after it on the
// owner and the replica, and the key must stay removed on both. That
// holds too when the replica lacked the pair as the remove leg reached
// it (it missed a leg, or a rebuild was still filling it). A later
// write of the key, stamped above the remove, still reaches both
// copies.
func TestStaleCopyDoesNotResurrectRemove(t *testing.T) {
	for _, tc := range []struct {
		name        string
		dropReplica bool
	}{{"replica-holds-pair", false}, {"replica-lacks-pair", true}} {
		t.Run(tc.name, func(t *testing.T) {
			staleCopyAfterRemove(t, tc.dropReplica)
		})
	}
}

func staleCopyAfterRemove(t *testing.T, dropReplica bool) {
	cfg := Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 2)
	owner, replica := d.Instance(0), d.Instance(1)
	key := ownedKeys(t, owner, "grave", 1)[0].Key
	p := owner.partitionOf(key)
	if err := c.Insert(key, []byte("before")); err != nil {
		t.Fatal(err)
	}
	pairs, err := owner.collectLeafPairs(p, allLeaves())
	if err != nil {
		t.Fatal(err)
	}
	if dropReplica {
		d.Drain()
		if ok, _, err := replica.open(replica.part(p)).RemoveV(key, 0); !ok || err != nil {
			t.Fatalf("dropping the replica's copy: %v, %v", ok, err)
		}
	}
	if err := c.Remove(key); err != nil {
		t.Fatal(err)
	}
	d.Drain()

	for _, in := range []*Instance{owner, replica} {
		resp := in.Handle(&wire.Request{Op: wire.OpRepairPull, Partition: int64(p),
			Aux: repair.EncodeLeafSet(allLeaves()), Value: repair.EncodePairs(pairs)})
		if resp.Status != wire.StatusOK {
			t.Fatalf("%s: stale rebuild push: %s %s", in.ID(), resp.Status, resp.Err)
		}
		if err := in.applyLeafContent(p, allLeaves(), pairs, false); err != nil {
			t.Fatalf("%s: stale repair pull: %v", in.ID(), err)
		}
		if n := in.PartitionKeys(p); n != 0 {
			t.Errorf("%s holds %d keys of partition %d after stale copies of a removed pair landed, want 0", in.ID(), n, p)
		}
	}
	if v, err := c.Lookup(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup after the remove = %q, %v; want ErrNotFound", v, err)
	}

	if err := c.Insert(key, []byte("after")); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	for _, in := range []*Instance{owner, replica} {
		if n := in.PartitionKeys(p); n != 1 {
			t.Errorf("%s holds %d keys of partition %d after the key was written again, want 1", in.ID(), n, p)
		}
	}
	if v, err := c.Lookup(key); err != nil || string(v) != "after" {
		t.Fatalf("lookup after the rewrite = %q, %v; want \"after\"", v, err)
	}
}

// TestRemoveLegRacesStaleInstall: on a replica partition, a remove leg
// and a stale copy of the same key, collected before the remove, land
// at once, key by key, for 20 000 keys. However they interleave, no
// removed key comes back: the store refuses the copy in the critical
// section in which the remove buries the key.
func TestRemoveLegRacesStaleInstall(t *testing.T) {
	cfg := Config{NumPartitions: 8, Replicas: 1, RetryBase: time.Millisecond, AntiEntropy: -1}
	d, _, _ := startDeployment(t, cfg, 2)
	replica := d.Instance(1)
	table := replica.Table()
	p := -1
	for q := 0; q < cfg.NumPartitions && p < 0; q++ {
		if table.OwnerOf(q).ID != replica.ID() {
			p = q
		}
	}
	pt := replica.part(p)
	const n = 20000
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("race-%d", i); replica.partitionOf(k) == p {
			keys = append(keys, k)
		}
	}
	copied := replica.clock.nextStamp()
	for _, k := range keys {
		if ok, err := replica.install(pt, k, []byte("before"), copied); !ok || err != nil {
			t.Fatalf("install of %s: %v, %v", k, ok, err)
		}
	}
	removed := replica.clock.nextStamp()

	// The two appliers meet at every key before they apply it.
	arrived := make([]atomic.Int32, n)
	meet := func(i int) {
		arrived[i].Add(1)
		for arrived[i].Load() < 2 {
			runtime.Gosched()
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, k := range keys {
			meet(i)
			var resp wire.Response
			replica.handleReplicate(&wire.Request{Op: wire.OpReplicate, Partition: int64(p), Key: k,
				Version: removed, Aux: encodeReplicaAux(wire.OpRemove)}, &resp)
			if resp.Status != wire.StatusOK {
				t.Errorf("remove leg of %s: %s %s", k, resp.Status, resp.Err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i, k := range keys {
			meet(i)
			if _, err := replica.install(pt, k, []byte("before"), copied); err != nil {
				t.Errorf("stale install of %s: %v", k, err)
			}
		}
	}()
	wg.Wait()
	back := 0
	for _, k := range keys {
		if _, ok, _ := storeGet(replica, p, k); ok {
			back++
		}
	}
	if back > 0 {
		t.Fatalf("%d of %d removed keys came back: a stale copy landed after the remove leg", back, n)
	}
}

// skipRemovedKeyAlive skips a test whose removed key came back through
// a path that tombstones kept in memory, on the copies a remove reached,
// leave open: they are not durable, do not travel with repair pairs,
// and last RemoveGrace (DESIGN.md §12 anomaly (3)). Each later slice of
// ROADMAP item 2 deletes the calls its change makes pass.
func skipRemovedKeyAlive(t *testing.T, how string) {
	t.Helper()
	t.Skipf("removed key alive %s (ROADMAP item 2)", how)
}

// TestRemoveUnderPartitionStaysRemoved: at Replicas=2 a remove is
// acked while the second replica is cut off, and the owner fails
// before its handed-off leg is sent. Once the replica heals, a failure
// report makes the first replica the owner, and the healed replica's
// repair against it, the partition's live owner, is wholesale: every
// copy lacks the key.
func TestRemoveUnderPartitionStaysRemoved(t *testing.T) {
	cfg := Config{NumPartitions: 16, Replicas: 2, WriteLevel: wire.ConsistencyQuorum,
		RetryBase:   time.Minute, // the handed-off leg is not retried during the test
		AntiEntropy: -1}
	d, reg, c := startDeployment(t, cfg, 3)
	owner := d.Instance(0)
	key := ownedKeys(t, owner, "cut", 1)[0].Key
	p := owner.partitionOf(key)
	table := owner.Table()
	reps := table.ReplicasOf(p, 2)
	first, cut := d.Instance(table.IndexOf(reps[0].ID)), d.Instance(table.IndexOf(reps[1].ID))
	if err := c.InsertWith(key, []byte("v"), wire.ConsistencyAll); err != nil {
		t.Fatal(err)
	}
	reg.SetDown(cut.Addr(), true)
	if err := c.Remove(key); err != nil {
		t.Fatalf("QUORUM remove with one replica cut off: %v", err)
	}
	// The remove leg to the cut replica has failed once and waits out
	// the minute-long retry: it cannot land after the heal and remove
	// the key in the repair's place.
	await(t, "the remove leg to fail", func() bool { return owner.legs.Failing(cut.Addr()) })

	// The owner fails, the replica heals, and a report fails the owner
	// over to the first replica.
	reg.SetDown(owner.Addr(), true)
	reg.SetDown(cut.Addr(), false)
	if resp := first.Handle(&wire.Request{Op: wire.OpReport, Key: string(owner.ID())}); resp.Status != wire.StatusOK {
		t.Fatalf("failure report: %s %s", resp.Status, resp.Err)
	}
	if got := cut.Table().OwnerOf(p).ID; got != first.ID() {
		t.Fatalf("the healed replica's table names %s the owner, want %s", got, first.ID())
	}
	first.Drain()
	cut.antiEntropyRound()

	if _, ok, err := storeGet(first, p, key); err != nil || ok {
		t.Fatalf("the new owner holds the removed key: ok=%v err=%v", ok, err)
	}
	if _, ok, err := storeGet(cut, p, key); err != nil || ok {
		t.Fatalf("the healed replica holds the removed key: ok=%v err=%v", ok, err)
	}
}

// TestStaleChunkAfterGraceStaysRemoved: a leaf chunk collected before a
// remove is pushed to the owner and the replica once RemoveGrace has
// passed by their stores' wall clocks, and a later remove in the
// partition has reclaimed the key's tombstones. The key should stay
// removed; with no tombstone left, the chunk's pair lands.
func TestStaleChunkAfterGraceStaysRemoved(t *testing.T) {
	cfg := Config{NumPartitions: 16, Replicas: 1, RetryBase: time.Millisecond, AntiEntropy: -1}
	d, _, c := startDeployment(t, cfg, 2)
	owner, replica := d.Instance(0), d.Instance(1)
	ops := ownedKeys(t, owner, "grace", 64)
	key, p := ops[0].Key, owner.partitionOf(ops[0].Key)
	var later string // another key of p, whose remove reclaims
	for _, op := range ops[1:] {
		if owner.partitionOf(op.Key) == p {
			later = op.Key
			break
		}
	}
	if later == "" {
		t.Fatal("no second key in the partition")
	}
	for _, k := range []string{key, later} {
		if err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	chunk, err := owner.collectLeafPairs(p, []int{storage.LeafOf(key)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(key); err != nil {
		t.Fatal(err)
	}
	d.Drain()

	aged := func() int64 { return time.Now().Add(novoht.RemoveGrace + time.Second).UnixMilli() }
	for _, in := range []*Instance{owner, replica} {
		s, err := in.store(p)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWallClock(aged)
	}
	if err := c.Remove(later); err != nil {
		t.Fatal(err)
	}
	d.Drain()

	alive := 0
	for _, in := range []*Instance{owner, replica} {
		resp := in.Handle(&wire.Request{Op: wire.OpRepairPull, Partition: int64(p),
			Aux: repair.EncodeLeafSet([]int{storage.LeafOf(key)}), Value: repair.EncodePairs(chunk)})
		if resp.Status != wire.StatusOK {
			t.Fatalf("%s: stale chunk push: %s %s", in.ID(), resp.Status, resp.Err)
		}
		if _, ok, err := storeGet(in, p, key); err != nil {
			t.Fatal(err)
		} else if ok {
			alive++
		}
	}
	if alive > 0 {
		skipRemovedKeyAlive(t, fmt.Sprintf("on %d of 2 copies, from a chunk that landed past RemoveGrace", alive))
	}
}

// legTap wraps a deployment's transport and watches the replica legs
// bound for one destination: every attempt to send it legs, the
// synchronous rounds' attempts among them (a sync round sends its legs
// bare, a queued entry travels as a prebuilt OpBatch envelope), and the
// legs it received, in order. An envelope carrying the refused key fails with a plain error,
// as a transport refuses a message it can never carry.
type legTap struct {
	transport.Caller
	dst string

	mu        sync.Mutex
	refused   string
	tries     int
	syncTries int
	delivered []string // "op key" of each leg dst received
}

func (lt *legTap) Call(addr string, req *wire.Request) (*wire.Response, error) {
	if addr != lt.dst || (req.Op != wire.OpReplicate && req.Op != wire.OpBatch) {
		return lt.Caller.Call(addr, req)
	}
	legs := []*wire.Request{req}
	if req.Op == wire.OpBatch {
		subs, err := wire.DecodeOps(req.Aux)
		if err != nil {
			return nil, err
		}
		defer wire.ReleaseOps(subs)
		if len(subs) == 0 || subs[0].Op != wire.OpReplicate {
			return lt.Caller.Call(addr, req)
		}
		legs = subs
	}
	lt.mu.Lock()
	lt.tries++
	if req.Op == wire.OpReplicate {
		lt.syncTries++
	}
	refused := lt.refused
	lt.mu.Unlock()
	for _, l := range legs {
		if refused != "" && l.Key == refused {
			return nil, errors.New("tap: message refused")
		}
	}
	resp, err := lt.Caller.Call(addr, req)
	if err == nil {
		lt.record(legs)
	}
	return resp, err
}

func (lt *legTap) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	if addr != lt.dst || len(reqs) == 0 || reqs[0].Op != wire.OpReplicate {
		return lt.Caller.CallBatch(addr, reqs)
	}
	lt.mu.Lock()
	lt.tries++
	lt.syncTries++
	lt.mu.Unlock()
	rs, err := lt.Caller.CallBatch(addr, reqs)
	if err == nil {
		lt.record(reqs)
	}
	return rs, err
}

func (lt *legTap) record(legs []*wire.Request) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for _, l := range legs {
		lt.delivered = append(lt.delivered, fmt.Sprintf("%v %s", wire.Op(l.Aux[0]), l.Key))
	}
}

// counts returns the attempts to send dst legs, the sync rounds'
// attempts among them, and the legs it received so far.
func (lt *legTap) counts() (tries, syncTries int, delivered []string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.tries, lt.syncTries, append([]string(nil), lt.delivered...)
}

// await polls until cond holds, failing the test after 5 s.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// startTappedDeployment boots n in-process instances whose every call
// goes through a legTap for instance dst's address.
func startTappedDeployment(t *testing.T, cfg Config, n, dst int) (*Deployment, *transport.Registry, *Client, *legTap) {
	t.Helper()
	reg := transport.NewRegistry()
	lt := &legTap{Caller: reg.NewClient(), dst: InprocEndpoints(n)[dst].Addr}
	d, err := Bootstrap(cfg, InprocEndpoints(n), func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, h)
	}, lt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return d, reg, c, lt
}

// TestDownReplicaCostsOneSyncAttempt: with the sole replica down, the
// first write's sync round fails and hands its leg off, which makes the
// replica failing in the leg queue; every later write hands its leg
// straight to the queue without a transport attempt. The queue's
// backed-off retry is the replica's only probe.
func TestDownReplicaCostsOneSyncAttempt(t *testing.T) {
	cfg := Config{NumPartitions: 16, Replicas: 1, WriteLevel: wire.ConsistencyOne,
		RetryBase: time.Minute} // the queue's first retry comes after the test
	d, reg, c, lt := startTappedDeployment(t, cfg, 2, 1)
	reg.SetDown(lt.dst, true)
	for _, op := range ownedKeys(t, d.Instance(0), "down", 10) {
		if err := c.Insert(op.Key, op.Value); err != nil {
			t.Fatalf("insert %s at ONE with the replica down: %v", op.Key, err)
		}
	}
	if _, syncTries, _ := lt.counts(); syncTries != 1 {
		t.Fatalf("10 writes made %d sync-path attempts to the down replica, want 1", syncTries)
	}
	if !d.Instance(0).legs.Failing(lt.dst) {
		t.Fatal("the down replica is not failing in the owner's leg queue")
	}
}

// TestNegativeHandoffCapRefused: the backlog's head is a failing
// destination's only probe, so a cap that would keep nothing is refused.
func TestNegativeHandoffCapRefused(t *testing.T) {
	if d, _, err := BootstrapInproc(Config{NumPartitions: 4, HandoffCap: -1}, 1); err == nil {
		d.Close()
		t.Fatal("HandoffCap -1 accepted")
	}
}

// TestLegsDuringOutageLandInOrder: an insert is handed off while the
// sole replica is down, and the queue is backing off when the replica
// heals. A remove of the same key issued then must not overtake the
// insert: the replica is still failing until the queue's next send
// succeeds, so the remove's leg queues behind the insert's.
func TestLegsDuringOutageLandInOrder(t *testing.T) {
	cfg := Config{NumPartitions: 16, Replicas: 1, WriteLevel: wire.ConsistencyOne,
		RetryBase: 200 * time.Millisecond} // the queue's backoff spans the heal and the remove
	d, reg, c, lt := startTappedDeployment(t, cfg, 2, 1)
	key := ownedKeys(t, d.Instance(0), "order", 1)[0].Key
	reg.SetDown(lt.dst, true)
	if err := c.Insert(key, []byte("v")); err != nil {
		t.Fatalf("insert at ONE with the replica down: %v", err)
	}
	// The sync round's attempt and the queue's first send have failed.
	await(t, "the queue's first send", func() bool { tries, _, _ := lt.counts(); return tries >= 2 })
	reg.SetDown(lt.dst, false)
	if err := c.Remove(key); err != nil {
		t.Fatalf("remove after the heal: %v", err)
	}
	await(t, "both legs", func() bool { _, _, got := lt.counts(); return len(got) >= 2 })
	_, _, got := lt.counts()
	if want := []string{wire.OpInsert.String() + " " + key, wire.OpRemove.String() + " " + key}; !reflect.DeepEqual(got, want) {
		t.Fatalf("the replica received %q, want %q", got, want)
	}
	p := d.Instance(1).partitionOf(key)
	if _, ok, err := storeGet(d.Instance(1), p, key); err != nil || ok {
		t.Fatalf("replica holds the removed key: ok=%v err=%v", ok, err)
	}
}

// TestUndeliverableLegIsDropped: the transport refuses one async
// envelope for good with a plain error (as UDP refuses a datagram past
// its limit). The leg queue drops it instead of retrying it at the
// head of the FIFO, so the legs behind it still arrive.
func TestUndeliverableLegIsDropped(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := Config{NumPartitions: 16, Replicas: 2, RetryBase: time.Millisecond, Metrics: mreg}
	d, _, c, lt := startTappedDeployment(t, cfg, 3, 2)
	table := d.Instance(0).Table()
	// Keys whose second, async replica is the tapped instance.
	var keys []string
	for i := 0; len(keys) < 5; i++ {
		key := fmt.Sprintf("refused-%d", i)
		reps := table.ReplicasOf(table.Partition(c.hashf(key)), 2)
		if len(reps) == 2 && reps[1].Addr == lt.dst {
			keys = append(keys, key)
		}
	}
	lt.mu.Lock()
	lt.refused = keys[0]
	lt.mu.Unlock()
	for _, k := range keys {
		if err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	await(t, "the legs behind the refused one", func() bool {
		_, _, got := lt.counts()
		return len(got) >= len(keys)-1
	})
	_, _, got := lt.counts()
	var want []string
	for _, k := range keys[1:] {
		want = append(want, wire.OpInsert.String()+" "+k)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the replica received %q, want %q", got, want)
	}
	if n := mreg.Counter("zht.repair.handoff.dropped").Value(); n != 1 {
		t.Fatalf("handoff.dropped = %d, want the refused entry", n)
	}
}

// TestReplicationReturnsPooledResponses: at Replicas=2 every write
// sends an async leg through the leg queue, an anti-entropy round
// probes digests through CallBatch, an ALL read that finds stale
// copies pushes the newest version to them (ALL awaits every copy, so
// no probe is abandoned), and a QUORUM read abandons its third probe
// once two copies answered; each must return the responses it draws
// from the wire pools, so gets == puts once traffic settles.
func TestReplicationReturnsPooledResponses(t *testing.T) {
	for _, level := range []wire.Consistency{wire.ConsistencyOne, wire.ConsistencyQuorum} {
		t.Run(level.String(), func(t *testing.T) {
			cfg := Config{NumPartitions: 16, Replicas: 2, RetryBase: time.Millisecond, WriteLevel: level}
			d, _, c := startDeployment(t, cfg, 3)
			write := func(prefix string, n int) {
				for i := 0; i < n; i++ {
					if err := c.Insert(fmt.Sprintf("%s-%d", prefix, i), []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
				d.Drain()
				for _, in := range d.Instances() {
					in.antiEntropyRound()
				}
			}
			write("warm", 100)
			reg := metrics.NewRegistry()
			wire.EnablePoolMetrics(reg)
			defer wire.EnablePoolMetrics(nil)
			write("counted", 500)
			gets, puts := reg.Counter("zht.wire.pool.gets"), reg.Counter("zht.wire.pool.puts")
			if gets.Value() != puts.Value() {
				t.Fatalf("pool gets %d, puts %d after 500 writes at Replicas=2: %d not returned", gets.Value(), puts.Value(), gets.Value()-puts.Value())
			}

			table := d.Instance(0).Table()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("counted-%d", i)
				p := table.Partition(c.hashf(key))
				owner := d.Instance(table.Owner[p])
				wire.PutResponse(owner.Handle(&wire.Request{
					Op: wire.OpReplicate, Partition: int64(p), Key: key, Value: []byte("v2"),
					Version: owner.clock.nextStamp(), Aux: encodeReplicaAux(wire.OpInsert),
				}))
				if v, err := c.LookupWith(key, wire.ConsistencyAll); err != nil || string(v) != "v2" {
					t.Fatalf("ALL read of %s = %q, %v", key, v, err)
				}
			}
			settled := func(what string) {
				deadline := time.Now().Add(5 * time.Second)
				for gets.Value() != puts.Value() {
					if time.Now().After(deadline) {
						t.Fatalf("pool gets %d, puts %d after %s: %d not returned", gets.Value(), puts.Value(), what, gets.Value()-puts.Value())
					}
					time.Sleep(time.Millisecond)
				}
			}
			settled("20 ALL reads that repaired stale copies")

			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("counted-%d", i)
				if v, err := c.LookupWith(key, wire.ConsistencyQuorum); err != nil || string(v) != "v2" {
					t.Fatalf("QUORUM read of %s = %q, %v", key, v, err)
				}
			}
			settled("20 QUORUM reads that abandoned a probe each")
		})
	}
}

// digestTap answers every OpDigest a caller sends with payload instead
// of the peer's digest, as a peer built on another pair-hash version
// would.
type digestTap struct {
	transport.Caller
	payload atomic.Pointer[[]byte]
}

func (dt *digestTap) Call(addr string, req *wire.Request) (*wire.Response, error) {
	resp, err := dt.Caller.Call(addr, req)
	if p := dt.payload.Load(); p != nil && err == nil && req.Op == wire.OpDigest && resp.Status == wire.StatusOK {
		resp.Value = *p
	}
	return resp, err
}

func (dt *digestTap) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	rs, err := dt.Caller.CallBatch(addr, reqs)
	if p := dt.payload.Load(); p != nil && err == nil {
		for i, r := range reqs {
			if r.Op == wire.OpDigest && rs[i].Status == wire.StatusOK {
				rs[i].Value = *p
			}
		}
	}
	return rs, err
}

// TestDigestOfAnotherVersionIsSkipped feeds a version-1 digest payload,
// the repair package's golden, to anti-entropy on a replica whose copy
// diverges from the owner's: the round diffs no leaf, pulls no range,
// and counts one digest_version_skips. The digest diff that migration
// catch-ups and rebuild pushes run fails on it, counting one more.
// Answered with the owner's own digest again, the round pulls the
// divergent leaf.
func TestDigestOfAnotherVersionIsSkipped(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "repair", "testdata", "digest-v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	mreg := metrics.NewRegistry()
	cfg := Config{NumPartitions: 2, Replicas: 1, WriteLevel: wire.ConsistencyAll, Metrics: mreg}
	reg := transport.NewRegistry()
	dt := &digestTap{Caller: reg.NewClient()}
	d, err := Bootstrap(cfg, InprocEndpoints(2), func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, h)
	}, dt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	owner := d.Instance(0)
	key, p := ownedKey(t, owner)
	replica := replicaOf(t, d, p)
	if resp := owner.Handle(&wire.Request{Op: wire.OpInsert, Key: key, Value: []byte("v")}); resp.Status != wire.StatusOK {
		t.Fatalf("insert: %s (%s)", resp.Status, resp.Err)
	}
	// The replica misses a remove: its copy of key outlives the owner's.
	if ok, _, err := owner.storeIfPresent(p).RemoveV(key, 0); !ok || err != nil {
		t.Fatalf("owner-only remove: %v, %v", ok, err)
	}

	dt.payload.Store(&v1)
	replica.antiEntropyRound()
	skips := mreg.Counter("zht.repair.digest_version_skips")
	syncs, pulled := mreg.Counter("zht.repair.digest_syncs"), mreg.Counter("zht.repair.ranges_pulled")
	if skips.Value() != 1 || syncs.Value() != 0 || pulled.Value() != 0 {
		t.Fatalf("round against a v1 digest: version skips %d, digest syncs %d, ranges pulled %d; want 1, 0, 0",
			skips.Value(), syncs.Value(), pulled.Value())
	}
	if _, _, ok := storeVer(t, replica, p, key); !ok {
		t.Fatal("the replica's copy changed after a skipped round")
	}
	if diff, err := replica.diffLeaves(owner.self.Addr, p); err == nil || skips.Value() != 2 {
		t.Fatalf("digest diff against a v1 digest = %v, %v with %d version skips; want an error and 2", diff, err, skips.Value())
	}

	dt.payload.Store(nil)
	replica.antiEntropyRound()
	if syncs.Value() != 1 || pulled.Value() != 1 || skips.Value() != 2 {
		t.Fatalf("round against the owner's digest: digest syncs %d, ranges pulled %d, version skips %d; want 1, 1, 2",
			syncs.Value(), pulled.Value(), skips.Value())
	}
	if _, _, ok := storeVer(t, replica, p, key); ok {
		t.Fatal("the pull kept the key the owner removed")
	}
}

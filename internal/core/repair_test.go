package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"zht/internal/metrics"
	"zht/internal/repair"
	"zht/internal/ring"
	"zht/internal/storage"
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
	tuneBreakers(t, breakerThreshold, 10*time.Millisecond)
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
	tuneBreakers(t, breakerThreshold, 5*time.Millisecond)
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

// TestFailoverLookupsScheduleReadRepair: a lookup served by a failed
// owner's first alive replica schedules a read-repair round for its
// partition, whether it arrives as a single op or inside a batch.
func TestFailoverLookupsScheduleReadRepair(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := Config{
		NumPartitions: 16, Replicas: 1,
		RetryBase: time.Millisecond,
		// Long enough that the loop never ticks during the test; the
		// read-repair rate limit then admits one round per partition.
		AntiEntropy: time.Hour,
		Metrics:     mreg,
	}
	d, _, c := startDeployment(t, cfg, 3)
	base := d.Instance(0).Table()
	victim := d.Instance(1)

	// The victim is marked Failed but keeps its partitions: the state in
	// which a replica serves for it.
	failed := base.Clone()
	failed.Status[failed.IndexOf(victim.ID())] = ring.Failed
	failed.Epoch = base.Epoch + 1

	// Two keys the victim owns, in different partitions (each lookup
	// gets its own rate-limit slot), with their acting replicas.
	var keys []string
	var serving []*Instance
	seen := map[int]bool{}
	for i := 0; len(keys) < 2; i++ {
		k := fmt.Sprintf("rr-%d", i)
		p := base.Partition(victim.hashf(k))
		if base.OwnerOf(p).ID != victim.ID() || seen[p] {
			continue
		}
		seen[p] = true
		if err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		for _, in := range d.Instances() {
			if in.ID() == failoverTarget(failed, p, in.cfg.Replicas).ID {
				serving = append(serving, in)
			}
		}
		keys = append(keys, k)
	}
	d.Drain()
	for _, in := range serving {
		if resp := in.Handle(&wire.Request{Op: wire.OpDelta, Aux: ring.EncodeTable(failed)}); resp.Status != wire.StatusOK {
			t.Fatalf("table adoption: %s %s", resp.Status, resp.Err)
		}
	}

	// The counter counts rounds as they are admitted, before the lookup
	// answers, so each check is exact.
	repairs := mreg.Counter("zht.repair.read_repairs")
	wantRepairs := func(want int64) {
		t.Helper()
		if got := repairs.Value(); got != want {
			t.Fatalf("read_repairs = %d, want %d", got, want)
		}
	}
	lookup := func(in *Instance, key string) {
		t.Helper()
		if resp := in.Handle(&wire.Request{Op: wire.OpLookup, Key: key}); resp.Status != wire.StatusOK || string(resp.Value) != "v" {
			t.Fatalf("failover lookup: %s %q", resp.Status, resp.Value)
		}
	}

	lookup(serving[0], keys[0])
	wantRepairs(1)
	env := serving[1].Handle(wire.NewBatchRequest([]*wire.Request{{Op: wire.OpLookup, Key: keys[1]}}))
	rs, err := wire.DecodeResponses(env.Value)
	if err != nil || len(rs) != 1 || rs[0].Status != wire.StatusOK || string(rs[0].Value) != "v" {
		t.Fatalf("batched failover lookup: %s %v %+v", env.Status, err, rs)
	}
	wantRepairs(2)
	// A second failover read of keys[0]'s partition within the period
	// is served but schedules no round: the rate limit holds.
	lookup(serving[0], keys[0])
	wantRepairs(2)
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
	if err := sa.PutV(alpha, []byte("1"), 1); err != nil {
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
	if err := sb.PutV(stale, []byte("x"), 2); err != nil {
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

// TestUpsertPushKeepsNewerVersions: a non-wholesale push (a rebuild or
// read-repair) carries a snapshot of the pusher's leaves, so it must
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
	if err := s.PutV(keys["raced"], []byte("newer leg"), 5); err != nil {
		t.Fatal(err)
	}
	if err := s.PutV(keys["stale"], []byte("older leg"), 2); err != nil {
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
// collected before an acknowledged remove — an upsert-only rebuild or
// read-repair push, an upsert-only repair pull — lands after it on the
// owner and the replica, and the key must stay removed on both. A later write of the
// key, stamped above the remove, still reaches both copies.
func TestStaleCopyDoesNotResurrectRemove(t *testing.T) {
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
	if err := c.Remove(key); err != nil {
		t.Fatal(err)
	}

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

package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"zht/internal/core"
	"zht/internal/hashing"
	"zht/internal/metrics"
	"zht/internal/ring"
	"zht/internal/wire"
)

// pickReplicatedKey returns a key (and its partition) whose owner is
// not the victim and whose sole replica (Replicas=1) is the victim.
func pickReplicatedKey(t *testing.T, table *ring.Table, victim ring.InstanceID) (string, int) {
	t.Helper()
	hashf := hashing.ByName("")
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("lvl-%d", i)
		p := table.Partition(hashf(key))
		reps := table.ReplicasOf(p, 1)
		if table.OwnerOf(p).ID != victim && len(reps) == 1 && reps[0].ID == victim {
			return key, p
		}
	}
	t.Fatal("no key found with the victim as sole replica")
	return "", 0
}

// replicaRead reads a key straight off one instance's local copy via
// the replica-read fast path (no routing, no fan-out) — the probe the
// consistency tests use to inspect individual copies.
func replicaRead(in *core.Instance, p int, key string) ([]byte, bool) {
	resp := in.Handle(&wire.Request{
		Op: wire.OpLookup, Partition: int64(p), Key: key,
		Flags: wire.FlagReplicaRead,
	})
	if resp.Status != wire.StatusOK {
		return nil, false
	}
	return resp.Value, true
}

// TestQuorumReadYourWritesUnderChaos is the W+R>N acceptance soak:
// QUORUM writes, each followed immediately by a QUORUM read of the same
// key, through three fault phases:
//
//  1. a clean warm-up;
//  2. a replica partitioned away — still Alive in every table, so
//     writes whose sole replica it is must refuse with quorum-not-met,
//     and at least one must (the level is actually enforced);
//  3. seeded message loss, then ack loss, with one node crashed
//     mid-phase, failure-reported and re-replicated.
//
// Every write that acks must be read back at its written value — a
// read may refuse (quorum unreachable) but may never return a stale
// value — and zero acked writes may be lost once the dust settles.
// `make consistency-smoke` runs it on fresh seeds (see Seeds); each
// seed drives both the key stream and the phase-3 faults.
func TestQuorumReadYourWritesUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("consistency chaos soak skipped in -short mode")
	}
	for _, seed := range Seeds(t, 3, 23) {
		quorumReadYourWrites(t, seed)
	}
}

func quorumReadYourWrites(t *testing.T, seed int64) {
	t.Logf("seed %d", seed) // `make flake` prints it for every failing run
	mreg := metrics.NewRegistry()
	cfg := core.Config{
		NumPartitions: 64,
		Replicas:      1, // copies=2 ⇒ QUORUM = both ⇒ W+R > N
		RetryBase:     time.Millisecond,
		OpDeadline:    600 * time.Millisecond,
		Metrics:       mreg,
	}
	const n = 5
	d, reg, err := core.BootstrapInproc(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	table := d.Instance(0).Table()
	partitioned := d.Instance(1) // phase 2: network-partitioned, stays Alive

	// kill: crash a node mid-traffic (soak_test.go's recipe: down it,
	// file the failure report, wait for every survivor's table, drain
	// so re-replication restores the factor).
	alive := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}
	kill := func(idx int) {
		t.Helper()
		victim := d.Instance(idx)
		reg.SetDown(victim.Addr(), true)
		alive[idx] = false
		var mgr *core.Instance
		for i := 0; i < n; i++ {
			if alive[i] {
				mgr = d.Instance(i)
				break
			}
		}
		resp := mgr.Handle(&wire.Request{Op: wire.OpReport, Key: string(victim.ID())})
		if resp.Status != wire.StatusOK {
			t.Fatalf("failure report rejected: %v %s", resp.Status, resp.Err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for {
				tab := d.Instance(i).Table()
				if j := tab.IndexOf(victim.ID()); j >= 0 && tab.Status[j] != ring.Alive {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("instance %d never learned of the crash", i)
				}
				time.Sleep(time.Millisecond)
			}
		}
		d.Drain()
	}

	tolerable := func(err error) bool {
		return errors.Is(err, core.ErrUnavailable) || isQuorumNotMet(err)
	}

	// The key pool leaves out keys the partitioned node owns, so phase
	// 2's acks depend only on replica legs; keys it replicates stay in
	// on purpose — they produce the asserted refusals.
	rng := rand.New(rand.NewSource(seed))
	hashf := hashing.ByName("")
	var pool []string
	for i := 0; len(pool) < 2000; i++ {
		key := fmt.Sprintf("ryw-%d-%04d", seed, i)
		if table.OwnerOf(table.Partition(hashf(key))).ID != partitioned.ID() {
			pool = append(pool, key)
		}
	}

	// A refused write is an ack refusal, NOT a rollback: the primary
	// may already have applied it, so any value refused since a key's
	// last ack may legitimately win over the acked one.
	acked := map[string][]byte{}
	ambiguous := map[string][][]byte{}
	staleReads, refusedReads, quorumRefusals, ackedWrites := 0, 0, 0, 0
	op := 0
	pair := func(client *core.Client) {
		t.Helper()
		op++
		key := pool[rng.Intn(len(pool))]
		val := []byte(fmt.Sprintf("v%d-%d", seed, op))
		if err := client.InsertWith(key, val, wire.ConsistencyQuorum); err != nil {
			if !tolerable(err) {
				t.Fatalf("write %s: unexpected error class: %v", key, err)
			}
			if isQuorumNotMet(err) {
				quorumRefusals++
			}
			ambiguous[key] = append(ambiguous[key], val)
			return // refused writes carry no read-back obligation
		}
		acked[key] = val
		ackedWrites++
		delete(ambiguous, key)
		// Read-your-writes: the immediate QUORUM read may refuse under
		// faults (retry a few times), but a returned value must be ours.
		var got []byte
		var rerr error
		for attempt := 0; attempt < 3; attempt++ {
			if got, rerr = client.LookupWith(key, wire.ConsistencyQuorum); rerr == nil {
				break
			}
			if !tolerable(rerr) && !errors.Is(rerr, core.ErrNotFound) {
				t.Fatalf("read %s: unexpected error class: %v", key, rerr)
			}
		}
		switch {
		case rerr != nil && errors.Is(rerr, core.ErrNotFound):
			staleReads++
			t.Errorf("acked write %s invisible to immediate QUORUM read", key)
		case rerr != nil:
			refusedReads++ // refusal is the permitted failure mode
		case string(got) != string(val):
			staleReads++
			t.Errorf("stale read-your-write on %s: got %q want %q", key, got, val)
		}
	}

	// Phases 1 and 2 run through a fault-free client.
	client, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 300; k++ {
		pair(client)
	}
	reg.SetDown(partitioned.Addr(), true)
	before := quorumRefusals
	for k := 0; k < 600; k++ {
		pair(client)
	}
	if quorumRefusals == before {
		t.Fatal("no quorum refusals while a replica was partitioned — the level is not enforced")
	}
	reg.SetDown(partitioned.Addr(), false)

	// Phase 3 runs through a chaos-wrapped client, whose scenario clock
	// starts here.
	everyone := ""
	sc := &Scenario{Steps: []Step{
		{At: 0, Label: "mild loss", Rules: []Rule{Lossy(everyone, everyone, 0.08)}},
		{At: 500 * time.Millisecond, Label: "loss + ack loss", Rules: []Rule{
			{To: everyone, Drop: 0.10, DropReply: 0.08},
		}},
		{At: 1000 * time.Millisecond, Label: "healed"},
	}}
	chaosCaller := Wrap(reg.NewClient(), sc, Options{Seed: seed, LossTimeout: 25 * time.Millisecond})
	t0 := time.Now()
	lossy, err := core.NewClient(cfg, d.Instance(0).Table(), chaosCaller)
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	for time.Since(t0) < 1200*time.Millisecond {
		if !killed && time.Since(t0) > 400*time.Millisecond {
			kill(2)
			killed = true
		}
		pair(lossy)
	}
	if len(acked) == 0 {
		t.Fatal("soak acked nothing; no invariant exercised")
	}
	if staleReads > 0 {
		t.Fatalf("%d stale or lost read-your-writes", staleReads)
	}

	// Quiesce, then the durability half: every acked write readable at
	// QUORUM through a fault-free client — at its acked value, or at a
	// value refused after it.
	d.Drain()
	verifier, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for key, want := range acked {
		v, err := verifier.LookupWith(key, wire.ConsistencyQuorum)
		if err == nil && (bytes.Equal(v, want) || slices.ContainsFunc(ambiguous[key], func(a []byte) bool { return bytes.Equal(v, a) })) {
			continue
		}
		lost++
		t.Errorf("acked QUORUM write %s lost: %q %v", key, v, err)
	}
	if lost > 0 {
		t.Fatalf("%d acked QUORUM writes lost across partition, chaos and crash", lost)
	}
	for _, name := range []string{"zht.consistency.quorum_writes", "zht.consistency.quorum_reads"} {
		if got := mreg.Counter(name).Value(); got < 1 {
			t.Errorf("%s = %d; the quorum path went unexercised", name, got)
		}
	}
	t.Logf("read-your-writes soak: %d writes acked on %d keys, %d quorum refusals, %d reads refused (permitted), 0 stale",
		ackedWrites, len(acked), quorumRefusals, refusedReads)
}

func isQuorumNotMet(err error) bool { return strings.Contains(err.Error(), "quorum not met") }

// TestOneStalenessAndQuorumRefusal is the deterministic contrast
// between the levels at Replicas=1: with the sole replica
// unreachable, a QUORUM write refuses while a ONE write acks — and
// the acked ONE write leaves the replica's copy observably stale
// (exactly the staleness ONE trades for availability, DESIGN.md §12)
// until hinted handoff replays the leg after the replica heals.
func TestOneStalenessAndQuorumRefusal(t *testing.T) {
	cfg := core.Config{
		NumPartitions: 32, Replicas: 1,
		RetryBase: time.Millisecond,
	}
	d, reg, err := core.BootstrapInproc(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	table := d.Instance(0).Table()
	victim := d.Instance(2)
	key, p := pickReplicatedKey(t, table, victim.ID())
	var owner *core.Instance
	for _, in := range d.Instances() {
		if in.ID() == table.OwnerOf(p).ID {
			owner = in
		}
	}

	// Both copies hold v1, then the replica drops off the network
	// (still Alive in every table: a partition, not a crash).
	if err := client.InsertWith(key, []byte("v1"), wire.ConsistencyAll); err != nil {
		t.Fatal(err)
	}
	reg.SetDown(victim.Addr(), true)

	// QUORUM refuses (needs 2/2, the replica can't ack)...
	if err := client.InsertWith(key, []byte("v2"), wire.ConsistencyQuorum); err == nil || !isQuorumNotMet(err) {
		t.Fatalf("QUORUM write with replica partitioned: err = %v, want quorum-not-met", err)
	}
	// ...while ONE acks through the primary alone.
	if err := client.InsertWith(key, []byte("v2"), wire.ConsistencyOne); err != nil {
		t.Fatalf("ONE write with replica partitioned: %v", err)
	}

	// The documented ONE staleness window, made visible: the primary's
	// copy moved on, the replica's did not — a failover read served
	// from the replica right now would return v1.
	if v, ok := replicaRead(owner, p, key); !ok || string(v) != "v2" {
		t.Fatalf("primary copy = %q %v, want v2", v, ok)
	}
	if v, ok := replicaRead(victim, p, key); !ok || string(v) != "v1" {
		t.Fatalf("replica copy = %q %v, want stale v1 while partitioned", v, ok)
	}

	// Heal: hinted handoff replays the dropped leg and the staleness
	// window closes without any read traffic.
	reg.SetDown(victim.Addr(), false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := replicaRead(victim, p, key); ok && string(v) == "v2" {
			break
		}
		if time.Now().After(deadline) {
			v, ok := replicaRead(victim, p, key)
			t.Fatalf("replica never converged after heal: %q %v", v, ok)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRepairNeverRegressesVersions soaks the version-aware repair
// plumbing: sequential acked overwrites of a fixed key set while the
// replica's connectivity flaps and a fast anti-entropy loop runs
// throughout. Whatever interleaving of hinted-handoff replays and
// Merkle repair rounds occurs, no copy may end up holding anything
// older than the last acked write — repair must never resurrect an
// overwritten value.
func TestRepairNeverRegressesVersions(t *testing.T) {
	if testing.Short() {
		t.Skip("repair regression soak skipped in -short mode")
	}
	mreg := metrics.NewRegistry()
	cfg := core.Config{
		NumPartitions: 32, Replicas: 1,
		AntiEntropy: 20 * time.Millisecond,
		HandoffCap:  8, // overflow under the flap → anti-entropy must close the gap
		RetryBase:   time.Millisecond,
		// ONE: writes keep acking while the replica flaps; every ack is
		// a version the repair machinery must preserve.
		WriteLevel: wire.ConsistencyOne,
		Metrics:    mreg,
	}
	d, reg, err := core.BootstrapInproc(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	table := d.Instance(0).Table()
	victim := d.Instance(1)
	hashf := hashing.ByName("")
	byID := map[ring.InstanceID]*core.Instance{}
	for _, in := range d.Instances() {
		byID[in.ID()] = in
	}

	// Keys owned by the two stable nodes (so every write acks) spread
	// across partitions; many have the flapping victim as replica.
	var keys []string
	for i := 0; len(keys) < 40; i++ {
		key := fmt.Sprintf("regress-%04d", i)
		if table.OwnerOf(table.Partition(hashf(key))).ID != victim.ID() {
			keys = append(keys, key)
		}
	}

	expected := map[string]string{}
	const rounds = 24
	for r := 0; r < rounds; r++ {
		reg.SetDown(victim.Addr(), r%6 >= 3) // flap: 3 rounds up, 3 down
		for _, key := range keys {
			val := fmt.Sprintf("round-%02d:%s", r, key)
			if err := client.Insert(key, []byte(val)); err != nil {
				t.Fatalf("round %d insert %s: %v", r, key, err)
			}
			expected[key] = val
		}
		time.Sleep(5 * time.Millisecond) // let anti-entropy interleave
	}

	// Heal and require convergence of EVERY copy to the final acked
	// value — an older round's value on any copy is a repair
	// regression.
	reg.SetDown(victim.Addr(), false)
	d.Drain()
	stale := func() (int, string) {
		for _, key := range keys {
			p := table.Partition(hashf(key))
			want := expected[key]
			for _, rep := range append([]ring.Instance{table.OwnerOf(p)}, table.ReplicasOf(p, 1)...) {
				v, ok := replicaRead(byID[rep.ID], p, key)
				if !ok || string(v) != want {
					return 1, fmt.Sprintf("%s on %s: %q (ok=%v) want %q", key, rep.ID, v, ok, want)
				}
			}
		}
		return 0, ""
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		n, where := stale()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("copies never converged to the last acked versions (stuck at %s)", where)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := mreg.Counter("zht.repair.digest_syncs").Value(); got < 1 {
		t.Fatalf("digest_syncs = %d; the soak never exercised anti-entropy", got)
	}
	t.Logf("version regression soak: %d keys x %d rounds, digest_syncs=%d handoff replayed=%d dropped=%d conflicts=%d",
		len(keys), rounds,
		mreg.Counter("zht.repair.digest_syncs").Value(),
		mreg.Counter("zht.repair.handoff.replayed").Value(),
		mreg.Counter("zht.repair.handoff.dropped").Value(),
		mreg.Counter("zht.consistency.version_conflicts").Value())
}

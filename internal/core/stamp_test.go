package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/novoht"
	"zht/internal/repair"
	"zht/internal/storage"
	"zht/internal/tenant"
	"zht/internal/transport"
	"zht/internal/wire"
)

// replicaOf returns the instance of d holding partition p's first
// replica.
func replicaOf(t *testing.T, d *Deployment, p int) *Instance {
	t.Helper()
	reps := d.Instance(0).tableRef().ReplicasOf(p, 1)
	if len(reps) == 0 {
		t.Fatalf("partition %d has no replica", p)
	}
	for _, in := range d.Instances() {
		if in.ID() == reps[0].ID {
			return in
		}
	}
	t.Fatalf("replica %s of partition %d not in the deployment", reps[0].ID, p)
	return nil
}

// storeVer reads key's value and stamp from in's copy of partition p.
func storeVer(t *testing.T, in *Instance, p int, key string) ([]byte, uint64, bool) {
	t.Helper()
	s := in.storeIfPresent(p)
	if s == nil {
		return nil, 0, false
	}
	v, ver, ok, err := s.GetAppendV(nil, key)
	if err != nil {
		t.Fatal(err)
	}
	return v, ver, ok
}

// shutHook is an AdmissionHook that refuses every request while shut.
type shutHook struct{ shut atomic.Bool }

func (h *shutHook) Admit(string, int) (func(), time.Duration, bool) {
	if h.shut.Load() {
		return nil, time.Millisecond, false
	}
	return func() {}, 0, true
}

// An internal flag on a client KV op buys nothing: the admission hook
// still screens it, and a write carrying a retired flag bit is
// replicated and stamped like any other. Only a replica read (a Lookup
// with FlagReplicaRead) bypasses the hook.
func TestInternalFlagsDoNotBypassGates(t *testing.T) {
	hook := &shutHook{}
	hook.shut.Store(true)
	d, _, _ := startDeployment(t, Config{NumPartitions: 8, Replicas: 1, Admission: hook}, 2)
	owner := d.Instance(0)
	key, p := ownedKey(t, owner)
	replica := replicaOf(t, d, p)

	const retired = 1 << 0 // a retired flag bit, once set on replica legs
	for _, flags := range []uint8{retired, wire.FlagReplicaRead} {
		resp := owner.Handle(&wire.Request{Op: wire.OpInsert, Key: key, Value: []byte("shed"),
			Flags: flags, Consistency: wire.ConsistencyAll})
		if resp.Status != wire.StatusBusy {
			t.Fatalf("insert with flags %#x past a shut hook = %s (%s), want busy", flags, resp.Status, resp.Err)
		}
	}

	hook.shut.Store(false)
	resp := owner.Handle(&wire.Request{Op: wire.OpInsert, Key: key, Value: []byte("small"),
		Flags: retired, Consistency: wire.ConsistencyAll})
	if resp.Status != wire.StatusOK {
		t.Fatalf("insert with a retired flag bit = %s (%s)", resp.Status, resp.Err)
	}
	_, ownerVer, ok := storeVer(t, owner, p, key)
	if !ok || ownerVer == 0 {
		t.Fatalf("owner holds %q at version %d (found %v), want a stamped pair", key, ownerVer, ok)
	}
	if v, ver, ok := storeVer(t, replica, p, key); !ok || ver != ownerVer || string(v) != "small" {
		t.Fatalf("replica holds %q@%d (found %v), want %q@%d", v, ver, ok, "small", ownerVer)
	}

	// A replica read is the one bypass, and still served.
	hook.shut.Store(true)
	resp = replica.Handle(&wire.Request{Op: wire.OpLookup, Key: key, Flags: wire.FlagReplicaRead})
	if resp.Status != wire.StatusOK || resp.Version != ownerVer {
		t.Fatalf("replica read = %s@%d, want ok@%d", resp.Status, resp.Version, ownerVer)
	}
}

// A migration push installs stamped pairs, so it advances the clock
// like a replica leg: the owner's next write of a pushed key stamps
// above the pushed version, and the replica's last-writer-wins compare
// accepts it.
func TestMigrationImportAdvancesClock(t *testing.T) {
	d, _, _ := startDeployment(t, Config{NumPartitions: 8, Replicas: 1}, 2)
	owner := d.Instance(0)
	key, p := ownedKey(t, owner)
	replica := replicaOf(t, d, p)

	// A pair whose stamp runs an hour ahead of every clock here, as a
	// hot key's stamps do after a burst of writes to it,
	// pushed as a departing owner's migration stream pushes it.
	ahead := uint64(time.Now().Add(time.Hour).UnixMilli()) << storage.StampNodeBits
	for _, in := range []*Instance{owner, replica} {
		resp := in.Handle(&wire.Request{Op: wire.OpRepairPull, Partition: int64(p), Flags: wire.FlagWholesale,
			Aux:   repair.EncodeLeafSet([]int{storage.LeafOf(key)}),
			Value: repair.EncodePairs([]repair.Pair{{Key: key, Value: []byte("imported"), Ver: ahead}})})
		if resp.Status != wire.StatusOK {
			t.Fatalf("migration push to %s: %s (%s)", in.ID(), resp.Status, resp.Err)
		}
	}

	resp := owner.Handle(&wire.Request{Op: wire.OpInsert, Key: key, Value: []byte("fresh"),
		Consistency: wire.ConsistencyAll})
	if resp.Status != wire.StatusOK {
		t.Fatalf("insert after the push = %s (%s)", resp.Status, resp.Err)
	}
	_, ownerVer, _ := storeVer(t, owner, p, key)
	if ownerVer <= ahead {
		t.Fatalf("owner stamped %d, not above the pushed %d", ownerVer, ahead)
	}
	if v, ver, _ := storeVer(t, replica, p, key); string(v) != "fresh" || ver != ownerVer {
		t.Fatalf("replica holds %q@%d, want the acked %q@%d", v, ver, "fresh", ownerVer)
	}
}

// A wholesale repair pull deletes a local pair the authority lacks by
// burying it just above its stamp, and the clock observes the
// tombstone's stamp: once the store reclaims it, the floor still passes
// it.
func TestSweptStampAdvancesClock(t *testing.T) {
	d, _, _ := startDeployment(t, Config{NumPartitions: 8, Replicas: 1}, 2)
	in := d.Instance(0)
	key, p := ownedKey(t, in)
	ahead := uint64(time.Now().Add(time.Hour).UnixMilli()) << storage.StampNodeBits
	if _, err := in.install(in.part(p), key, []byte("stale"), ahead); err != nil {
		t.Fatal(err)
	}
	resp := in.Handle(&wire.Request{Op: wire.OpRepairPull, Partition: int64(p), Flags: wire.FlagWholesale,
		Aux: repair.EncodeLeafSet([]int{storage.LeafOf(key)}), Value: repair.EncodePairs(nil)})
	if resp.Status != wire.StatusOK {
		t.Fatalf("wholesale pull: %s (%s)", resp.Status, resp.Err)
	}
	if _, _, ok := storeVer(t, in, p, key); ok {
		t.Fatal("the sweep left the pair the authority lacks")
	}
	if floor := in.clock.Floor(); floor <= ahead+1 {
		t.Fatalf("floor %#x after the sweep buried %#x", floor, ahead+1)
	}
}

// appendVRecordMax is the largest log record an append of delta bytes
// to key can write: the recAppendV header with the widest version
// stamp, the key, the delta and the checksum.
func appendVRecordMax(key string, delta int) int64 {
	return int64(1 + binary.MaxVarintLen64 + uvarintSize(uint64(len(key))) + uvarintSize(uint64(delta)) +
		len(key) + delta + 4)
}

func uvarintSize(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// Append and CAS at the primary cost what they write: with a replica
// and a durable store, each append logs one delta record, not the
// accumulated value, and a CAS logs exactly one record.
func TestAppendAndCasCostWhatTheyWrite(t *testing.T) {
	cfg := Config{NumPartitions: 8, Replicas: 1, DataDir: t.TempDir()}
	d, _, _ := startDeployment(t, cfg, 2)
	owner := d.Instance(0)
	key, p := ownedKey(t, owner)
	s, err := owner.store(p)
	if err != nil {
		t.Fatal(err)
	}

	// Each append is measured alone: a compaction between two of them
	// only shrinks the log.
	const appends, delta = 2000, 16
	chunk := bytes.Repeat([]byte("a"), delta)
	limit := appendVRecordMax(key, delta)
	for i := 0; i < appends; i++ {
		before := s.Stats().LogBytes
		resp := owner.Handle(&wire.Request{Op: wire.OpAppend, Key: key, Value: chunk})
		if resp.Status != wire.StatusOK {
			t.Fatalf("append %d = %s (%s)", i, resp.Status, resp.Err)
		}
		if grown := s.Stats().LogBytes - before; grown > limit {
			t.Fatalf("append %d of %d B grew the owner's log by %d B, more than one record (%d B)",
				i, delta, grown, limit)
		}
	}
	full, _, _ := storeVer(t, owner, p, key)
	if len(full) != appends*delta {
		t.Fatalf("accumulated value is %d B, want %d", len(full), appends*delta)
	}

	before := s.Stats().LogBytes
	resp := owner.Handle(&wire.Request{Op: wire.OpCas, Key: key, Aux: full, Value: []byte("swapped")})
	if resp.Status != wire.StatusOK {
		t.Fatalf("cas = %s (%s)", resp.Status, resp.Err)
	}
	_, ver, _ := storeVer(t, owner, p, key)
	// One recPutV record: type, key and value lengths, stamp, key,
	// value, checksum.
	want := int64(1 + uvarintSize(uint64(len(key))) + 1 + uvarintSize(ver) + len(key) + len("swapped") + 4)
	if grown := s.Stats().LogBytes - before; grown != want {
		t.Fatalf("cas grew the owner's log by %d B, want one %d B record", grown, want)
	}
}

// partitionPairs snapshots every pair in in's partition stores, keyed
// by partition and key.
func partitionPairs(t *testing.T, in *Instance, partitions int) map[string]string {
	t.Helper()
	out := map[string]string{}
	for p := 0; p < partitions; p++ {
		s, err := in.store(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ForEachV(func(k string, v []byte, ver uint64) error {
			out[fmt.Sprintf("%d/%s", p, k)] = fmt.Sprintf("%q@%x", v, ver)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// No lock above the store orders two writers of one key, so they can
// read their floors in one order and reach the store in the other.
// The store stamps the later arrival above the stored stamp, so a key's
// stamps rise in log order and a restart replays exactly the live
// state. Each round races four writers on a fresh key: two inserts
// against two inserts, appends or removes.
func TestConcurrentWritersReplayToLiveState(t *testing.T) {
	cfg := Config{NumPartitions: 8, Replicas: 0, DataDir: t.TempDir()}
	d, _, _ := startDeployment(t, cfg, 1)
	in := d.Instance(0)

	const rounds = 2000
	var start, done sync.WaitGroup
	for r := 0; r < rounds; r++ {
		key := fmt.Sprintf("race-%d", r)
		start.Add(1)
		for w := 0; w < 4; w++ {
			done.Add(1)
			go func(w int) {
				defer done.Done()
				req := &wire.Request{Op: wire.OpInsert, Key: key, Value: []byte{'a' + byte(w)}}
				if w%2 == 1 {
					req.Op = [...]wire.Op{wire.OpInsert, wire.OpAppend, wire.OpRemove}[r%3]
				}
				start.Wait()
				if resp := in.Handle(req); resp.Status != wire.StatusOK && resp.Status != wire.StatusNotFound {
					t.Errorf("%s %s = %s (%s)", req.Op, key, resp.Status, resp.Err)
				}
			}(w)
		}
		start.Done()
		done.Wait()
	}

	live := partitionPairs(t, in, cfg.NumPartitions)
	table := in.Table()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewInstance(cfg, table.Instances[0], table, transport.NewRegistry().NewClient())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	replayed := partitionPairs(t, reopened, cfg.NumPartitions)
	for k, want := range live {
		if got := replayed[k]; got != want {
			t.Errorf("%s: live %s, replayed %s", k, want, got)
		}
	}
	for k, got := range replayed {
		if _, ok := live[k]; !ok {
			t.Errorf("%s: absent live, replayed %s", k, got)
		}
	}
}

// nextStamp returns a stamp above every stamp c issued or observed, and
// observes it: the rising stamps tests hand-craft legs and installs
// with. Every stamp issued is at most the floor, since one above it is
// observed, so one millisecond past the floor is above them all.
func (c *hlc) nextStamp() uint64 {
	v := storage.Stamp(c.Floor()>>storage.StampNodeBits+1, c.node)
	c.Observe(v)
	return v
}

// TestEnvelopeDrawsStampsOnce: an envelope reads the clock's floor once,
// at its first mutation, so it reads the wall clock once, and an
// envelope of distinct keys stamps them all at that floor and leaves
// the clock as it found it: no swap. A key written twice in one
// envelope stores rising stamps, the second one millisecond above the
// first with the node's bits, and the clock is still untouched: the
// store keeps a pair's stamp.
func TestEnvelopeDrawsStampsOnce(t *testing.T) {
	d, _, _ := startDeployment(t, Config{NumPartitions: 8}, 1)
	in := d.Instance(0)
	var walls atomic.Int32
	in.clock.wall = func() uint64 { walls.Add(1); return wallMillis() }
	send := func(subs []*wire.Request) []*wire.Response {
		t.Helper()
		walls.Store(0)
		rs := batchSubs(t, in.Handle(wire.NewBatchRequest(subs)), len(subs))
		for i, r := range rs {
			if subs[i].Op != wire.OpLookup && r.Status != wire.StatusOK {
				t.Fatalf("sub-op %d (%s %s): %s (%s)", i, subs[i].Op, subs[i].Key, r.Status, r.Err)
			}
		}
		if walls.Load() != 1 {
			t.Fatalf("an envelope of %d sub-ops read the wall clock %d times, want 1", len(subs), walls.Load())
		}
		return rs
	}

	keys := make([]string, 5)
	subs := []*wire.Request{{Op: wire.OpLookup, Key: "env-absent"}}
	for i := range keys {
		keys[i] = fmt.Sprintf("env-%d", i)
		op := wire.OpInsert
		if i%2 == 1 {
			op = wire.OpAppend
		}
		subs = append(subs, &wire.Request{Op: op, Key: keys[i], Value: []byte("v")})
	}
	last := in.clock.last.Load()
	send(subs)
	if got := in.clock.last.Load(); got != last {
		t.Fatalf("an envelope of distinct keys moved the clock from %#x to %#x", last, got)
	}
	var floor uint64
	for _, k := range keys {
		_, ver, ok := storeVer(t, in, in.partitionOf(k), k)
		if !ok {
			t.Fatalf("%s not stored", k)
		}
		if floor == 0 {
			floor = ver
		}
		if ver != floor {
			t.Fatalf("%s stamped %#x, not the envelope's floor %#x", k, ver, floor)
		}
	}
	if floor&(1<<storage.StampNodeBits-1) != in.clock.node {
		t.Fatalf("floor %#x lost the node bits %#x", floor, in.clock.node)
	}

	rs := send([]*wire.Request{
		{Op: wire.OpInsert, Key: "twice", Value: []byte("a")},
		{Op: wire.OpLookup, Key: "twice"},
		{Op: wire.OpAppend, Key: "twice", Value: []byte("+")},
	})
	first := rs[1].Version
	v, ver, _ := storeVer(t, in, in.partitionOf("twice"), "twice")
	if want := storage.Stamp(first>>storage.StampNodeBits+1, in.clock.node); string(v) != "a+" || ver != want {
		t.Fatalf("twice = %q@%#x after a write at %#x, want %q@%#x", v, ver, first, "a+", want)
	}
	if got := in.clock.last.Load(); got != last {
		t.Fatalf("a key written twice moved the clock from %#x to %#x", last, got)
	}
}

// TestBurstLeadsWallClock pins DESIGN §12's lead. 20 000 writes of
// distinct keys leave the floor within a few milliseconds of the wall
// clock: each is stamped at the floor. One key written n times in
// elapsed < n ms runs its own chain ahead, one millisecond a write, so
// it leads the wall clock by at least n - 1 - elapsed ms.
func TestBurstLeadsWallClock(t *testing.T) {
	const n = 20000
	d, _, _ := startDeployment(t, Config{NumPartitions: 8}, 1)
	in := d.Instance(0)
	write := func(key string) {
		t.Helper()
		resp := in.Handle(&wire.Request{Op: wire.OpInsert, Key: key, Value: []byte("v")})
		if resp.Status != wire.StatusOK {
			t.Fatalf("insert %s = %s (%s)", key, resp.Status, resp.Err)
		}
		wire.PutResponse(resp)
	}
	for i := 0; i < n; i++ {
		write(fmt.Sprintf("burst-%d", i))
	}
	if lead := int64(in.clock.Floor()>>storage.StampNodeBits) - int64(wallMillis()); lead > 2 {
		t.Fatalf("%d writes of distinct keys left the floor %d ms ahead of the wall clock", n, lead)
	}

	start := wallMillis()
	for i := 0; i < n; i++ {
		write("hot")
	}
	end := wallMillis()
	elapsed := end - start
	if elapsed >= n-1 {
		t.Fatalf("%d writes took %d ms: no burst", n, elapsed)
	}
	_, ver, _ := storeVer(t, in, in.partitionOf("hot"), "hot")
	if lead := int64(ver>>storage.StampNodeBits) - int64(end); lead < int64(n-1-elapsed) {
		t.Fatalf("one key written %d times in %d ms leads the wall clock by %d ms, want >= %d", n, elapsed, lead, n-1-elapsed)
	}
}

// Once the owner's store forgets a stamp that a replica's copy keeps,
// the owner still stamps the key's next write above it, and the replica
// applies the leg: the clock observed the stamp when the store took it
// for a tombstone or reaped it. Each case leaves the replica holding a
// stamp at or above the floor's wall time; without the observe the
// owner would stamp the rewrite at the floor, and the replica would
// refuse it.
//   - chain: n writes of the key in one envelope run its stamps n ms
//     ahead of the floor, and its remove buries it above them.
//   - floor ahead: the floor leads wall time (a stamp observed an hour
//     ahead) and the key's pair is below it, so its remove is buried at
//     the floor itself.
//   - reaped: a chain of writes of an expired value, which the owner's
//     TTL reaper deletes while the replica's copy stays.
//
// In the first two the owner's tombstones are aged past RemoveGrace and
// a remove of an absent key in the partition reclaims the key's.
func TestRewriteAfterReclaimPassesReplicaTombstone(t *testing.T) {
	const n = 500
	chain := func(value []byte, remove bool) []*wire.Request {
		subs := make([]*wire.Request, 0, n+1)
		for i := 0; i < n; i++ {
			subs = append(subs, &wire.Request{Op: wire.OpInsert, Value: value})
		}
		if remove {
			subs = append(subs, &wire.Request{Op: wire.OpRemove})
		}
		return subs
	}
	cases := []struct {
		name    string
		prepare func(owner *Instance) []*wire.Request
		reclaim bool
	}{
		{"chain", func(*Instance) []*wire.Request { return chain([]byte("v"), true) }, true},
		{"floor ahead", func(owner *Instance) []*wire.Request {
			owner.clock.Observe(uint64(time.Now().Add(time.Hour).UnixMilli()) << storage.StampNodeBits)
			return []*wire.Request{{Op: wire.OpRemove}}
		}, true},
		{"reaped", func(*Instance) []*wire.Request {
			return chain(tenant.Wrap([]byte("v"), 0, time.Now().Add(-time.Second)), false)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, _, _ := startDeployment(t, Config{NumPartitions: 8, Replicas: 1}, 2)
			owner := d.Instance(0)
			key, p := ownedKey(t, owner)
			replica := replicaOf(t, d, p)
			if resp := owner.Handle(&wire.Request{Op: wire.OpInsert, Key: key, Value: []byte("first"),
				Consistency: wire.ConsistencyAll}); resp.Status != wire.StatusOK {
				t.Fatalf("insert = %s (%s)", resp.Status, resp.Err)
			}
			subs := tc.prepare(owner)
			for _, r := range subs {
				r.Key, r.Consistency = key, wire.ConsistencyAll
			}
			for i, r := range batchSubs(t, owner.Handle(wire.NewBatchRequest(subs)), len(subs)) {
				if r.Status != wire.StatusOK {
					t.Fatalf("sub-op %d (%s): %s (%s)", i, subs[i].Op, r.Status, r.Err)
				}
			}
			if tc.reclaim {
				aged := time.Now().Add(novoht.RemoveGrace + time.Second).UnixMilli()
				owner.storeIfPresent(p).SetWallClock(func() int64 { return aged })
				other := ""
				for i := 0; other == ""; i++ {
					if k := fmt.Sprintf("other-%d", i); owner.partitionOf(k) == p {
						other = k
					}
				}
				if resp := owner.Handle(&wire.Request{Op: wire.OpRemove, Key: other}); resp.Status != wire.StatusNotFound {
					t.Fatalf("remove of absent %s = %s (%s)", other, resp.Status, resp.Err)
				}
			} else {
				owner.reapExpired()
			}
			if _, _, ok := storeVer(t, owner, p, key); ok {
				t.Fatal("the owner's store still holds the key")
			}

			resp := owner.Handle(&wire.Request{Op: wire.OpInsert, Key: key, Value: []byte("again"), Consistency: wire.ConsistencyAll})
			if resp.Status != wire.StatusOK {
				t.Fatalf("rewrite = %s (%s)", resp.Status, resp.Err)
			}
			_, ownerVer, _ := storeVer(t, owner, p, key)
			if v, ver, ok := storeVer(t, replica, p, key); !ok || string(v) != "again" || ver != ownerVer {
				t.Fatalf("replica holds %q@%#x (found %v) after the rewrite, want %q@%#x", v, ver, ok, "again", ownerVer)
			}
		})
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/repair"
	"zht/internal/storage"
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
	// peer's stamps do after a burst of writes borrowed milliseconds,
	// pushed as a departing owner's migration stream pushes it.
	ahead := uint64(time.Now().Add(time.Hour).UnixMilli()) << hlcNodeBits
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

// At r = 0 no mutation stripe orders two writers of one key, so they
// can draw their stamps in one order and reach the store in the
// other. The store refuses the stale stamp and the op redraws, so a
// key's stamps rise in log order and a restart replays exactly the
// live state. Each round races four writers on a fresh key: two
// inserts against two inserts, appends or removes.
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

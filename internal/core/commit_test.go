package core

// Tests for the per-request WAL commit: an instance's stores only stage
// their log records, and the code that acknowledges a request — an
// envelope's primaries, a leg envelope, a migration push, a repair
// pull, a reaper sweep, the legacy import — commits them once.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"zht/internal/novoht"
	"zht/internal/repair"
	"zht/internal/ring"
	"zht/internal/storage"
	"zht/internal/tenant"
	"zht/internal/transport"
	"zht/internal/wire"
)

// logFault counts the writes and fsyncs of one log and, when tear is
// set, cuts the first write at byte tearAt and fails it.
type logFault struct {
	mu     sync.Mutex
	writes []int // the size of every write
	syncs  int
	tear   bool
	tearAt int
}

var errTorn = errors.New("test: torn write")

func (f *logFault) BeforeWrite(n int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes = append(f.writes, n)
	if f.tear && len(f.writes) == 1 && f.tearAt < n {
		return f.tearAt, errTorn
	}
	return n, nil
}

func (f *logFault) BeforeSync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	return nil
}

func (f *logFault) counts() (writes, syncs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.writes), f.syncs
}

// logPath is in's write-ahead log file.
func logPath(in *Instance) string {
	return filepath.Join(in.cfg.DataDir, string(in.self.ID)+".log")
}

// swapLog replaces the log of in, which must not have created a store
// yet, with one on the same file whose writes and fsyncs pass through
// fault.
func swapLog(t *testing.T, in *Instance, fault storage.Fault) {
	t.Helper()
	if n := len(in.openStores()); n != 0 {
		t.Fatalf("%s already holds %d stores", in.ID(), n)
	}
	if err := in.log.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := novoht.OpenLog(novoht.Options{Path: logPath(in), Durability: in.cfg.Durability, Fault: fault}, in.partitionOf)
	if err != nil {
		t.Fatal(err)
	}
	in.log = l
}

// ownedKeys returns n fresh insert ops whose keys in owns.
func ownedKeys(t *testing.T, in *Instance, prefix string, n int) []BatchOp {
	t.Helper()
	table := in.Table()
	var ops []BatchOp
	for i := 0; len(ops) < n; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if table.OwnerOf(in.partitionOf(k)).ID == in.ID() {
			ops = append(ops, BatchOp{Op: wire.OpInsert, Key: k, Value: []byte("value-" + k)})
		}
	}
	return ops
}

// TestEnvelopeCommitsOncePerLog pins the cost of one Batch of 64
// inserts at r=1, every key owned by one instance: the owner's log
// makes one write for the envelope's primaries, and the replica's log
// one write for the legs, which arrive as one envelope. In group mode
// each write is followed by one fsync; in async mode by none.
func TestEnvelopeCommitsOncePerLog(t *testing.T) {
	for _, mode := range []storage.Durability{storage.DurabilityGroup, storage.DurabilityAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{NumPartitions: 64, Replicas: 1, DataDir: t.TempDir(), Durability: mode,
				RetryBase: time.Millisecond}
			d, _, c := startDeployment(t, cfg, 2)
			faults := [2]*logFault{{}, {}}
			for i, f := range faults {
				swapLog(t, d.Instance(i), f)
			}
			mustBatch(t, c, ownedKeys(t, d.Instance(0), "batch", 64))
			d.Drain()
			wantSyncs := 0
			if mode == storage.DurabilityGroup {
				wantSyncs = 1
			}
			for i, role := range []string{"owner", "replica"} {
				if writes, syncs := faults[i].counts(); writes != 1 || syncs != wantSyncs {
					t.Errorf("%s log: %d writes and %d fsyncs for one 64-op envelope, want 1 and %d",
						role, writes, syncs, wantSyncs)
				}
			}
		})
	}
}

// logState reports how many bytes in's log holds, counting staged
// records, and how many of them are not yet in the file.
func logState(t *testing.T, in *Instance) (size, unwritten int64) {
	t.Helper()
	stores := in.openStores()
	if len(stores) == 0 {
		return 0, 0
	}
	st, err := os.Stat(logPath(in))
	if err != nil {
		t.Fatal(err)
	}
	size = stores[0].Stats().LogBytes // every store reports the shared log
	return size, size - st.Size()
}

// committed fails unless every record the instances staged is in
// their log files.
func committed(t *testing.T, what string, ins ...*Instance) {
	t.Helper()
	for _, in := range ins {
		if _, unwritten := logState(t, in); unwritten != 0 {
			t.Errorf("%s: %s left %d bytes of records staged but unwritten", what, in.ID(), unwritten)
		}
	}
}

// grew runs f and fails unless it staged records on in's log and, once
// it returned, every staged record was in the file. A path that stages
// nothing would pass vacuously.
func grew(t *testing.T, what string, in *Instance, f func()) {
	t.Helper()
	before, _ := logState(t, in)
	f()
	after, unwritten := logState(t, in)
	if after == before {
		t.Fatalf("%s: staged nothing on %s", what, in.ID())
	}
	if unwritten != 0 {
		t.Errorf("%s: %s left %d bytes of records staged but unwritten", what, in.ID(), unwritten)
	}
}

// eventuallyCommitted waits until every record staged on in is in the
// file and done reports true. Background work (leg queues, handoff
// replay) ends in no reply to wait on; a record nobody commits stays
// unwritten forever, so a missing commit point still fails here.
func eventuallyCommitted(t *testing.T, what string, in *Instance, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, unwritten := logState(t, in)
		if unwritten == 0 && done() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %s still has %d bytes staged but unwritten (done=%v)", what, in.ID(), unwritten, done())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoRecordPendingAtAck is the durability contract of the
// per-request commit. In a single-client async deployment, once any
// mutating request or background pass returns, the log file holds
// every record staged before it: a commit point that was forgotten
// leaves the record staged, and the file short of the log.
func TestNoRecordPendingAtAck(t *testing.T) {
	async := func(t *testing.T, replicas int) Config {
		return Config{NumPartitions: 16, Replicas: replicas, DataDir: t.TempDir(),
			RetryBase: time.Millisecond}
	}

	t.Run("single-ops", func(t *testing.T) {
		d, _, c := startDeployment(t, async(t, 1), 2)
		all := d.Instances()
		steps := []struct {
			name string
			do   func() error
		}{
			{"insert", func() error { return c.Insert("k", []byte("v1")) }},
			{"insert-if-absent", func() error { return c.InsertIfAbsent("fresh", []byte("v")) }},
			{"append", func() error { return c.Append("k", []byte("+a")) }},
			{"cas", func() error { _, err := c.Cas("k", []byte("v1+a"), []byte("v2")); return err }},
			{"remove", func() error { return c.Remove("k") }},
		}
		for _, st := range steps {
			before := [2]int64{}
			for i, in := range all {
				before[i], _ = logState(t, in)
			}
			if err := st.do(); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			committed(t, st.name, all...)
			for i, in := range all {
				if after, _ := logState(t, in); after == before[i] {
					t.Fatalf("%s: staged nothing on %s (owner and replica both log it)", st.name, in.ID())
				}
			}
		}
	})

	t.Run("envelope-and-sync-legs", func(t *testing.T) {
		d, _, c := startDeployment(t, async(t, 1), 2)
		owner, replica := d.Instance(0), d.Instance(1)
		grew(t, "envelope primaries", owner, func() { mustBatch(t, c, ownedKeys(t, owner, "env", 32)) })
		// The sync leg envelope was acked before the client's reply.
		committed(t, "sync leg envelope", replica)
	})

	t.Run("leg-queue-drain", func(t *testing.T) {
		// At r=2 with write level ONE, the second replica's legs leave
		// through the leg queue.
		cfg := async(t, 2)
		cfg.WriteLevel = wire.ConsistencyOne
		d, _, c := startDeployment(t, cfg, 3)
		owner := d.Instance(0)
		mustBatch(t, c, ownedKeys(t, owner, "drain", 32))
		d.Drain()
		committed(t, "leg queue drain", d.Instances()...)
		for _, in := range d.Instances() {
			if in.LocalKeys() != 32 {
				t.Fatalf("%s holds %d keys, want every copy of 32", in.ID(), in.LocalKeys())
			}
		}
	})

	t.Run("handoff-replay", func(t *testing.T) {
		cfg := async(t, 1)
		cfg.WriteLevel = wire.ConsistencyOne
		d, reg, c := startDeployment(t, cfg, 2)
		owner, replica := d.Instance(0), d.Instance(1)
		mustBatch(t, c, ownedKeys(t, owner, "warm", 1)) // the replica opens its log's first store
		reg.SetDown(replica.Addr(), true)
		ops := ownedKeys(t, owner, "handoff", 16)
		mustBatch(t, c, ops)
		if replica.LocalKeys() != 1 {
			t.Fatalf("a down replica took legs: holds %d keys", replica.LocalKeys())
		}
		reg.SetDown(replica.Addr(), false)
		eventuallyCommitted(t, "handoff replay", replica, func() bool { return replica.LocalKeys() == 1+len(ops) })
	})

	t.Run("migration-push", func(t *testing.T) {
		d, _, c := startDeployment(t, async(t, 0), 2)
		src, dst := d.Instance(0), d.Instance(1)
		ops := ownedKeys(t, src, "mig", 8)
		mustBatch(t, c, ops)
		p := src.partitionOf(ops[0].Key)
		pairs, err := src.collectLeafPairs(p, allLeaves())
		if err != nil {
			t.Fatal(err)
		}
		grew(t, "migration push", dst, func() {
			resp := dst.Handle(&wire.Request{Op: wire.OpRepairPull, Partition: int64(p), Flags: wire.FlagWholesale,
				Aux: repair.EncodeLeafSet(allLeaves()), Value: repair.EncodePairs(pairs)})
			if resp.Status != wire.StatusOK {
				t.Fatalf("migration push: %s %s", resp.Status, resp.Err)
			}
		})
		if dst.PartitionKeys(p) != src.PartitionKeys(p) {
			t.Fatalf("push moved %d of %d keys", dst.PartitionKeys(p), src.PartitionKeys(p))
		}
	})

	t.Run("repair-pull", func(t *testing.T) {
		d, _, c := startDeployment(t, async(t, 0), 2)
		src, dst := d.Instance(0), d.Instance(1)
		ops := ownedKeys(t, src, "pull", 8)
		mustBatch(t, c, ops)
		p := src.partitionOf(ops[0].Key)
		grew(t, "repair pull", dst, func() { dst.pullChunks(src.Addr(), p, allLeaves(), true, nil) })
		if dst.PartitionKeys(p) != src.PartitionKeys(p) {
			t.Fatalf("pull moved %d of %d keys", dst.PartitionKeys(p), src.PartitionKeys(p))
		}
		// The push direction: an authority replaces the receiver's leaves.
		pairs, err := src.collectLeafPairs(p, allLeaves())
		if err != nil {
			t.Fatal(err)
		}
		for i := range pairs {
			pairs[i].Value = append(pairs[i].Value, '!')
			pairs[i].Ver++
		}
		grew(t, "repair push", dst, func() {
			resp := dst.Handle(&wire.Request{Op: wire.OpRepairPull, Partition: int64(p),
				Aux: repair.EncodeLeafSet(allLeaves()), Value: repair.EncodePairs(pairs)})
			if resp.Status != wire.StatusOK {
				t.Fatalf("repair push: %s %s", resp.Status, resp.Err)
			}
		})
	})

	t.Run("reaper-sweep", func(t *testing.T) {
		d, _, c := startDeployment(t, async(t, 0), 2)
		in := d.Instance(0)
		ops := ownedKeys(t, in, "ttl", 8)
		for i := range ops {
			ops[i].Value = tenant.Wrap(ops[i].Value, 0, time.Now().Add(-time.Second))
		}
		mustBatch(t, c, ops)
		grew(t, "reaper sweep", in, in.reapExpired)
		if n := in.LocalKeys(); n != 0 {
			t.Fatalf("the sweep left %d expired keys", n)
		}
	})

	t.Run("legacy-import", func(t *testing.T) {
		cfg := async(t, 0)
		members := []ring.Instance{{ID: "zht-0000", Addr: "zht-0000"}}
		table, err := ring.New(cfg.NumPartitions, members)
		if err != nil {
			t.Fatal(err)
		}
		old, err := novoht.Open(novoht.Options{Path: filepath.Join(cfg.DataDir, "zht-0000-p000003.log")})
		if err != nil {
			t.Fatal(err)
		}
		hash := cfg.hash()
		n := 0
		for i := 0; n < 8; i++ {
			if k := fmt.Sprintf("legacy-%d", i); table.Partition(hash(k)) == 3 {
				if _, err := old.PutV(k, []byte("v"), uint64(i+1)<<storage.StampNodeBits); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		in, err := NewInstance(cfg, members[0], table, transport.NewRegistry().NewClient())
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		if in.LocalKeys() != n {
			t.Fatalf("import installed %d of %d pairs", in.LocalKeys(), n)
		}
		committed(t, "legacy import", in)
	})
}

// TestTornEnvelopeCommit tears the one write that commits an
// envelope's records at every byte offset. The client sees an error
// for every op of the envelope, never an ack, and the reopened log
// holds a prefix of the envelope's records in apply order —
// partition by partition, each partition's ops in request order.
func TestTornEnvelopeCommit(t *testing.T) {
	cfg := Config{NumPartitions: 4, Replicas: 0, RetryBase: time.Millisecond, opRetries: 1}
	var ops []BatchOp
	for i := 0; i < 6; i++ {
		ops = append(ops, BatchOp{Op: wire.OpInsert, Key: fmt.Sprintf("torn-%d", i), Value: []byte(fmt.Sprintf("value-%d", i))})
	}
	table, err := ring.New(cfg.NumPartitions, []ring.Instance{{ID: "zht-0000", Addr: "zht-0000"}})
	if err != nil {
		t.Fatal(err)
	}
	partition := func(op BatchOp) int { return table.Partition(cfg.hash()(op.Key)) }
	order := slices.Clone(ops)
	slices.SortStableFunc(order, func(a, b BatchOp) int { return partition(a) - partition(b) })
	if partition(order[0]) == partition(order[len(order)-1]) {
		t.Fatal("every op hashes to one partition; the envelope should span several")
	}

	// run sends the envelope to a fresh one-instance deployment whose
	// log passes its writes through f, then reopens the log and returns
	// the results and which ops, in apply order, it replayed.
	run := func(f *logFault) ([]BatchResult, []bool) {
		cfg := cfg
		cfg.DataDir = t.TempDir()
		d, _, c := startDeployment(t, cfg, 1)
		in := d.Instance(0)
		swapLog(t, in, f)
		rs, err := c.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		d.Close() // a torn log fails its close; the file is what counts
		re, err := NewInstance(cfg, in.self, in.Table(), transport.NewRegistry().NewClient())
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		present := make([]bool, len(order))
		for j, op := range order {
			v, _, ok := storeVer(t, re, re.partitionOf(op.Key), op.Key)
			if ok && string(v) != string(op.Value) {
				t.Fatalf("%s replayed as %q, want %q", op.Key, v, op.Value)
			}
			present[j] = ok
		}
		return rs, present
	}

	whole := &logFault{}
	rs, present := run(whole)
	if len(whole.writes) != 1 {
		t.Fatalf("the envelope took %d writes, want one", len(whole.writes))
	}
	for i, r := range rs {
		if r.Err != nil || !present[i] {
			t.Fatalf("whole write: op %d err %v, replayed %v", i, r.Err, present[i])
		}
	}
	n := whole.writes[0]
	t.Logf("tearing the envelope's %d-byte write at every offset", n)
	for cut := 0; cut < n; cut++ {
		rs, present := run(&logFault{tear: true, tearAt: cut})
		for i, r := range rs {
			if r.Err == nil {
				t.Fatalf("cut %d of %d: op %d (%s) acked", cut, n, i, ops[i].Key)
			}
		}
		k := 0
		for k < len(present) && present[k] {
			k++
		}
		if slices.Contains(present[k:], true) {
			t.Fatalf("cut %d of %d: replayed %v, not a prefix of the apply order", cut, n, present)
		}
	}
}

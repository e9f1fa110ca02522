package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

func testCfg() Config {
	return Config{NumPartitions: 64, Replicas: 2, RetryBase: time.Millisecond}
}

func startDeployment(t *testing.T, cfg Config, n int) (*Deployment, *transport.Registry, *Client) {
	t.Helper()
	d, reg, err := BootstrapInproc(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return d, reg, c
}

func TestBasicOps(t *testing.T) {
	_, _, c := startDeployment(t, testCfg(), 4)
	if err := c.Insert("file1", []byte("meta1")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Lookup("file1")
	if err != nil || string(v) != "meta1" {
		t.Fatalf("Lookup = %q %v", v, err)
	}
	if err := c.Insert("file1", []byte("meta2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Lookup("file1"); string(v) != "meta2" {
		t.Errorf("overwrite: %q", v)
	}
	if err := c.Remove("file1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("file1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup removed key: %v", err)
	}
	if err := c.Remove("file1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: %v", err)
	}
}

func TestManyKeysSpreadAcrossInstances(t *testing.T) {
	d, _, c := startDeployment(t, Config{NumPartitions: 64, Replicas: 0}, 8)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := c.Insert(fmt.Sprintf("key-%06d", i), []byte(fmt.Sprintf("val-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, in := range d.Instances() {
		k := in.LocalKeys()
		if k == 0 {
			t.Errorf("instance %s holds no keys; distribution broken", in.ID())
		}
		total += k
	}
	if total != n {
		t.Errorf("total stored keys = %d, want %d (no replicas)", total, n)
	}
	for i := 0; i < n; i += 97 {
		v, err := c.Lookup(fmt.Sprintf("key-%06d", i))
		if err != nil || string(v) != fmt.Sprintf("val-%06d", i) {
			t.Fatalf("key-%06d = %q %v", i, v, err)
		}
	}
}

func TestInsertIfAbsent(t *testing.T) {
	_, _, c := startDeployment(t, testCfg(), 2)
	if err := c.InsertIfAbsent("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertIfAbsent("k", []byte("v2")); !errors.Is(err, ErrExists) {
		t.Errorf("second conditional insert: %v", err)
	}
	if v, _ := c.Lookup("k"); string(v) != "v1" {
		t.Errorf("value clobbered: %q", v)
	}
}

func TestAppendAcrossClients(t *testing.T) {
	d, _, _ := startDeployment(t, testCfg(), 4)
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := d.NewClient()
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				if err := c.Append("shared-dir", []byte{byte('a' + w)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c, _ := d.NewClient()
	v, err := c.Lookup("shared-dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != workers*per {
		t.Fatalf("append lost data: %d bytes, want %d", len(v), workers*per)
	}
	counts := map[byte]int{}
	for _, b := range v {
		counts[b]++
	}
	for w := 0; w < workers; w++ {
		if counts[byte('a'+w)] != per {
			t.Errorf("client %d contributed %d, want %d", w, counts[byte('a'+w)], per)
		}
	}
}

func TestCas(t *testing.T) {
	_, _, c := startDeployment(t, testCfg(), 4)
	if _, err := c.Cas("task", nil, []byte("queued")); err != nil {
		t.Fatal(err)
	}
	cur, err := c.Cas("task", []byte("wrong"), []byte("x"))
	if !errors.Is(err, ErrCasMismatch) || string(cur) != "queued" {
		t.Fatalf("cas mismatch = %q %v", cur, err)
	}
	if _, err := c.Cas("task", []byte("queued"), []byte("running")); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Lookup("task"); string(v) != "running" {
		t.Errorf("after cas: %q", v)
	}
	// Expect-absent on present key.
	if _, err := c.Cas("task", nil, []byte("y")); !errors.Is(err, ErrCasMismatch) {
		t.Errorf("expect-absent on present: %v", err)
	}
}

func TestCasContention(t *testing.T) {
	d, _, c := startDeployment(t, testCfg(), 4)
	if _, err := c.Cas("counter", nil, []byte("0")); err != nil {
		t.Fatal(err)
	}
	const workers, incr = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, _ := d.NewClient()
			for i := 0; i < incr; i++ {
				for {
					cur, err := cl.Lookup("counter")
					if err != nil {
						t.Error(err)
						return
					}
					var n int
					fmt.Sscanf(string(cur), "%d", &n)
					_, err = cl.Cas("counter", cur, []byte(fmt.Sprintf("%d", n+1)))
					if err == nil {
						break
					}
					if !errors.Is(err, ErrCasMismatch) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	v, _ := c.Lookup("counter")
	if string(v) != fmt.Sprintf("%d", workers*incr) {
		t.Errorf("counter = %q, want %d (CAS must linearize)", v, workers*incr)
	}
}

func TestReplicationPlacesCopies(t *testing.T) {
	d, _, c := startDeployment(t, testCfg(), 4)
	const n = 200
	for i := 0; i < n; i++ {
		if err := c.Insert(fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	d.Drain()
	total := 0
	for _, in := range d.Instances() {
		total += in.LocalKeys()
	}
	// 2 replicas on 4 nodes: every key stored 3 times.
	if total != 3*n {
		t.Errorf("total copies = %d, want %d", total, 3*n)
	}
}

func TestWrongOwnerLazyRefresh(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 0, RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 2)
	// Stale client: built before a join changes ownership.
	stale, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("k-before", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Join(Endpoint{Addr: "zht-joined", Node: "node-joined"}); err != nil {
		t.Fatal(err)
	}
	// The stale client must transparently recover via WrongOwner +
	// table refresh for keys now owned by the new instance.
	oldEpoch := stale.Table().Epoch
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("post-join-%04d", i)
		if err := stale.Insert(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if v, err := stale.Lookup(k); err != nil || string(v) != "x" {
			t.Fatalf("%s = %q %v", k, v, err)
		}
	}
	if stale.Table().Epoch <= oldEpoch {
		t.Error("stale client never refreshed its table")
	}
}

func TestFailoverServesFromReplica(t *testing.T) {
	d, reg, c := startDeployment(t, testCfg(), 4)
	const n = 100
	for i := 0; i < n; i++ {
		if err := c.Insert(fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf("val-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	d.Drain()
	victim := d.Instance(1)
	reg.SetDown(victim.Addr(), true)

	// Every key must remain readable (replicas answer for the dead
	// primary) and writable.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v, err := c.Lookup(k)
		if err != nil || string(v) != fmt.Sprintf("val-%04d", i) {
			t.Fatalf("%s after failure = %q %v", k, v, err)
		}
	}
	if err := c.Insert("post-failure", []byte("ok")); err != nil {
		t.Fatalf("write after failure: %v", err)
	}
	// The failure must have been broadcast: other instances see the
	// victim as failed.
	tab := d.Instance(0).Table()
	idx := tab.IndexOf(victim.ID())
	if tab.Status[idx] != ring.Failed {
		t.Errorf("victim status on peer = %v, want failed", tab.Status[idx])
	}
}

func TestReplicaRebuildAfterFailure(t *testing.T) {
	d, reg, c := startDeployment(t, testCfg(), 4)
	const n = 120
	for i := 0; i < n; i++ {
		if err := c.Insert(fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	d.Drain()
	victim := d.Instance(2)
	lost := victim.LocalKeys()
	if lost == 0 {
		t.Fatal("victim held no keys; test is vacuous")
	}
	reg.SetDown(victim.Addr(), true)
	// Trigger detection via a write.
	if err := c.Insert("trigger", []byte("x")); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	// Replication level must be restored: each key has 3 copies on
	// the 3 surviving instances (minus the victim's copies).
	total := 0
	for _, in := range d.Instances() {
		if in == victim {
			continue
		}
		total += in.LocalKeys()
	}
	// n keys * 3 copies + trigger*3 = full level on survivors.
	want := 3 * (n + 1)
	if total < want {
		t.Errorf("copies on survivors = %d, want >= %d (rebuild incomplete)", total, want)
	}
	// Every copy the new table names holds exactly the owner's pairs.
	byID := map[ring.InstanceID]*Instance{}
	table := d.Instance(0).Table()
	for _, in := range d.Instances() {
		byID[in.ID()] = in
		if in != victim {
			table = newerTable(table, in.Table())
		}
	}
	for p := 0; p < table.NumPartitions; p++ {
		owner := byID[table.OwnerOf(p).ID]
		for _, r := range table.ReplicasOf(p, testCfg().Replicas) {
			if !reflect.DeepEqual(byID[r.ID].PartitionDigest(p), owner.PartitionDigest(p)) {
				t.Errorf("partition %d: replica %s's digest differs from owner %s's", p, r.ID, owner.ID())
			}
		}
	}
}

// TestJoinFillsNewReplicas: a join changes copy sets twice over. The
// newcomer owns partitions whose replicas it must fill, and the
// newcomer is itself a new replica of partitions other owners keep.
// Once the join's asynchronous work drains, every copy the new table
// names holds its owner's pairs, anti-entropy off.
func TestJoinFillsNewReplicas(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 3)
	for i := 0; i < 300; i++ {
		if err := c.Insert(fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	d.Drain()
	if _, err := d.Join(Endpoint{Addr: "zht-fill", Node: "node-fill"}); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	byID := map[ring.InstanceID]*Instance{}
	table := d.Instance(0).Table()
	for _, in := range d.Instances() {
		byID[in.ID()] = in
		table = newerTable(table, in.Table())
	}
	differ := 0
	for p := 0; p < table.NumPartitions; p++ {
		owner := byID[table.OwnerOf(p).ID]
		for _, r := range table.ReplicasOf(p, cfg.Replicas) {
			if !reflect.DeepEqual(byID[r.ID].PartitionDigest(p), owner.PartitionDigest(p)) {
				differ++
				t.Errorf("partition %d: replica %s's digest differs from owner %s's", p, r.ID, owner.ID())
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d partitions have a replica that differs from its owner", differ, table.NumPartitions)
	}
}

// TestRebuildOnlyWhatLostACopy: a failover rebuilds the partitions
// whose copy set it changed, and no other. With anti-entropy off the
// rebuild is the only sender of digest probes, so the owners send
// exactly one per replica of each such partition.
func TestRebuildOnlyWhatLostACopy(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}
	d, reg, probes := countingDeployment(t, cfg, 8, wire.OpDigest)
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	victim := d.Instance(3)
	old := d.Instance(0).Table()
	for i := 0; i < 200; i++ {
		if err := c.Insert(fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	d.Drain()
	reg.SetDown(victim.Addr(), true)
	// A write to one of the victim's partitions detects the failure.
	if err := c.Insert(keyForPartition(t, cfg, old, old.PartitionsOf(old.IndexOf(victim.ID()))[0]), []byte("x")); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	nt := old
	for _, in := range d.Instances() {
		if in != victim {
			nt = newerTable(nt, in.Table())
		}
	}
	if nt.Epoch != old.Epoch+1 {
		t.Fatalf("epoch %d after one failover from %d", nt.Epoch, old.Epoch)
	}
	want, every := 0, 0
	for p := 0; p < nt.NumPartitions; p++ {
		reps := len(nt.ReplicasOf(p, cfg.Replicas))
		every += reps
		if ring.CopySetChanged(old, nt, p, cfg.Replicas) {
			want += reps
		}
	}
	if want == 0 || want >= every {
		t.Fatalf("%d probes for the changed copy sets against %d for every partition: the test cannot tell them apart", want, every)
	}
	if got := probes.Load(); got != int64(want) {
		t.Fatalf("owners sent %d digest probes, want %d: one per replica of each partition whose copy set changed", got, want)
	}
}

func TestDynamicJoinMovesPartitionsNotKeys(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 0, RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 2)
	const n = 500
	for i := 0; i < n; i++ {
		if err := c.Insert(fmt.Sprintf("key-%05d", i), []byte(fmt.Sprintf("v%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := map[string]int{}
	for _, in := range d.Instances() {
		before[string(in.ID())] = in.LocalKeys()
	}
	joined, err := d.Join(Endpoint{Addr: "zht-new", Node: "node-new"})
	if err != nil {
		t.Fatal(err)
	}
	if joined.LocalKeys() == 0 {
		t.Error("joined instance received no data")
	}
	// All data remains reachable.
	c2, _ := d.NewClient()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		v, err := c2.Lookup(k)
		if err != nil || string(v) != fmt.Sprintf("v%05d", i) {
			t.Fatalf("%s after join = %q %v", k, v, err)
		}
	}
	// Partition count: the most-loaded instance gave up half its 32.
	tab := joined.Table()
	if got := len(tab.PartitionsOf(tab.IndexOf(joined.ID()))); got != 16 {
		t.Errorf("joined instance owns %d partitions, want 16", got)
	}
}

func TestJoinUnderLoad(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 0, RetryBase: time.Millisecond}
	d, _, _ := startDeployment(t, cfg, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var opErrs sync.Map
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := d.NewClient()
			if err != nil {
				opErrs.Store("client", err)
				return
			}
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("w%d-%06d", w, i)
				if err := c.Insert(k, []byte("v")); err != nil {
					opErrs.Store(k, err)
					return
				}
				if _, err := c.Lookup(k); err != nil {
					opErrs.Store(k+"/lookup", err)
					return
				}
				i++
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond)
	for j := 0; j < 3; j++ {
		if _, err := d.Join(Endpoint{Addr: fmt.Sprintf("zht-live-%d", j), Node: fmt.Sprintf("node-live-%d", j)}); err != nil {
			t.Errorf("join %d under load: %v", j, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	opErrs.Range(func(k, v any) bool {
		t.Errorf("op %v failed during live join: %v", k, v)
		return true
	})
}

func TestPlannedDeparture(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 0, RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 4)
	const n = 400
	for i := 0; i < n; i++ {
		if err := c.Insert(fmt.Sprintf("key-%05d", i), []byte(fmt.Sprintf("v%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Depart(1); err != nil {
		t.Fatal(err)
	}
	if d.Size() != 3 {
		t.Errorf("size after departure = %d", d.Size())
	}
	c2, _ := d.NewClient()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		v, err := c2.Lookup(k)
		if err != nil || string(v) != fmt.Sprintf("v%05d", i) {
			t.Fatalf("%s after departure = %q %v", k, v, err)
		}
	}
}

func TestBroadcastReachesAllInstances(t *testing.T) {
	d, _, c := startDeployment(t, testCfg(), 16)
	if err := c.Broadcast("config/version", []byte("42")); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	deadline := time.Now().Add(2 * time.Second)
	for _, in := range d.Instances() {
		for {
			if v, ok := in.BroadcastValue("config/version"); ok {
				if string(v) != "42" {
					t.Errorf("instance %s got %q", in.ID(), v)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("instance %s never received broadcast", in.ID())
			}
			time.Sleep(time.Millisecond)
			d.Drain()
		}
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NumPartitions: 16, Replicas: 0, DataDir: dir, RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 2)
	const n = 100
	for i := 0; i < n; i++ {
		if err := c.Insert(fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf("v%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	table := d.Instance(0).Table()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same table, same data dir, fresh registry. The paper:
	// "the entire state of ZHT could be loaded from local persistent
	// storage".
	reg := transport.NewRegistry()
	caller := reg.NewClient()
	var instances []*Instance
	for i, m := range table.Instances {
		inst, err := NewInstance(cfg, m, table, caller)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		if _, err := reg.Listen(table.Instances[i].Addr, inst.Handle); err != nil {
			t.Fatal(err)
		}
		instances = append(instances, inst)
	}
	c2, err := NewClient(cfg, table, caller)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v, err := c2.Lookup(k)
		if err != nil || string(v) != fmt.Sprintf("v%04d", i) {
			t.Fatalf("%s after restart = %q %v", k, v, err)
		}
	}
}

func TestClientFromSeed(t *testing.T) {
	d, reg, _ := startDeployment(t, testCfg(), 3)
	c, err := NewClientFromSeed(testCfg(), d.Instance(2).Addr(), reg.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Lookup("k"); err != nil || string(v) != "v" {
		t.Fatalf("lookup via seeded client: %q %v", v, err)
	}
	if _, err := NewClientFromSeed(testCfg(), "no-such-endpoint", reg.NewClient()); err == nil {
		t.Error("seeding from dead endpoint succeeded")
	}
}

func TestLocalClientSharesTable(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 0, RetryBase: time.Millisecond}
	d, _, _ := startDeployment(t, cfg, 2)
	lc, err := d.NewLocalClient(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := lc.Lookup("k"); err != nil || string(v) != "v" {
		t.Fatalf("local client lookup = %q %v", v, err)
	}
	epochBefore := lc.Table().Epoch
	// A join updates the instance's table; the shared client must see
	// the new epoch with no refresh of its own.
	if _, err := d.Join(Endpoint{Addr: "zht-shared-join", Node: "n-shared"}); err != nil {
		t.Fatal(err)
	}
	if lc.Table().Epoch <= epochBefore {
		t.Error("shared client did not observe the instance's table update")
	}
	// Ops keep working against the post-join layout.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("lc-%03d", i)
		if err := lc.Insert(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := lc.Lookup(k); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHandlerRejectsUnknownOp(t *testing.T) {
	d, _, _ := startDeployment(t, testCfg(), 1)
	resp := d.Instance(0).Handle(&wire.Request{Op: wire.OpNop})
	if resp.Status != wire.StatusError {
		t.Errorf("nop handled: %v", resp.Status)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, _, err := BootstrapInproc(Config{NumPartitions: 0}, 1); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, _, err := BootstrapInproc(Config{NumPartitions: 8, Replicas: -1}, 1); err == nil {
		t.Error("negative replicas accepted")
	}
	if _, _, err := BootstrapInproc(Config{NumPartitions: 8, HashName: "nope"}, 1); err == nil {
		t.Error("unknown hash accepted")
	}
	if _, _, err := BootstrapInproc(Config{NumPartitions: 2}, 8); err == nil {
		t.Error("more instances than partitions accepted")
	}
}

func TestOverTCP(t *testing.T) {
	cfg := Config{NumPartitions: 16, Replicas: 1, RetryBase: time.Millisecond}
	caller := transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true})
	defer caller.Close()
	// Bind ephemeral TCP listeners first to learn the addresses.
	var lns []*transport.TCPServer
	var switches []*HandlerSwitch
	eps := make([]Endpoint, 3)
	for i := range eps {
		hs := &HandlerSwitch{}
		ln, err := transport.ListenTCP("127.0.0.1:0", hs.Handle, transport.EventDriven)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns = append(lns, ln)
		switches = append(switches, hs)
		eps[i] = Endpoint{Addr: ln.Addr(), Node: fmt.Sprintf("tcp-node-%d", i)}
	}
	d, err := Bootstrap(cfg, eps, func(addr string, h transport.Handler) (transport.Listener, error) {
		for i, ep := range eps {
			if ep.Addr == addr {
				switches[i].Set(h)
				return nopListener{addr}, nil
			}
		}
		return nil, fmt.Errorf("no pre-bound listener for %s", addr)
	}, caller)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("tcp-key-%03d", i)
		if err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Lookup(k); err != nil || string(v) != "v" {
			t.Fatalf("%s = %q %v", k, v, err)
		}
	}
	if err := c.Append("tcp-dir", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

type nopListener struct{ addr string }

func (l nopListener) Addr() string { return l.addr }
func (l nopListener) Close() error { return nil }

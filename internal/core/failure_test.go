package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Additional failure-path and protocol-edge tests.

func TestWritesDuringFailoverReachReplicas(t *testing.T) {
	d, reg, c := startDeployment(t, testCfg(), 4)
	victim := d.Instance(0)
	reg.SetDown(victim.Addr(), true)
	// Writes keyed to land anywhere must all succeed and be
	// replicated at the survivors.
	const n = 100
	for i := 0; i < n; i++ {
		if err := c.Insert(fmt.Sprintf("fw-%04d", i), []byte("v")); err != nil {
			t.Fatalf("write %d during failover: %v", i, err)
		}
	}
	d.Drain()
	for i := 0; i < n; i++ {
		v, err := c.Lookup(fmt.Sprintf("fw-%04d", i))
		if err != nil || string(v) != "v" {
			t.Fatalf("read-back %d: %q %v", i, v, err)
		}
	}
}

func TestFalseFailureReportRejected(t *testing.T) {
	d, _, _ := startDeployment(t, testCfg(), 3)
	// Accuse a perfectly healthy instance: the manager must ping it
	// and reject the report.
	accused := d.Instance(1)
	resp := d.Instance(0).Handle(&wire.Request{Op: wire.OpReport, Key: string(accused.ID())})
	if resp.Status != wire.StatusError {
		t.Fatalf("false report accepted: %v", resp.Status)
	}
	tab := d.Instance(0).Table()
	if tab.Status[tab.IndexOf(accused.ID())] != ring.Alive {
		t.Error("healthy instance marked failed")
	}
}

func TestReportUnknownInstance(t *testing.T) {
	d, _, _ := startDeployment(t, testCfg(), 2)
	resp := d.Instance(0).Handle(&wire.Request{Op: wire.OpReport, Key: "ghost-instance"})
	if resp.Status != wire.StatusError {
		t.Errorf("report for unknown instance: %v", resp.Status)
	}
}

func TestDuplicateFailureReportIdempotent(t *testing.T) {
	d, reg, c := startDeployment(t, testCfg(), 4)
	victim := d.Instance(3)
	reg.SetDown(victim.Addr(), true)
	if err := c.Insert("trigger", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A second report for the same instance returns OK + the
	// already-updated table instead of failing.
	resp := d.Instance(0).Handle(&wire.Request{Op: wire.OpReport, Key: string(victim.ID())})
	if resp.Status != wire.StatusOK {
		t.Fatalf("duplicate report: %v %s", resp.Status, resp.Err)
	}
	if resp.Table == nil {
		t.Error("duplicate report should carry the current table")
	}
}

func TestEpochDivergenceFullTableFallback(t *testing.T) {
	d, _, _ := startDeployment(t, testCfg(), 3)
	// Hand instance 2 a delta from a far-future epoch: it must
	// reject it, and then accept a full table with a higher epoch.
	in2 := d.Instance(2)
	badDelta := ring.Delta{FromEpoch: 99}
	resp := in2.Handle(&wire.Request{Op: wire.OpDelta, Aux: ring.EncodeDelta(badDelta)})
	if resp.Status != wire.StatusError {
		t.Fatalf("stale delta accepted: %v", resp.Status)
	}
	future := in2.Table()
	future.Epoch = 50
	resp = in2.Handle(&wire.Request{Op: wire.OpDelta, Aux: ring.EncodeTable(future)})
	if resp.Status != wire.StatusOK {
		t.Fatalf("full-table fallback rejected: %v %s", resp.Status, resp.Err)
	}
	if in2.Epoch() != 50 {
		t.Errorf("epoch after fallback = %d, want 50", in2.Epoch())
	}
	// An older full table must NOT regress the epoch.
	old := in2.Table()
	old.Epoch = 7
	in2.Handle(&wire.Request{Op: wire.OpDelta, Aux: ring.EncodeTable(old)})
	if in2.Epoch() != 50 {
		t.Errorf("epoch regressed to %d", in2.Epoch())
	}
}

func TestDeltaGarbagePayload(t *testing.T) {
	d, _, _ := startDeployment(t, testCfg(), 1)
	resp := d.Instance(0).Handle(&wire.Request{Op: wire.OpDelta, Aux: []byte("junk")})
	if resp.Status != wire.StatusError {
		t.Errorf("garbage delta accepted: %v", resp.Status)
	}
}

func TestMigrateBadPartition(t *testing.T) {
	d, _, _ := startDeployment(t, testCfg(), 2)
	for _, p := range []int64{-1, 1 << 40} {
		resp := d.Instance(0).Handle(&wire.Request{Op: wire.OpMigrate, Partition: p, Aux: migrateLockMarker})
		if resp.Status != wire.StatusError {
			t.Errorf("partition %d accepted: %v", p, resp.Status)
		}
	}
	// OpMigrate carries a lock or an abort, never pairs: an empty Aux
	// or any other marker is refused, on a partition the instance owns.
	p := int64(d.Instance(0).Table().PartitionsOf(0)[0])
	for _, aux := range [][]byte{nil, []byte("NOVOEXP1"), []byte("locks")} {
		resp := d.Instance(0).Handle(&wire.Request{Op: wire.OpMigrate, Partition: p, Aux: aux})
		if resp.Status != wire.StatusError {
			t.Errorf("OpMigrate with Aux %q = %v, want an error", aux, resp.Status)
		}
	}
}

func TestMigratePullFromNonOwner(t *testing.T) {
	d, _, _ := startDeployment(t, Config{NumPartitions: 64, RetryBase: time.Millisecond}, 2)
	// Ask instance 1 for a partition instance 0 owns.
	tab := d.Instance(0).Table()
	p0 := tab.PartitionsOf(0)[0]
	resp := d.Instance(1).Handle(&wire.Request{Op: wire.OpMigrate, Partition: int64(p0), Key: "thief", Aux: migrateLockMarker})
	if resp.Status != wire.StatusWrongOwner {
		t.Errorf("lock on a non-owner: %v", resp.Status)
	}
	if resp.Table == nil {
		t.Error("WrongOwner response should carry the table")
	}
}

func TestMigrateAbortRollsBack(t *testing.T) {
	cfg := Config{NumPartitions: 16, RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 2)
	in0 := d.Instance(0)
	tab := in0.Table()
	p := tab.PartitionsOf(0)[0]
	// Lock the partition for a move, then abort it: the owner must
	// resume serving the partition itself.
	resp := in0.Handle(&wire.Request{Op: wire.OpMigrate, Partition: int64(p), Key: "joiner-addr", Aux: migrateLockMarker})
	if resp.Status != wire.StatusOK {
		t.Fatalf("lock failed: %v %s", resp.Status, resp.Err)
	}
	abort := in0.Handle(&wire.Request{Op: wire.OpMigrate, Partition: int64(p), Aux: migrateAbortMarker})
	if abort.Status != wire.StatusOK {
		t.Fatalf("abort failed: %v", abort.Status)
	}
	// Ops for that partition must work again (rolled back, still owner).
	// Find a key landing in partition p.
	key := keyForPartition(t, cfg, tab, p)
	if err := c.Insert(key, []byte("post-abort")); err != nil {
		t.Fatalf("insert after abort: %v", err)
	}
	if v, err := c.Lookup(key); err != nil || string(v) != "post-abort" {
		t.Fatalf("lookup after abort: %q %v", v, err)
	}
}

// TestMigrationGateKeepsNewerRecord: a gate that finds a completed
// migration drops its record, but a migration of the same partition
// that began after the gate read the verdict keeps its own record, so
// ops still queue behind it instead of being served during its export.
func TestMigrationGateKeepsNewerRecord(t *testing.T) {
	d, _, _ := startDeployment(t, Config{NumPartitions: 16, RetryBase: time.Millisecond}, 2)
	in := d.Instance(0)
	p := in.Table().PartitionsOf(0)[0]
	if !in.beginMigration(p) {
		t.Fatal("first migration did not begin")
	}
	in.completeMigration(p, "joiner-addr", true)
	testGateVerdict = func(gin *Instance, gp int) {
		if gin == in && gp == p && !in.beginMigration(p) {
			t.Error("second migration did not begin")
		}
	}
	resp := in.migrationGate(p, &wire.Request{})
	testGateVerdict = nil
	if resp != nil {
		t.Fatalf("gate over a completed migration answered %s (%s), want nil", resp.Status, resp.Err)
	}
	if !in.anyMigrating([]batchGroup{{p: p, live: true}}) {
		t.Fatal("partition lost the record of the migration that began after the gate's verdict")
	}
	// An op on p queues behind the new migration until it resolves.
	req := &wire.Request{}
	var detached atomic.Bool
	req.SetDetach(func() { detached.Store(true) })
	queued := make(chan *wire.Response, 1)
	go func() { queued <- in.migrationGate(p, req) }()
	for deadline := time.Now().Add(5 * time.Second); !detached.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("op on a migrating partition never queued")
		}
		time.Sleep(time.Millisecond)
	}
	in.completeMigration(p, "", false)
	if resp := <-queued; resp != nil {
		t.Fatalf("queued op after rollback: %s (%s), want served", resp.Status, resp.Err)
	}
}

func TestDoublePullRejected(t *testing.T) {
	d, _, _ := startDeployment(t, Config{NumPartitions: 16, RetryBase: time.Millisecond}, 2)
	in0 := d.Instance(0)
	p := in0.Table().PartitionsOf(0)[0]
	if r := in0.Handle(&wire.Request{Op: wire.OpMigrate, Partition: int64(p), Key: "a", Aux: migrateLockMarker}); r.Status != wire.StatusOK {
		t.Fatalf("first lock: %v", r.Status)
	}
	if r := in0.Handle(&wire.Request{Op: wire.OpMigrate, Partition: int64(p), Key: "b", Aux: migrateLockMarker}); r.Status != wire.StatusError {
		t.Fatalf("concurrent second lock accepted: %v", r.Status)
	}
	// Clean up the lock.
	in0.Handle(&wire.Request{Op: wire.OpMigrate, Partition: int64(p), Aux: migrateAbortMarker})
}

// keyForPartition brute-forces a key hashing into partition p.
func keyForPartition(t *testing.T, cfg Config, tab *ring.Table, p int) string {
	t.Helper()
	hashf := cfg.hash()
	for i := 0; i < 1_000_000; i++ {
		k := fmt.Sprintf("probe-%07d", i)
		if tab.Partition(hashf(k)) == p {
			return k
		}
	}
	t.Fatal("no key found for partition")
	return ""
}

func TestHandlerSwitchBeforeBind(t *testing.T) {
	var hs HandlerSwitch
	resp := hs.Handle(&wire.Request{Op: wire.OpPing})
	// Bootstrapping is transient, so the unbound switch must answer
	// with a retriable Busy (plus a retry hint), not a terminal error.
	if resp.Status != wire.StatusBusy {
		t.Errorf("unbound switch served a request: %v", resp.Status)
	}
	if resp.RetryAfter == 0 {
		t.Error("bootstrapping Busy response carries no RetryAfter hint")
	}
	hs.Set(func(req *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK}
	})
	if resp := hs.Handle(&wire.Request{Op: wire.OpPing}); resp.Status != wire.StatusOK {
		t.Errorf("bound switch failed: %v", resp.Status)
	}
}

func TestBroadcastSurvivesFailedInterior(t *testing.T) {
	d, reg, c := startDeployment(t, testCfg(), 8)
	// Fail one instance; mark it in the table so the tree skips it.
	victim := d.Instance(3)
	reg.SetDown(victim.Addr(), true)
	if err := c.Insert("detect", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Broadcast("news", []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	got := 0
	for time.Now().Before(deadline) {
		d.Drain()
		got = 0
		for _, in := range d.Instances() {
			if in == victim {
				continue
			}
			if _, ok := in.BroadcastValue("news"); ok {
				got++
			}
		}
		if got == 7 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got != 7 {
		t.Errorf("broadcast reached %d/7 alive instances", got)
	}
}

// TestBroadcastRefusedIsNotDelivered: a broadcast the instance refuses
// — an origin outside the ring — is not delivered locally either.
func TestBroadcastRefusedIsNotDelivered(t *testing.T) {
	d, _, _ := startDeployment(t, testCfg(), 2)
	in := d.Instance(0)
	for _, origin := range []int64{-1, 2} {
		resp := in.Handle(&wire.Request{Op: wire.OpBroadcast, Key: "bad", Value: []byte("x"), Partition: origin})
		if resp.Status != wire.StatusError {
			t.Errorf("broadcast from origin %d = %s, want an error", origin, resp.Status)
		}
	}
	d.Drain()
	if v, ok := in.BroadcastValue("bad"); ok {
		t.Fatalf("a refused broadcast was delivered: %q", v)
	}
}

func TestUDPDeploymentEndToEnd(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}
	caller := transport.NewUDPClient(transport.UDPClientOptions{Timeout: 2 * time.Second})
	defer caller.Close()
	var lns []transport.Listener
	var switches []*HandlerSwitch
	eps := make([]Endpoint, 3)
	for i := range eps {
		hs := &HandlerSwitch{}
		ln, err := transport.ListenUDP("127.0.0.1:0", hs.Handle)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns = append(lns, ln)
		switches = append(switches, hs)
		eps[i] = Endpoint{Addr: ln.Addr(), Node: fmt.Sprintf("udp-n%d", i)}
	}
	d, err := Bootstrap(cfg, eps, func(addr string, h transport.Handler) (transport.Listener, error) {
		for i, ep := range eps {
			if ep.Addr == addr {
				switches[i].Set(h)
				return nopListener{addr}, nil
			}
		}
		return nil, errors.New("unbound")
	}, caller)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := fmt.Sprintf("udp-%d-%02d", w, i)
				if err := c.Insert(k, []byte("v")); err != nil {
					t.Errorf("%s: %v", k, err)
					return
				}
				if v, err := c.Lookup(k); err != nil || string(v) != "v" {
					t.Errorf("%s = %q %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestDepartureRestoresReplicationLevel(t *testing.T) {
	// A planned departure removes every replica copy the departing
	// node held; the surviving owners must rebuild so each key is
	// again stored 1+Replicas times.
	cfg := Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 4)
	const n = 200
	for i := 0; i < n; i++ {
		if err := c.Insert(fmt.Sprintf("dep-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	d.Drain()
	if err := d.Depart(2); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	total := 0
	for _, in := range d.Instances() {
		total += in.LocalKeys()
	}
	if total < 2*n {
		t.Errorf("copies after departure = %d, want >= %d (replication level restored)", total, 2*n)
	}
}

func TestJoinSeedUnreachable(t *testing.T) {
	reg := transport.NewRegistry()
	_, err := Join(testCfg(), ring.Instance{ID: "x", Addr: "x", Node: "x"},
		"no-such-seed", reg.NewClient(), func(*Instance) {})
	if err == nil {
		t.Error("join with dead seed succeeded")
	}
}

func TestDepartLastInstanceFails(t *testing.T) {
	d, _, _ := startDeployment(t, Config{NumPartitions: 8, RetryBase: time.Millisecond}, 1)
	if err := d.Depart(0); err == nil {
		t.Error("departing the only instance succeeded")
	}
}

func TestLocalAndPartitionKeyAccounting(t *testing.T) {
	d, _, c := startDeployment(t, Config{NumPartitions: 8, RetryBase: time.Millisecond}, 1)
	for i := 0; i < 50; i++ {
		c.Insert(fmt.Sprintf("acct-%02d", i), []byte("v"))
	}
	in := d.Instance(0)
	if in.LocalKeys() != 50 {
		t.Errorf("LocalKeys = %d", in.LocalKeys())
	}
	sum := 0
	for p := 0; p < 8; p++ {
		sum += in.PartitionKeys(p)
	}
	if sum != 50 {
		t.Errorf("per-partition sum = %d", sum)
	}
	if in.PartitionKeys(999) != 0 {
		t.Error("unknown partition reports keys")
	}
}

// TestDrainWhileAsyncWorkSpawns runs Drain in a loop while replica
// rebuilds and broadcast forwards keep being spawned, the way gossip
// and broadcasts spawn them during a real Drain: the count of async
// work must accept an add from zero while a wait is in progress (run
// under -race, a sync.WaitGroup there is reported).
func TestDrainWhileAsyncWorkSpawns(t *testing.T) {
	d, _, _ := startDeployment(t, Config{NumPartitions: 16, Replicas: 1, RetryBase: time.Millisecond}, 3)
	in := d.Instance(0)
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-stop:
				return
			default:
				in.Drain()
			}
		}
	}()
	table := in.Table()
	for i := 0; i < 300; i++ {
		in.rebuildReplicas(table, i%table.NumPartitions)
		in.handleBroadcast(&wire.Request{Op: wire.OpBroadcast, Key: "b", Value: []byte("x"), Partition: 0})
	}
	close(stop)
	<-drained
	in.Drain()
	if v, ok := d.Instance(2).BroadcastValue("b"); !ok || string(v) != "x" {
		t.Errorf("broadcast never reached instance 2: %q %v", v, ok)
	}
}

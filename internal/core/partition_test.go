package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"zht/internal/novoht"
	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// beginMigration is the migration tests' form of
// partition.beginMigration: it reports whether the migration began.
func (in *Instance) beginMigration(p int) bool { return in.part(p).beginMigration() != nil }

// TestPartitionConcurrentFirstUse races many goroutines on one fresh
// partition: every store caller gets the same store, a migration is
// begun exactly once until it completes, and installs racing the
// store's tombstones never land a pair stamped at or below a remove
// buried before the install began.
func TestPartitionConcurrentFirstUse(t *testing.T) {
	d, _, _ := startDeployment(t, Config{NumPartitions: 16, RetryBase: time.Millisecond}, 1)
	in := d.Instance(0)
	const p, workers, n = 2, 16, 256
	pt := in.part(p)
	if in.storeIfPresent(p) != nil {
		t.Fatal("partition already has a store")
	}
	race := func(f func(w int)) {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				f(w)
			}()
		}
		close(start)
		wg.Wait()
	}

	// Keys of p: each removed key is buried at its stamp and only then
	// offered to install; each kept key is installed once.
	var removed, kept []string
	for i := 0; len(kept) < n; i++ {
		if k := fmt.Sprintf("pt-%d", i); in.partitionOf(k) != p {
			continue
		} else if len(removed) < n {
			removed = append(removed, k)
		} else {
			kept = append(kept, k)
		}
	}
	stamps := make([]uint64, n)
	for i := range stamps {
		stamps[i] = in.clock.nextStamp()
	}
	buried := make([]atomic.Bool, n)
	stores := make([]*novoht.Store, workers)
	var wins atomic.Int32
	race(func(w int) {
		s, err := in.store(p)
		if err != nil {
			t.Error(err)
			return
		}
		stores[w] = s
		if pt.beginMigration() != nil {
			wins.Add(1)
		}
		for i := w; i < n; i += workers {
			if _, err := s.BuryLWW(removed[i], stamps[i]); err != nil {
				t.Error(err)
			}
			buried[i].Store(true)
			// Another worker's key, at its remove's stamp or just below.
			if j := (i*7 + 3) % n; buried[j].Load() {
				if ok, err := in.install(pt, removed[j], []byte("stale"), stamps[j]-uint64(i%2)); ok || err != nil {
					t.Errorf("install of %s at or below its buried remove: applied %v, err %v", removed[j], ok, err)
				}
			}
			if ok, err := in.install(pt, kept[i], []byte("v"), in.clock.nextStamp()); !ok || err != nil {
				t.Errorf("install of %s: applied %v, err %v", kept[i], ok, err)
			}
		}
	})
	s := in.storeIfPresent(p)
	for w, ws := range stores {
		if ws == nil || ws != s {
			t.Fatalf("worker %d got store %p, partition holds %p", w, ws, s)
		}
	}
	if got := wins.Load(); got != 1 {
		t.Fatalf("%d of %d racing beginMigration calls won, want 1", got, workers)
	}
	for i := range removed {
		if _, found, _ := s.Get(removed[i]); found {
			t.Errorf("removed key %s was installed", removed[i])
		}
		if _, found, _ := s.Get(kept[i]); !found {
			t.Errorf("kept key %s missing", kept[i])
		}
	}

	// Once the migration completes, the next one is again won once.
	for round := 0; round < 3; round++ {
		in.completeMigration(p)
		wins.Store(0)
		race(func(int) {
			if pt.beginMigration() != nil {
				wins.Add(1)
			}
		})
		if got := wins.Load(); got != 1 {
			t.Fatalf("round %d: %d of %d racing beginMigration calls won, want 1", round, got, workers)
		}
	}
	in.completeMigration(p)
}

// TestMoveWaitsOnlyForItsPartition: a migration's drain waits for the
// appliers of its own partition and of no other. An insert on q is
// held in flight by its synchronous replica leg; moving q-64, which a
// fence striped by p mod 64 would share with q, returns while the
// insert is pending, and moving q returns only once the leg is
// released.
func TestMoveWaitsOnlyForItsPartition(t *testing.T) {
	cfg := Config{NumPartitions: 256, Replicas: 1, RetryBase: time.Millisecond, AntiEntropy: -1}
	d, reg, _ := startDeployment(t, cfg, 2)
	in, peer := d.Instance(0), d.Instance(1)
	tab := in.Table()
	q := -1
	for _, p := range tab.PartitionsOf(0) {
		if p >= 64 && tab.OwnerOf(p-64).ID == in.ID() {
			q = p
			break
		}
	}
	if q < 0 {
		t.Fatal("instance 0 owns no partition q with q-64 also its own")
	}

	// The first leg to the replica blocks until release is closed: by
	// the test once the first move returned, or by the fallback, which
	// only bounds how long a failing run takes.
	legHeld, release := make(chan struct{}), make(chan struct{})
	var released atomic.Bool
	var once, held sync.Once
	releaseLeg := func() {
		once.Do(func() {
			released.Store(true)
			close(release)
		})
	}
	defer releaseLeg()
	fallback := time.AfterFunc(10*time.Second, releaseLeg)
	defer fallback.Stop()
	reg.SetLatency(func(dst string) time.Duration {
		if dst == peer.Addr() {
			held.Do(func() { close(legHeld) })
			<-release
		}
		return 0
	})
	defer reg.SetLatency(nil)

	acked := make(chan *wire.Response, 1)
	key := keyForPartition(t, cfg, tab, q)
	go func() { acked <- in.Handle(&wire.Request{Op: wire.OpInsert, Key: key, Value: []byte("v")}) }()
	<-legHeld

	// Move q first: its drain must wait for the insert.
	movedQ := make(chan bool, 1) // whether the leg was released when the move returned
	go func() {
		if in.lockForMove(q) == nil {
			t.Errorf("move of %d did not begin", q)
		}
		movedQ <- released.Load()
	}()
	for in.part(q).mig.Load() == nil {
		time.Sleep(100 * time.Microsecond)
	}
	// Moving q-64 waits for nothing in flight.
	if ps := in.lockForMove(q - 64); ps == nil {
		t.Fatalf("move of %d did not begin", q-64)
	} else if released.Load() {
		t.Errorf("move of %d returned only after the insert on %d was released", q-64, q)
	}
	releaseLeg()
	if resp := <-acked; resp.Status != wire.StatusOK {
		t.Errorf("held insert: %s (%s)", resp.Status, resp.Err)
	}
	if !<-movedQ {
		t.Errorf("move of %d returned while its insert was in flight", q)
	}
	in.completeMigration(q - 64)
	in.completeMigration(q)
}

// TestGateWaitHoldsNoFence: an envelope queued at one partition's
// migration gate holds no partition's in-flight count, so a move of
// another partition it touches is not stalled behind it (a join moves
// its partitions one at a time before it commits), and once both moves
// roll back every sub-op is served. A move stalled behind the envelope
// fails the test when the fallback fires, not at the test binary's
// timeout.
func TestGateWaitHoldsNoFence(t *testing.T) {
	cfg := Config{NumPartitions: 16, RetryBase: time.Millisecond, AntiEntropy: -1}
	d, _, _ := startDeployment(t, cfg, 2)
	in := d.Instance(0)
	tab := in.Table()
	owned := tab.PartitionsOf(0)
	a, b := owned[0], owned[1]
	if in.lockForMove(b) == nil {
		t.Fatalf("move of %d did not begin", b)
	}

	// The rollback of b normally follows the move of a; the fallback
	// only bounds how long a failing run takes.
	var rolledBack atomic.Bool
	var once sync.Once
	rollbackB := func() {
		once.Do(func() {
			rolledBack.Store(true)
			in.completeMigration(b)
		})
	}
	defer rollbackB()
	fallback := time.AfterFunc(10*time.Second, rollbackB)
	defer fallback.Stop()

	subs := []*wire.Request{
		{Op: wire.OpInsert, Key: keyForPartition(t, cfg, tab, a), Value: []byte("a")},
		{Op: wire.OpInsert, Key: keyForPartition(t, cfg, tab, b), Value: []byte("b")},
	}
	env := wire.NewBatchRequest(subs)
	detached := make(chan struct{})
	var detachOnce sync.Once
	env.SetDetach(func() { detachOnce.Do(func() { close(detached) }) })
	served := make(chan *wire.Response, 1)
	go func() { served <- in.Handle(env) }()
	<-detached

	movedA := make(chan *partState, 1)
	go func() { movedA <- in.lockForMove(a) }()
	select {
	case ps := <-movedA:
		if ps == nil {
			t.Fatalf("move of %d did not begin", a)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("move of %d still draining after 10 s: the envelope queued at %d's gate holds a count", a, b)
	}
	if rolledBack.Load() {
		t.Errorf("move of %d waited for an envelope queued at %d's gate", a, b)
	}
	select {
	case <-served:
		t.Fatal("envelope was answered while both its partitions were moving")
	default:
	}
	in.completeMigration(a)
	rollbackB()
	rs, err := wire.UnpackBatchResponses(<-served, len(subs))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Status != wire.StatusOK {
			t.Errorf("sub-op %d (%s): %s (%s)", i, subs[i].Key, r.Status, r.Err)
		}
	}
}

// TestMoveAfterGateRequeues: a move that begins after an op entered
// its partition's in-flight count but before it read the migration
// record waits for the op in its drain, so the op must see the record,
// exit its count and queue behind the move rather than apply a write
// while the move is open.
func TestMoveAfterGateRequeues(t *testing.T) {
	cfg := Config{NumPartitions: 16, RetryBase: time.Millisecond, AntiEntropy: -1}
	d, _, _ := startDeployment(t, cfg, 2)
	in := d.Instance(0)
	tab := in.Table()
	p := tab.PartitionsOf(0)[0]
	moved := make(chan *partState, 1)
	var once sync.Once
	testGatePass = func(gin *Instance, gp int) {
		if gin == in && gp == p {
			once.Do(func() {
				go func() { moved <- in.lockForMove(p) }()
				for in.part(p).mig.Load() == nil {
					time.Sleep(100 * time.Microsecond)
				}
			})
		}
	}
	t.Cleanup(func() { testGatePass = nil })

	req := &wire.Request{Op: wire.OpInsert, Key: keyForPartition(t, cfg, tab, p), Value: []byte("v")}
	detached := make(chan struct{})
	var detachOnce sync.Once
	req.SetDetach(func() { detachOnce.Do(func() { close(detached) }) })
	served := make(chan *wire.Response, 1)
	go func() { served <- in.Handle(req) }()
	select {
	case <-detached:
	case resp := <-served:
		t.Fatalf("insert answered %s while the move of %d was open", resp.Status, p)
	}
	if ps := <-moved; ps == nil {
		t.Fatalf("move of %d did not begin", p)
	}
	in.completeMigration(p)
	if resp := <-served; resp.Status != wire.StatusOK {
		t.Fatalf("insert after rollback: %s (%s)", resp.Status, resp.Err)
	}
}

// TestQueuedOpAtCommitAnsweredWrongOwner: an op queued at the gate of
// a move that commits is answered WrongOwner with the committed table,
// and a client whose op queued there lands it on the new owner in its
// next round.
func TestQueuedOpAtCommitAnsweredWrongOwner(t *testing.T) {
	cfg := Config{NumPartitions: 16, RetryBase: time.Millisecond, AntiEntropy: -1}
	// Every server marks the client's insert: the gate detaches a
	// request before it waits, which closes clientQueued.
	reg := transport.NewRegistry()
	clientQueued := make(chan struct{})
	var queuedOnce sync.Once
	listen := func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, func(req *wire.Request) *wire.Response {
			if string(req.Value) == "routed" {
				req.SetDetach(func() { queuedOnce.Do(func() { close(clientQueued) }) })
			}
			return h(req)
		})
	}
	d, err := Bootstrap(cfg, InprocEndpoints(2), listen, reg.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	in, to := d.Instance(0), d.Instance(1)
	tab := in.Table()
	p := tab.PartitionsOf(0)[0]
	if in.lockForMove(p) == nil {
		t.Fatalf("move of %d did not begin", p)
	}

	req := &wire.Request{Op: wire.OpInsert, Key: keyForPartition(t, cfg, tab, p), Value: []byte("direct")}
	detached := make(chan struct{})
	var detachOnce sync.Once
	req.SetDetach(func() { detachOnce.Do(func() { close(detached) }) })
	served := make(chan *wire.Response, 1)
	go func() { served <- in.Handle(req) }()
	select {
	case <-detached:
	case resp := <-served:
		t.Fatalf("insert answered %s while the move of %d was open", resp.Status, p)
	}
	key := keyForPartition(t, cfg, tab, p) + "-client"
	for in.partitionOf(key) != p {
		key += "x"
	}
	inserted := make(chan error, 1)
	go func() { inserted <- c.Insert(key, []byte("routed")) }()
	select {
	case <-clientQueued:
	case err := <-inserted:
		t.Fatalf("client insert returned %v while the move of %d was open", err, p)
	}

	// Commit as a join does: the new owner holds the new table before
	// the giver applies it and releases its queue.
	d0 := ring.Delta{FromEpoch: tab.Epoch, Reassign: map[int]ring.InstanceID{p: to.ID()}}
	frame := ring.EncodeDelta(d0)
	if _, err := to.applyDelta(d0, frame); err != nil {
		t.Fatal(err)
	}
	nt, err := in.applyDelta(d0, frame)
	if err != nil {
		t.Fatal(err)
	}
	resp := <-served
	if resp.Status != wire.StatusWrongOwner {
		t.Fatalf("queued insert after commit: %s (%s), want %s", resp.Status, resp.Err, wire.StatusWrongOwner)
	}
	got, err := ring.DecodeTable(resp.Table)
	if err != nil {
		t.Fatalf("WrongOwner table: %v", err)
	}
	if got.Epoch != nt.Epoch || got.OwnerOf(p).ID != to.ID() {
		t.Fatalf("WrongOwner carried epoch %d with %d owned by %s, want the committed epoch %d with %s",
			got.Epoch, p, got.OwnerOf(p).ID, nt.Epoch, to.ID())
	}

	if err := <-inserted; err != nil {
		t.Fatalf("client insert across the commit: %v", err)
	}
	if e := c.Table().Epoch; e != nt.Epoch {
		t.Errorf("client table at epoch %d, want the committed %d", e, nt.Epoch)
	}
	if v, found, _ := to.storeIfPresent(p).Get(key); !found || string(v) != "routed" {
		t.Errorf("new owner holds %q (found %v), want the client's insert", v, found)
	}
	if s := in.storeIfPresent(p); s != nil {
		if _, found, _ := s.Get(key); found {
			t.Error("old owner applied the client's insert")
		}
	}
}

// TestPartitionFillsOneCacheLine pins the partition's size: one 64-byte
// line each, so no two partitions' in-flight counts, which every op
// writes twice, share a line.
func TestPartitionFillsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(partition{}); n != 64 {
		t.Fatalf("partition is %d bytes, want 64", n)
	}
}

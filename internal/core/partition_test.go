package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/novoht"
	"zht/internal/wire"
)

// beginMigration is the migration tests' form of
// partition.beginMigration: it reports whether the migration began.
func (in *Instance) beginMigration(p int) bool { return in.part(p).beginMigration() != nil }

// TestPartitionConcurrentFirstUse races many goroutines on one fresh
// partition's one lock: every store caller gets the same store, a
// migration is begun exactly once until it completes, and installs
// racing note and covers never land a pair stamped at or below a
// remove noted before the install began.
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

	// Keys of p: each removed key is noted at its stamp and only then
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
		stamps[i] = in.clock.Next()
	}
	noted := make([]atomic.Bool, n)
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
			pt.note(removed[i], stamps[i])
			noted[i].Store(true)
			// Another worker's key, at its remove's stamp or just below.
			if j := (i*7 + 3) % n; noted[j].Load() {
				if ok, err := in.install(pt, removed[j], []byte("stale"), stamps[j]-uint64(i%2)); ok || err != nil {
					t.Errorf("install of %s at or below its noted remove: applied %v, err %v", removed[j], ok, err)
				}
			}
			if ok, err := in.install(pt, kept[i], []byte("v"), in.clock.Next()); !ok || err != nil {
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
		in.completeMigration(p, "", false)
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
	in.completeMigration(p, "", false)
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
	for !in.anyMigrating([]batchGroup{{p: q, live: true}}) {
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
	in.completeMigration(q-64, "", false)
	in.completeMigration(q, "", false)
}

// TestGateWaitHoldsNoFence: an envelope queued at one partition's
// migration gate holds no partition's in-flight count, so a move of
// another partition it touches is not stalled behind it (a join moves
// its partitions one at a time before it commits), and once both moves
// roll back every sub-op is served.
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
			in.completeMigration(b, "", false)
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

	if in.lockForMove(a) == nil {
		t.Fatalf("move of %d did not begin", a)
	}
	if rolledBack.Load() {
		t.Errorf("move of %d waited for an envelope queued at %d's gate", a, b)
	}
	select {
	case <-served:
		t.Fatal("envelope was answered while both its partitions were moving")
	default:
	}
	in.completeMigration(a, "", false)
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

// TestMoveAfterGateRequeues: a move that begins after an op passed its
// gate but before the op entered the partition's in-flight count finds
// nothing to drain, so the op must see the move on its re-check and
// queue behind it rather than apply a write the move's final sync has
// already missed.
func TestMoveAfterGateRequeues(t *testing.T) {
	cfg := Config{NumPartitions: 16, RetryBase: time.Millisecond, AntiEntropy: -1}
	d, _, _ := startDeployment(t, cfg, 2)
	in := d.Instance(0)
	tab := in.Table()
	p := tab.PartitionsOf(0)[0]
	var once sync.Once
	testGatePass = func(gin *Instance, gp int) {
		if gin == in && gp == p {
			once.Do(func() {
				if in.lockForMove(p) == nil {
					t.Errorf("move of %d did not begin", p)
				}
			})
		}
	}
	t.Cleanup(func() { testGatePass = nil })

	req := &wire.Request{Op: wire.OpInsert, Key: keyForPartition(t, cfg, tab, p), Value: []byte("v")}
	detached := make(chan struct{})
	req.SetDetach(func() { close(detached) })
	served := make(chan *wire.Response, 1)
	go func() { served <- in.Handle(req) }()
	select {
	case <-detached:
	case resp := <-served:
		t.Fatalf("insert answered %s while the move of %d was open, after its drain returned", resp.Status, p)
	}
	in.completeMigration(p, "", false)
	if resp := <-served; resp.Status != wire.StatusOK {
		t.Fatalf("insert after rollback: %s (%s)", resp.Status, resp.Err)
	}
}

package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"zht/internal/metrics"
	"zht/internal/novoht"
	"zht/internal/storage"
	"zht/internal/wire"
)

func openMem(t *testing.T) storage.KV {
	t.Helper()
	s, err := novoht.Open(novoht.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestDigestDetectsDifference(t *testing.T) {
	a, b := openMem(t), openMem(t)
	a.Put("k", []byte("v1"))
	b.Put("k", []byte("v2"))
	diff := DiffLeaves(a.DigestLeaves(), b.DigestLeaves())
	if len(diff) != 1 || diff[0] != storage.LeafOf("k") {
		t.Fatalf("diff = %v, want exactly leaf %d", diff, storage.LeafOf("k"))
	}
	b.Put("k", []byte("v1"))
	if d := DiffLeaves(a.DigestLeaves(), b.DigestLeaves()); len(d) != 0 {
		t.Fatalf("equal stores diff = %v", d)
	}
	b.PutV("k", []byte("v1"), 7)
	if d := DiffLeaves(a.DigestLeaves(), b.DigestLeaves()); len(d) != 1 {
		t.Fatalf("equal bytes under different versions diff = %v, want one leaf", d)
	}
}

// TestDigestFixedVectors pins the digest contract replicas compare
// across processes and releases: the leaf and pair hashes are fixed
// values, and the leaves a NoVoHT store maintains — including through
// an append, which continues the hash over the delta — are exactly
// those hashes. A change to either side fails here before it can make
// replicas of different builds diff as divergent forever.
func TestDigestFixedVectors(t *testing.T) {
	vectors := []struct {
		key, val string
		ver      uint64
		leaf     int
		hash     uint64
	}{
		{"", "", 0, 61, 0x813f0174a2367c13},
		{"k", "v", 0, 34, 0xb427d466f3513e04},
		{"key-000001", "hello, world", 0, 9, 0x664aa707510c102a},
		{"ab", "c", 0, 39, 0x238402e0c3104247},
		{"a", "bc", 0, 0, 0xd05db19d777129f7},
		{"key-000001", "hello, world", 1, 9, 0x37df7cc9ed11945d},
		{"tenant/x", "\x00\xff\x10", 0x0123456789abcdef, 3, 0x95fb5720c8d52ef9},
	}
	for _, v := range vectors {
		if got := storage.LeafOf(v.key); got != v.leaf {
			t.Errorf("LeafOf(%q) = %d, want %d", v.key, got, v.leaf)
		}
		if got := storage.PairHashV(v.key, []byte(v.val), v.ver); got != v.hash {
			t.Errorf("PairHashV(%q, %q, %d) = %#x, want %#x", v.key, v.val, v.ver, got, v.hash)
		}
		want := make([]uint64, storage.Leaves)
		want[v.leaf] = v.hash
		s := openMem(t)
		if err := s.PutV(v.key, []byte(v.val), v.ver); err != nil {
			t.Fatal(err)
		}
		if got := s.DigestLeaves(); !reflect.DeepEqual(got, want) {
			t.Errorf("store digest after PutV(%q) = %x, want %x", v.key, got, want)
		}
		// The same pair built by an append chain: an empty put stamps
		// the version, each byte arrives as its own delta (version 0
		// keeps the stamp).
		s = openMem(t)
		if err := s.PutV(v.key, nil, v.ver); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(v.val); i++ {
			if _, err := s.AppendV(nil, v.key, []byte{v.val[i]}, 0); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.DigestLeaves(); !reflect.DeepEqual(got, want) {
			t.Errorf("store digest after appends to %q = %x, want %x", v.key, got, want)
		}
	}
}

func TestCodecRoundTrips(t *testing.T) {
	leaves := make([]uint64, storage.Leaves)
	for i := range leaves {
		leaves[i] = rand.Uint64()
	}
	got, err := DecodeDigest(EncodeDigest(leaves))
	if err != nil || !reflect.DeepEqual(got, leaves) {
		t.Fatalf("digest round trip: %v %v", got, err)
	}
	if _, err := DecodeDigest([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated digest decoded")
	}

	ls := []int{0, 5, 63}
	gotLS, err := DecodeLeafSet(EncodeLeafSet(ls))
	if err != nil || !reflect.DeepEqual(gotLS, ls) {
		t.Fatalf("leaf set round trip: %v %v", gotLS, err)
	}
	if _, err := DecodeLeafSet(EncodeLeafSet([]int{64})); err == nil {
		t.Fatal("out-of-range leaf decoded")
	}

	pairs := []Pair{{Key: "a", Value: []byte("1")}, {Key: "", Value: nil}, {Key: "c", Value: []byte("xyz")}}
	gotP, err := DecodePairs(EncodePairs(pairs))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotP) != len(pairs) {
		t.Fatalf("pair count %d != %d", len(gotP), len(pairs))
	}
	for i := range pairs {
		if gotP[i].Key != pairs[i].Key || string(gotP[i].Value) != string(pairs[i].Value) {
			t.Fatalf("pair %d: %+v != %+v", i, gotP[i], pairs[i])
		}
	}
	// Zero pairs still encode non-empty: OpRepairPull uses "Value
	// present" to mean push.
	if enc := EncodePairs(nil); len(enc) == 0 {
		t.Fatal("empty pair set encoded to zero bytes")
	}
	if _, err := DecodePairs([]byte{0xff, 0xff}); err == nil {
		t.Fatal("garbage pairs decoded")
	}
}

// leg builds a one-leg queue entry carrying key.
func leg(key string) *wire.Request {
	return wire.NewBatchRequest([]*wire.Request{{Op: wire.OpReplicate, Key: key}})
}

// legKey reads the key back out of an entry built by leg.
func legKey(env *wire.Request) string {
	subs, err := wire.DecodeOps(env.Aux)
	if err != nil || len(subs) != 1 {
		panic(fmt.Sprintf("bad queue entry: %v", err))
	}
	defer wire.ReleaseOps(subs)
	return subs[0].Key
}

// flakyPeer is a Send function whose destination can be taken down,
// recording the keys it delivers in order.
type flakyPeer struct {
	mu        sync.Mutex
	down      bool
	delivered []string
}

func (p *flakyPeer) send(addr string, env *wire.Request) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return fmt.Errorf("peer %s down", addr)
	}
	p.delivered = append(p.delivered, legKey(env))
	return nil
}

func (p *flakyPeer) setDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

// await polls until want keys were delivered, then checks their order.
func (p *flakyPeer) await(t *testing.T, want []string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		p.mu.Lock()
		got := append([]string(nil), p.delivered...)
		p.mu.Unlock()
		if len(got) >= len(want) {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("delivered %v, want %v (enqueue order must be preserved)", got, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: delivered %v, want %v", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHandoffReplaysInOrder(t *testing.T) {
	peer := &flakyPeer{down: true}
	reg := metrics.NewRegistry()
	lq := NewLegQueue(LegQueueOptions{
		Cap:      16,
		Base:     time.Millisecond,
		Max:      4 * time.Millisecond,
		Send:     peer.send,
		Queued:   reg.Counter("queued"),
		Replayed: reg.Counter("replayed"),
	})
	defer lq.Close()

	for i := 0; i < 5; i++ {
		lq.HandOff("peer1", leg(fmt.Sprintf("k%d", i)))
	}
	time.Sleep(10 * time.Millisecond) // several failed attempts
	peer.setDown(false)
	peer.await(t, []string{"k0", "k1", "k2", "k3", "k4"})
	if q, r := reg.Counter("queued").Value(), reg.Counter("replayed").Value(); q != 5 || r != 5 {
		t.Fatalf("queued=%d replayed=%d, want 5 and 5", q, r)
	}
}

// TestLegQueueFailedThenFreshInOrder: a failed sync leg and the async
// leg enqueued after it for the same destination share one FIFO, so
// the peer's return delivers them in enqueue order — the async leg
// cannot overtake the handed-off one.
func TestLegQueueFailedThenFreshInOrder(t *testing.T) {
	peer := &flakyPeer{down: true}
	lq := NewLegQueue(LegQueueOptions{Cap: 16, Base: time.Millisecond, Max: 4 * time.Millisecond, Send: peer.send})
	defer lq.Close()

	lq.HandOff("peer1", leg("failed-sync"))
	lq.Enqueue("peer1", leg("async"))
	time.Sleep(10 * time.Millisecond)
	peer.setDown(false)
	peer.await(t, []string{"failed-sync", "async"})
}

func TestHandoffBoundsAndClose(t *testing.T) {
	reg := metrics.NewRegistry()
	queued, dropped := reg.Counter("queued"), reg.Counter("dropped")
	gate := make(chan struct{})
	lq := NewLegQueue(LegQueueOptions{
		Cap:  2,
		Base: time.Millisecond,
		Max:  time.Millisecond,
		Send: func(string, *wire.Request) error {
			<-gate
			return fmt.Errorf("always down")
		},
		Queued:  queued,
		Dropped: dropped,
	})
	// Five fresh legs queue behind a first send that has not failed
	// yet; its failure cuts the queue to Cap, dropping the newest.
	for i := 0; i < 5; i++ {
		lq.Enqueue("p", leg(fmt.Sprintf("k%d", i)))
	}
	close(gate)
	lq.Drain() // every fresh leg was sent once or handed off
	if queued.Value() != 2 || dropped.Value() != 3 {
		t.Fatalf("queued=%d dropped=%d after the first failure with cap 2, want 2 and 3", queued.Value(), dropped.Value())
	}
	// A failing destination refuses what its backlog cannot hold.
	lq.HandOff("p", leg("k5"))
	lq.Enqueue("p", leg("k6"))
	if queued.Value() != 2 || dropped.Value() != 5 {
		t.Fatalf("queued=%d dropped=%d with a full backlog, want 2 and 5", queued.Value(), dropped.Value())
	}
	done := make(chan struct{})
	go func() { lq.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung with a permanently failing destination")
	}
}

// TestLegQueueNegativeCapDropsOnlyFailed: with handoff disabled, a
// failed entry is dropped, and the fresh legs after it still go out.
func TestLegQueueNegativeCapDropsOnlyFailed(t *testing.T) {
	peer := &flakyPeer{down: true}
	reg := metrics.NewRegistry()
	dropped := reg.Counter("dropped")
	lq := NewLegQueue(LegQueueOptions{Cap: -1, Base: time.Millisecond, Send: peer.send, Dropped: dropped})
	defer lq.Close()

	lq.HandOff("p", leg("failed-sync"))
	lq.Enqueue("p", leg("async-to-down-peer"))
	lq.Drain()
	if dropped.Value() != 2 {
		t.Fatalf("dropped=%d, want both entries to a down peer dropped", dropped.Value())
	}
	peer.setDown(false)
	lq.HandOff("p", leg("failed-again"))
	lq.Enqueue("p", leg("fresh"))
	peer.await(t, []string{"fresh"})
}

// TestLegQueueBackpressure: while the destination answers, an enqueue
// waits once maxFresh entries are queued, and resumes as the drainer
// frees a slot.
func TestLegQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	lq := NewLegQueue(LegQueueOptions{Cap: 1, Send: func(string, *wire.Request) error {
		<-gate
		return nil
	}})
	defer lq.Close()
	for i := 0; i < maxFresh; i++ {
		lq.Enqueue("p", leg("k"))
	}
	enqueued := make(chan struct{})
	go func() { lq.Enqueue("p", leg("over")); close(enqueued) }()
	select {
	case <-enqueued:
		t.Fatal("enqueue past the backpressure bound did not wait")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case <-enqueued:
	case <-time.After(2 * time.Second):
		t.Fatal("backpressured enqueue never resumed")
	}
	lq.Drain()
}

// TestLegQueueConcurrent: enqueuers on several goroutines and two
// destinations, one flapping, lose nothing below the cap and keep each
// goroutine's per-destination order; Close racing the last enqueues
// neither panics nor hangs.
func TestLegQueueConcurrent(t *testing.T) {
	const writers, perWriter = 4, 200
	var mu sync.Mutex
	delivered := map[string][]string{}
	var sends int
	lq := NewLegQueue(LegQueueOptions{
		Cap:  writers * perWriter,
		Base: 100 * time.Microsecond,
		Max:  time.Millisecond,
		Send: func(addr string, env *wire.Request) error {
			mu.Lock()
			defer mu.Unlock()
			sends++
			if addr == "flappy" && sends%3 == 0 {
				return fmt.Errorf("%s down", addr)
			}
			delivered[addr] = append(delivered[addr], legKey(env))
			return nil
		},
	})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				addr := []string{"steady", "flappy"}[i%2]
				if i%5 == 0 {
					lq.HandOff(addr, leg(fmt.Sprintf("%d/%04d", w, i)))
				} else {
					lq.Enqueue(addr, leg(fmt.Sprintf("%d/%04d", w, i)))
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(delivered["steady"]) + len(delivered["flappy"])
		mu.Unlock()
		if n == writers*perWriter {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d legs", n, writers*perWriter)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	for addr, keys := range delivered {
		last := map[byte]string{}
		for _, k := range keys {
			if k <= last[k[0]] {
				t.Errorf("%s: %s delivered after %s", addr, k, last[k[0]])
			}
			last[k[0]] = k
		}
	}
	mu.Unlock()

	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			lq.Enqueue("flappy", leg("late"))
		}
		close(done)
	}()
	lq.Close()
	<-done
}

// TestLegQueueEnqueueAfterClose: an enqueue racing or following Close
// releases its entry to the pool and returns, without panicking and
// without starting a drainer.
func TestLegQueueEnqueueAfterClose(t *testing.T) {
	lq := NewLegQueue(LegQueueOptions{Cap: 4, Send: func(string, *wire.Request) error {
		t.Error("send after Close")
		return nil
	}})
	lq.Close()
	reg := metrics.NewRegistry()
	wire.EnablePoolMetrics(reg)
	defer wire.EnablePoolMetrics(nil)
	goroutines := runtime.NumGoroutine()
	lq.Enqueue("p", leg("fresh"))
	lq.HandOff("p", leg("failed"))
	puts := reg.Counter("zht.wire.pool.puts").Value()
	if puts < 2 {
		t.Fatalf("pool puts = %d after two enqueues past Close, want each entry released", puts)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("goroutines %d -> %d: an enqueue past Close started a drainer", goroutines, n)
	}
	lq.Drain()
	lq.Close()
}

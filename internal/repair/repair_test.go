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

func openMem(t *testing.T) *novoht.Store {
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

// digestVector is one pinned pair hash: the pair, its leaf and its
// hash.
type digestVector struct {
	key, val string
	ver      uint64
	leaf     int
	hash     uint64
}

// TestDigestFixedVectors pins the digest contract replicas compare
// across processes and releases: the leaf and pair hashes are fixed
// values. A change to either fails here before it can make replicas of
// different builds diff as divergent forever. The version-1 rows pin
// storage.PairHashV1, the hash a digest marked version 1 is made of;
// TestDigestFixedVectorsV2 pins the hash stores maintain today.
func TestDigestFixedVectors(t *testing.T) {
	vectors := []digestVector{
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
		if got := storage.PairHashV1(v.key, []byte(v.val), v.ver); got != v.hash {
			t.Errorf("PairHashV1(%q, %q, %d) = %#x, want %#x", v.key, v.val, v.ver, got, v.hash)
		}
	}
}

// TestDigestFixedVectorsV2 pins storage.PairHashV2, and that the leaves
// a NoVoHT store maintains are exactly those hashes, both after a put
// over an earlier value and after an append chain, which continues the
// hash over each delta from the word the stream's tail began in. The rows cover an empty
// stream, streams ending on and off a word boundary, a value that
// differs only by a trailing zero byte, and a word that straddles the
// key and the value.
func TestDigestFixedVectorsV2(t *testing.T) {
	if storage.DigestVersion != 2 {
		t.Fatalf("DigestVersion = %d, want 2", storage.DigestVersion)
	}
	vectors := []digestVector{
		{"", "", 0, 61, 0x7640aa5dd8399e9f},
		{"k", "v", 0, 34, 0xe55de94b7d1178b0},
		{"k", "v\x00", 0, 34, 0x54d2d4c316bc02e2},
		{"key-000001", "hello, world", 0, 9, 0x7185cbb2e13b804c},
		{"ab", "c", 0, 39, 0x96d544112370a4b7},
		{"a", "bc", 0, 0, 0xce2385d9ac6c2e1a},
		{"key-000001", "hello, world", 1, 9, 0x9da3d9a2190a830a},
		{"tenant/x", "\x00\xff\x10", 0x0123456789abcdef, 3, 0x111d7591540a33be},
		{"exactly8", "", 5, 59, 0x04514cacde836fb1},
		{"12345678", "abcdefgh12345678", 9, 26, 0x80f48a4ccb04379b},
	}
	for _, v := range vectors {
		if got := storage.LeafOf(v.key); got != v.leaf {
			t.Errorf("LeafOf(%q) = %d, want %d", v.key, got, v.leaf)
		}
		if got := storage.PairHashV2(v.key, []byte(v.val), v.ver); got != v.hash {
			t.Errorf("PairHashV2(%q, %q, %d) = %#x, want %#x", v.key, v.val, v.ver, got, v.hash)
		}
		want := make([]uint64, storage.Leaves)
		want[v.leaf] = v.hash
		// The put overwrites an earlier value of the same length in
		// place, so the old pair's hash must be sealed before its bytes
		// change.
		s := openMem(t)
		earlier := []byte(v.val)
		for i := range earlier {
			earlier[i] ^= 0xff
		}
		if _, err := s.PutV(v.key, earlier, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.PutV(v.key, []byte(v.val), v.ver); err != nil {
			t.Fatal(err)
		}
		if got := s.DigestLeaves(); !reflect.DeepEqual(got, want) {
			t.Errorf("store digest after PutV(%q) = %x, want %x", v.key, got, want)
		}
		// The same pair built by an append chain: an empty put, then each
		// byte as its own delta. The last append stamps the version (the
		// others, at version 0, keep the stamp); an empty value takes
		// it from the put.
		s = openMem(t)
		stamp := func(last bool) uint64 {
			if last {
				return v.ver
			}
			return 0
		}
		if _, err := s.PutV(v.key, nil, stamp(v.val == "")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(v.val); i++ {
			if _, _, err := s.AppendV(nil, v.key, []byte{v.val[i]}, stamp(i == len(v.val)-1)); err != nil {
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
	for _, ver := range []uint64{1, 2, 300} {
		gotVer, got, err := DecodeDigest(EncodeDigest(ver, leaves))
		if err != nil || gotVer != ver || !reflect.DeepEqual(got, leaves) {
			t.Fatalf("digest v%d round trip: v%d %v %v", ver, gotVer, got, err)
		}
	}
	if _, _, err := DecodeDigest([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated digest decoded")
	}
	// A version above 1 leads with a zero byte, which a version-1
	// decoder reads as a leaf count of zero and refuses; under that
	// marker, versions 0 and 1 are malformed.
	if enc := EncodeDigest(2, leaves); enc[0] != 0 {
		t.Fatalf("v2 digest starts %#x, want the zero marker", enc[0])
	}
	for _, ver := range []uint64{0, 1} {
		enc := append([]byte{0, byte(ver), storage.Leaves}, make([]byte, 8*storage.Leaves)...)
		if _, _, err := DecodeDigest(enc); err == nil {
			t.Fatalf("digest marked version %d decoded", ver)
		}
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

// TestLegQueueDropsUndeliverable: an entry whose send fails with
// ErrUndeliverable is dropped at once, without a backoff, and the legs
// behind it still go out in order; once the FIFO empties that way the
// destination is not left failing.
func TestLegQueueDropsUndeliverable(t *testing.T) {
	peer := &flakyPeer{}
	reg := metrics.NewRegistry()
	dropped := reg.Counter("dropped")
	lq := NewLegQueue(LegQueueOptions{
		Cap:  16,
		Base: time.Hour, // a retried entry would stall the test
		Send: func(addr string, env *wire.Request) error {
			if legKey(env) == "too-big" {
				return fmt.Errorf("%w: exceeds the datagram limit", ErrUndeliverable)
			}
			return peer.send(addr, env)
		},
		Dropped: dropped,
	})
	defer lq.Close()

	lq.HandOff("p", leg("too-big"))
	lq.Enqueue("p", leg("after"))
	peer.await(t, []string{"after"})
	if dropped.Value() != 1 {
		t.Fatalf("dropped=%d, want the undeliverable entry dropped", dropped.Value())
	}
	lq.HandOff("p", leg("too-big"))
	deadline := time.Now().Add(2 * time.Second)
	for lq.Failing("p") {
		if time.Now().After(deadline) {
			t.Fatal("destination still failing after its only entry was dropped as undeliverable")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLegQueueFailing: a destination is failing from a failed send, or
// a HandOff, until its next successful send, and the gauge counts the
// failing destinations.
func TestLegQueueFailing(t *testing.T) {
	peer := &flakyPeer{down: true}
	reg := metrics.NewRegistry()
	gauge := reg.Gauge("failing")
	lq := NewLegQueue(LegQueueOptions{Cap: 16, Base: time.Millisecond, Max: 4 * time.Millisecond, Send: peer.send, Failing: gauge})
	defer lq.Close()

	if lq.Failing("p") {
		t.Fatal("an unknown destination is failing")
	}
	lq.Enqueue("p", leg("k0"))
	deadline := time.Now().Add(2 * time.Second)
	for !lq.Failing("p") {
		if time.Now().After(deadline) {
			t.Fatal("a failed send did not make the destination failing")
		}
		time.Sleep(time.Millisecond)
	}
	lq.HandOff("q", leg("q0"))
	if !lq.Failing("q") || gauge.Value() != 2 {
		t.Fatalf("after a HandOff: failing(q)=%v gauge=%d, want true and 2", lq.Failing("q"), gauge.Value())
	}
	peer.setDown(false)
	for lq.Failing("p") || lq.Failing("q") || gauge.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("failing(p)=%v failing(q)=%v gauge=%d after both destinations answered", lq.Failing("p"), lq.Failing("q"), gauge.Value())
		}
		time.Sleep(time.Millisecond)
	}
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

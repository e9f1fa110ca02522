package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"zht/internal/novoht"
	"zht/internal/storage"
	"zht/internal/wire"
)

func openMem(t *testing.T) storage.PartitionKV {
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
		// the version, each byte arrives as its own delta.
		s = openMem(t)
		if err := s.PutV(v.key, nil, v.ver); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(v.val); i++ {
			if err := s.Append(v.key, []byte{v.val[i]}); err != nil {
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

func TestHandoffReplaysInOrder(t *testing.T) {
	var mu sync.Mutex
	var delivered []string
	down := true
	h := NewHandoff(HandoffOptions{
		Cap:  16,
		Base: time.Millisecond,
		Max:  4 * time.Millisecond,
		Send: func(addr string, req *wire.Request) error {
			mu.Lock()
			defer mu.Unlock()
			if down {
				return fmt.Errorf("peer %s down", addr)
			}
			delivered = append(delivered, req.Key)
			return nil
		},
	})
	defer h.Close()

	for i := 0; i < 5; i++ {
		if !h.Enqueue("peer1", &wire.Request{Op: wire.OpReplicate, Key: fmt.Sprintf("k%d", i)}) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	time.Sleep(10 * time.Millisecond) // several failed attempts
	mu.Lock()
	down = false
	mu.Unlock()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if h.Pending() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handoff never drained; pending=%d", h.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"k0", "k1", "k2", "k3", "k4"}
	if !reflect.DeepEqual(delivered, want) {
		t.Fatalf("delivered %v, want %v (order must be preserved)", delivered, want)
	}
}

func TestHandoffBoundsAndClose(t *testing.T) {
	h := NewHandoff(HandoffOptions{
		Cap:  2,
		Base: time.Millisecond,
		Max:  time.Millisecond,
		Send: func(string, *wire.Request) error { return fmt.Errorf("always down") },
	})
	ok := 0
	for i := 0; i < 5; i++ {
		if h.Enqueue("p", &wire.Request{Key: fmt.Sprintf("k%d", i)}) {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("accepted %d legs with cap 2", ok)
	}
	done := make(chan struct{})
	go func() { h.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung with a permanently failing destination")
	}
	if h.Enqueue("p", &wire.Request{}) {
		t.Fatal("enqueue accepted after Close")
	}
	var nilH *Handoff
	if nilH.Enqueue("p", &wire.Request{}) || nilH.Pending() != 0 {
		t.Fatal("nil handoff must reject everything")
	}
	nilH.Close()
}

package novoht

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"zht/internal/storage"
)

// The digest invariant: the leaves a store maintains mutation by
// mutation are bit-identical to leaves rebuilt from scratch over its
// contents (storage.DigestOf). XOR leaves make this hold regardless of
// mutation order; these tests check that every mutation path toggles
// exactly the pairs it replaces, on every open/replay/compaction path.

func checkDigest(t *testing.T, s *Store, when string) {
	t.Helper()
	want, err := storage.DigestOf(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.DigestLeaves(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: maintained digest != rebuilt digest\n got %x\nwant %x", when, got, want)
	}
}

// mutateRandomly applies n random mutations of every kind to keys
// prefix+[0, keys). Stamps grow like one primary's clock: PutV always
// stamps a new newest version, the LWW calls mix newer and stale ones.
// When each writer owns its prefix, replay reproduces the live state.
func mutateRandomly(t *testing.T, s *Store, rng *rand.Rand, prefix string, n, keys int) {
	var clock uint64
	stamp := func() uint64 {
		ver := clock + 1 - uint64(rng.Intn(int(clock)+1)%8)
		clock = max(clock, ver)
		return ver
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%skey-%03d", prefix, rng.Intn(keys))
		val := []byte(fmt.Sprintf("%s-%d", prefix, i))
		var err error
		switch rng.Intn(9) {
		case 0:
			_, err = s.RemoveV(k, 0)
		case 1:
			_, err = s.AppendV(nil, k, []byte(fmt.Sprintf("+%d", i)), 0)
		case 2:
			_, err = s.PutIfAbsentV(k, val, 0)
		case 3:
			var cur []byte
			var ok bool
			cur, ok, err = s.Get(k)
			if err == nil {
				if !ok {
					cur = nil
				}
				_, _, err = s.CasV(k, cur, val, 0)
			}
		case 4:
			// Writers sharing keys keep separate clocks, so another
			// writer's newer stamp refuses this one, like a lost
			// last-writer-wins race.
			clock++
			if err = s.PutV(k, val, clock); errors.Is(err, storage.ErrStale) {
				err = nil
			}
		case 5:
			_, err = s.PutLWW(k, val, stamp())
		case 6:
			_, err = s.RemoveLWW(k, stamp())
		default:
			err = s.Put(k, val)
		}
		if err != nil {
			t.Error(err)
			return
		}
	}
}

func TestDigestIncrementality(t *testing.T) {
	s := openTemp(t, Options{Durability: storage.DurabilityNone})
	mutateRandomly(t, s, rand.New(rand.NewSource(42)), "", 5000, 200)
	checkDigest(t, s, "after sequential mutations")
}

// Eight writers race every mutation kind on one shared set of keys:
// the toggle under the store lock must keep the digest exact even when
// two writers hit the same key.
func TestDigestIncrementalityConcurrent(t *testing.T) {
	s := openTemp(t, Options{Durability: storage.DurabilityNone})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mutateRandomly(t, s, rand.New(rand.NewSource(int64(w))), "", 2000, 100)
		}(w)
	}
	wg.Wait()
	checkDigest(t, s, "after concurrent mutations")
}

// Every mutation kind from four writers on a persistent store: the
// digest must survive reopen (replay) and compaction. The writers
// share leaves but not keys, so the replayed state equals the live
// one.
func TestDigestReopenAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digest.log")
	opts := Options{Path: path, CompactEvery: -1}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mutateRandomly(t, s, rand.New(rand.NewSource(int64(100+w))), fmt.Sprintf("w%d", w), 1500, 150)
		}(w)
	}
	wg.Wait()
	before := s.DigestLeaves()
	checkDigest(t, s, "before reopen")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.DigestLeaves(); !reflect.DeepEqual(got, before) {
		t.Fatalf("digest after replay differs from before close\n got %x\nwant %x", got, before)
	}
	checkDigest(t, s, "after reopen")
	mutateRandomly(t, s, rand.New(rand.NewSource(7)), "post", 500, 150)
	checkDigest(t, s, "after mutating the reopened store")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	checkDigest(t, s, "after compaction")
	mutateRandomly(t, s, rand.New(rand.NewSource(8)), "post-compact", 500, 150)
	checkDigest(t, s, "after mutating the compacted store")
}

// A long append chain hashes each delta once; the chain's digest must
// equal the whole value's, live and after the chain is replayed.
func TestDigestAppendChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.log")
	s, err := Open(Options{Path: path, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutV("dir", []byte("head;"), 9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if _, err := s.AppendV(nil, "dir", []byte(fmt.Sprintf("entry-%05d;", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	checkDigest(t, s, "after 10000 appends")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(Options{Path: path, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkDigest(t, s, "after replaying the append chain")
}

// Replay stops at a torn final record; the digest must describe the
// recovered prefix, not the lost record.
func TestDigestTornTailReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.log")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.PutV(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)), uint64(i+1))
	}
	s.AppendV(nil, "k3", []byte("-tail"), 0)
	s.Put("k5", []byte("rewritten"))
	s.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, _, _ := r.Get("k5"); string(v) != "v5" {
		t.Fatalf("k5 = %q after torn tail, want the pre-tear value", v)
	}
	checkDigest(t, r, "after torn-tail replay")
}

package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"zht/internal/baselines/bdb"
	"zht/internal/baselines/kyoto"
	"zht/internal/novoht"
	"zht/internal/storage"
)

// The storage conformance suite, table-driven over the stores. The
// point-operation tier (Put/Get/Remove) runs against every store,
// including the Figure 6 disk stand-ins, which offer nothing more; the
// full tier (the whole *novoht.Store contract, every mutation stamped,
// the digest included) runs against every configuration a ZHT instance
// can open.

// pointKV is the point-operation subset every store offers.
type pointKV interface {
	Put(key string, val []byte) error
	Get(key string) ([]byte, bool, error)
	Remove(key string) (bool, error)
	Close() error
}

type kyotoStore struct{ *kyoto.DB }

func (k kyotoStore) Put(key string, v []byte) error { return k.Set(key, v) }
func (k kyotoStore) Remove(key string) (bool, error) {
	_, ok, err := k.DB.Get(key)
	if err != nil || !ok {
		return false, err
	}
	return true, k.Delete(key)
}

type bdbStore struct{ *bdb.DB }

func (b bdbStore) Put(key string, v []byte) error { return b.Set([]byte(key), v) }
func (b bdbStore) Get(key string) ([]byte, bool, error) {
	return b.DB.Get([]byte(key))
}
func (b bdbStore) Remove(key string) (bool, error) { return b.Delete([]byte(key)) }

// novohtPoint offers a full store's version-0 remove as the point
// tier's Remove.
type novohtPoint struct{ *novoht.Store }

func (n novohtPoint) Remove(key string) (bool, error) {
	ok, _, err := n.RemoveV(key, 0)
	return ok, err
}

// fullEngines are the NoVoHT configurations a ZHT deployment opens:
// a volatile store, a WAL-backed store that owns its log, and one
// store of a shared log (an instance's partition store), whose
// mutations stage their records for the log owner's Commit.
func fullEngines() map[string]func(t *testing.T) *novoht.Store {
	open := func(o novoht.Options) func(t *testing.T) *novoht.Store {
		return func(t *testing.T) *novoht.Store {
			if o.Path != "" {
				o.Path = filepath.Join(t.TempDir(), "kv.log")
			}
			s, err := novoht.Open(o)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}
	}
	return map[string]func(t *testing.T) *novoht.Store{
		"novoht-volatile": open(novoht.Options{}),
		"novoht-wal":      open(novoht.Options{Path: "wal"}),
		"novoht-shared-log": func(t *testing.T) *novoht.Store {
			l, err := novoht.OpenLog(novoht.Options{Path: filepath.Join(t.TempDir(), "kv.log")}, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			return l.Store(0)
		},
	}
}

func pointEngines() map[string]func(t *testing.T) pointKV {
	out := map[string]func(t *testing.T) pointKV{
		"kyoto": func(t *testing.T) pointKV {
			db, err := kyoto.Open(filepath.Join(t.TempDir(), "kc.db"), 64)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return kyotoStore{db}
		},
		"bdb": func(t *testing.T) pointKV {
			db, err := bdb.Open(filepath.Join(t.TempDir(), "bdb.db"), 4)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return bdbStore{db}
		},
	}
	for name, open := range fullEngines() {
		out[name] = func(t *testing.T) pointKV { return novohtPoint{open(t)} }
	}
	return out
}

// reader is what the value checks need of either tier.
type reader interface {
	Get(key string) ([]byte, bool, error)
}

func mustGet(t *testing.T, kv reader, key string) ([]byte, bool) {
	t.Helper()
	v, ok, err := kv.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	return v, ok
}

func wantValue(t *testing.T, kv reader, key, want string) {
	t.Helper()
	if v, ok := mustGet(t, kv, key); !ok || string(v) != want {
		t.Fatalf("Get(%q) = %q, %v; want %q", key, v, ok, want)
	}
}

func wantAbsent(t *testing.T, kv reader, key string) {
	t.Helper()
	if v, ok := mustGet(t, kv, key); ok {
		t.Fatalf("Get(%q) = %q, want absent", key, v)
	}
}

func TestConformancePointOps(t *testing.T) {
	for name, open := range pointEngines() {
		t.Run(name, func(t *testing.T) {
			kv := open(t)
			wantAbsent(t, kv, "k")
			if err := kv.Put("k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			wantValue(t, kv, "k", "v1")
			if err := kv.Put("k", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			wantValue(t, kv, "k", "v2")

			// An empty value is present, not absent.
			if err := kv.Put("empty", []byte{}); err != nil {
				t.Fatal(err)
			}
			wantValue(t, kv, "empty", "")

			// Neither the caller's input nor a returned value aliases
			// the store.
			in := []byte("orig")
			kv.Put("alias", in)
			in[0] = 'X'
			out, _ := mustGet(t, kv, "alias")
			out[0] = 'Y'
			wantValue(t, kv, "alias", "orig")

			if ok, err := kv.Remove("k"); err != nil || !ok {
				t.Fatalf("Remove(present) = %v, %v", ok, err)
			}
			wantAbsent(t, kv, "k")
			if ok, err := kv.Remove("k"); err != nil || ok {
				t.Fatalf("Remove(absent) = %v, %v", ok, err)
			}
		})
	}
}

func TestConformanceConditionalOps(t *testing.T) {
	for name, open := range fullEngines() {
		t.Run(name, func(t *testing.T) {
			kv := open(t)
			if ok, _, err := kv.PutIfAbsentV("k", []byte("first"), 1, nil); err != nil || !ok {
				t.Fatalf("PutIfAbsentV(absent) = %v, %v", ok, err)
			}
			if ok, _, err := kv.PutIfAbsentV("k", []byte("second"), 2, nil); err != nil || ok {
				t.Fatalf("PutIfAbsentV(present) = %v, %v", ok, err)
			}
			wantValue(t, kv, "k", "first")

			// AppendV hands back the accumulated value only when asked.
			if got, _, err := kv.AppendV([]byte("dst:"), "k", []byte("+a"), 3); err != nil || string(got) != "dst:first+a" {
				t.Fatalf("AppendV(dst) = %q, %v", got, err)
			}
			if got, _, err := kv.AppendV(nil, "new", []byte("created"), 4); err != nil || got != nil {
				t.Fatalf("AppendV(nil) = %q, %v", got, err)
			}
			wantValue(t, kv, "k", "first+a")
			wantValue(t, kv, "new", "created")
			if kv.Len() != 2 {
				t.Fatalf("Len = %d, want 2", kv.Len())
			}
		})
	}
}

// CasV distinguishes a nil expectation ("expect absent") from an empty
// one ("expect present with the empty value"), and a failed swap
// reports the value it saw (an empty value may come back as nil).
func TestConformanceCas(t *testing.T) {
	for name, open := range fullEngines() {
		t.Run(name, func(t *testing.T) {
			kv := open(t)
			var ver uint64
			cas := func(key string, old, new []byte, wantOK bool, wantSeen []byte) {
				t.Helper()
				ver++
				ok, seen, _, err := kv.CasV(key, old, new, ver)
				if err != nil {
					t.Fatal(err)
				}
				if ok != wantOK || !bytes.Equal(seen, wantSeen) {
					t.Fatalf("CasV(%q, %q, %q) = %v, %q; want %v, %q", key, old, new, ok, seen, wantOK, wantSeen)
				}
				if _, got, _, _ := kv.GetAppendV(nil, key); ok && got != ver {
					t.Fatalf("CasV stamped %d, want %d", got, ver)
				}
			}
			cas("k", []byte{}, []byte("x"), false, nil) // empty expects present
			wantAbsent(t, kv, "k")
			cas("k", nil, []byte{}, true, nil) // nil expects absent
			wantValue(t, kv, "k", "")
			cas("k", nil, []byte("x"), false, []byte{}) // present now
			cas("k", []byte{}, []byte("v1"), true, nil)
			cas("k", []byte("other"), []byte("v2"), false, []byte("v1"))
			cas("k", []byte("v1"), []byte("v2"), true, nil)
			wantValue(t, kv, "k", "v2")
		})
	}
}

// Versioned writes resolve last-writer-wins: a stamp must be strictly
// newer than the stored one to apply.
func TestConformanceLWW(t *testing.T) {
	for name, open := range fullEngines() {
		t.Run(name, func(t *testing.T) {
			kv := open(t)
			lww := func(op string, ver uint64, want bool) {
				t.Helper()
				var ok bool
				var err error
				if op == "remove" {
					ok, err = kv.RemoveLWW("k", ver)
				} else {
					ok, err = kv.PutLWW("k", []byte(op), ver)
				}
				if err != nil || ok != want {
					t.Fatalf("%s@%d applied = %v, %v; want %v", op, ver, ok, err, want)
				}
			}
			wantVer := func(val string, ver uint64) {
				t.Helper()
				v, got, ok, err := kv.GetAppendV(nil, "k")
				if err != nil || !ok || string(v) != val || got != ver {
					t.Fatalf("GetAppendV = %q@%d (%v, %v), want %q@%d", v, got, ok, err, val, ver)
				}
			}
			lww("a", 5, true)
			lww("b", 3, false) // stale
			lww("c", 5, false) // tie keeps the incumbent
			wantVer("a", 5)
			lww("remove", 4, false)
			wantVer("a", 5)
			lww("d", 9, true)
			wantVer("d", 9)
			lww("remove", 10, true)
			if _, _, ok, _ := kv.GetAppendV(nil, "k"); ok {
				t.Fatal("newer RemoveLWW left the key")
			}
			lww("remove", 11, false) // nothing left to remove

			// PutV replaces the pair, one millisecond above the stored
			// stamp when its own is not newer (storage.StampAbove), and
			// Put writes version 0 over any stamp.
			if _, err := kv.PutV("k", []byte("e"), 2); err != nil {
				t.Fatal(err)
			}
			wantVer("e", 2)
			above := storage.Stamp(1, 2) // stamp 2 is millisecond 0, node bits 2
			if ver, err := kv.PutV("k", []byte("lifted"), 2); err != nil || ver != above {
				t.Fatalf("PutV at the stored stamp = %#x, %v; want %#x", ver, err, above)
			}
			wantVer("lifted", above)
			if err := kv.Put("k", []byte("f")); err != nil {
				t.Fatal(err)
			}
			wantVer("f", 0)
		})
	}
}

func TestConformanceForEach(t *testing.T) {
	for name, open := range fullEngines() {
		t.Run(name, func(t *testing.T) {
			kv := open(t)
			want := map[string]string{"a": "1", "b": "", "c": "33"}
			for k, v := range want {
				kv.PutV(k, []byte(v), uint64(len(k)+len(v)))
			}
			kv.PutV("gone", []byte("x"), 1)
			kv.RemoveV("gone", 2)

			got := map[string]string{}
			if err := kv.ForEachV(func(k string, v []byte, ver uint64) error {
				if _, dup := got[k]; dup {
					t.Errorf("ForEachV visited %q twice", k)
				}
				if ver != uint64(len(k)+len(v)) {
					t.Errorf("ForEachV(%q) ver = %d", k, ver)
				}
				got[k] = string(v)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ForEachV saw %v, want %v", got, want)
			}
			stop := errors.New("stop")
			n := 0
			err := kv.ForEachV(func(string, []byte, uint64) error { n++; return stop })
			if !errors.Is(err, stop) || n != 1 {
				t.Fatalf("ForEachV after fn error: err %v after %d calls", err, n)
			}
		})
	}
}

// ForEachLeafV yields exactly the pairs whose leaf was asked for, each
// once with its stamp, for random leaf sets (the empty set and leaves
// outside [0, Leaves) select nothing), and stops at fn's first error.
func TestConformanceForEachLeaf(t *testing.T) {
	for name, open := range fullEngines() {
		t.Run(name, func(t *testing.T) {
			kv := open(t)
			const n = 2000
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("key-%05d", i)
				kv.PutV(k, []byte(k), uint64(i+1))
			}
			for i := 0; i < n; i += 3 {
				kv.RemoveV(fmt.Sprintf("key-%05d", i), 0)
			}
			rng := rand.New(rand.NewSource(1))
			for round := 0; round < 50; round++ {
				leaves := rng.Perm(storage.Leaves)[:rng.Intn(storage.Leaves+1)]
				if round%10 == 0 {
					leaves = append(leaves, -1, storage.Leaves)
				}
				in := map[int]bool{}
				for _, l := range leaves {
					in[l] = true
				}
				want := map[string]uint64{}
				for i := 0; i < n; i++ {
					if k := fmt.Sprintf("key-%05d", i); i%3 != 0 && in[storage.LeafOf(k)] {
						want[k] = uint64(i + 1)
					}
				}
				got := map[string]uint64{}
				if err := kv.ForEachLeafV(leaves, func(k string, v []byte, ver uint64) error {
					if _, dup := got[k]; dup {
						t.Errorf("ForEachLeafV visited %q twice", k)
					}
					if string(v) != k {
						t.Errorf("ForEachLeafV(%q) value %q", k, v)
					}
					got[k] = ver
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("ForEachLeafV(%v) yielded %d pairs, want %d", leaves, len(got), len(want))
				}
			}
			stop := errors.New("stop")
			calls := 0
			all := rng.Perm(storage.Leaves)
			if err := kv.ForEachLeafV(all, func(string, []byte, uint64) error { calls++; return stop }); !errors.Is(err, stop) || calls != 1 {
				t.Fatalf("ForEachLeafV after fn error: err %v after %d calls", err, calls)
			}
		})
	}
}

// DigestLeaves equals a from-scratch hash of the contents after every
// kind of mutation.
func TestConformanceDigest(t *testing.T) {
	for name, open := range fullEngines() {
		t.Run(name, func(t *testing.T) {
			kv := open(t)
			check := func(step string) {
				t.Helper()
				want, err := storage.DigestOf(kv.ForEachV)
				if err != nil {
					t.Fatal(err)
				}
				if got := kv.DigestLeaves(); !reflect.DeepEqual(got, want) {
					t.Fatalf("after %s: DigestLeaves = %x\nrebuilt %x", step, got, want)
				}
			}
			check("open")
			kv.Put("a", []byte("1"))
			kv.PutV("b", []byte("2"), 7)
			check("puts")
			kv.AppendV(nil, "a", []byte("+x"), 2)
			kv.AppendV(nil, "c", []byte("fresh"), 3)
			kv.Put("e", []byte("5"))
			kv.AppendV(nil, "e", []byte("+y"), 0) // keeps version 0
			check("appends")
			kv.PutIfAbsentV("d", []byte("4"), 4, nil)
			kv.CasV("a", []byte("1+x"), []byte("swapped"), 5)
			check("conditional writes")
			kv.PutLWW("b", []byte("newer"), 8)
			kv.PutLWW("b", []byte("stale"), 3)
			kv.RemoveLWW("e", 1) // a version-0 pair loses to any stamp
			check("LWW writes")
			kv.RemoveV("c", 6)
			kv.RemoveLWW("b", 9)
			kv.RemoveLWW("d", 4) // a tie keeps the pair
			check("removes")
			if kv.Len() != 2 {
				t.Fatalf("Len = %d, want 2", kv.Len())
			}
		})
	}
}

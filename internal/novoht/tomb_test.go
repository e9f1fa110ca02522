package novoht

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"zht/internal/storage"
)

// storedVer returns the stamp s holds for key, a pair's or a
// tombstone's, and 0 for neither.
func storedVer(s *Store, key string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if p := s.cellAt(s.idx.find(key, probeHash(s.seed, key))); p != nil {
		return p.ver()
	}
	return 0
}

// A tombstone reads as absent, refuses every replicated write of its
// key stamped at or below it, and lifts an owner's write given such a
// stamp one millisecond above it, keeping the writer's node bits; it
// has no share in the digest and no place in Len or an iteration.
func TestTombstoneRefusesStaleWrites(t *testing.T) {
	s := openTemp(t, Options{})
	if _, err := s.PutV("k", []byte("v"), 5); err != nil {
		t.Fatal(err)
	}
	if ok, ver, err := s.BuryV("k", 7); err != nil || !ok || ver != 7 {
		t.Fatalf("BuryV of a present key = %v, %d, %v", ok, ver, err)
	}
	if ok, err := s.BuryLWW("absent", 9); err != nil || ok {
		t.Fatalf("BuryLWW of an absent key = %v, %v; want false, nil", ok, err)
	}
	checkDigest(t, s, "after two buries")
	if n := s.Len(); n != 0 {
		t.Fatalf("Len = %d with only tombstones, want 0", n)
	}
	if got := pairsOf(t, s); len(got) != 0 {
		t.Fatalf("ForEachV yielded %v, want nothing", got)
	}
	for key, ver := range map[string]uint64{"k": 7, "absent": 9} {
		if _, ok, _ := s.Get(key); ok {
			t.Errorf("Get(%q) found a tombstone", key)
		}
		if got := storedVer(s, key); got != ver {
			t.Errorf("stored stamp of %q = %d, want the tombstone's %d", key, got, ver)
		}
		if ok, err := s.PutLWW(key, []byte("stale"), ver); ok || err != nil {
			t.Errorf("PutLWW(%q) at the tombstone's stamp = %v, %v", key, ok, err)
		}
		if ok, _, err := s.RemoveV(key, ver+1); ok || err != nil {
			t.Errorf("RemoveV(%q) of a tombstone = %v, %v; want absent", key, ok, err)
		}
	}
	// Owner writes given the stored stamp or less land one millisecond
	// above it, with their own node bits: the put above the tombstone,
	// the append above the put, and so on.
	const node = 1
	if got, err := s.PutV("k", []byte("put"), 6); err != nil || got != storage.Stamp(1, 6) {
		t.Fatalf("PutV below the tombstone = %#x, %v; want %#x", got, err, storage.Stamp(1, 6))
	}
	if _, got, err := s.AppendV(nil, "k", []byte("+"), storage.Stamp(1, node)); err != nil || got != storage.Stamp(2, node) {
		t.Fatalf("AppendV below the pair = %#x, %v; want %#x", got, err, storage.Stamp(2, node))
	}
	if ok, got, err := s.PutIfAbsentV("absent", []byte("pia"), 9, nil); err != nil || !ok || got != storage.Stamp(1, 9) {
		t.Fatalf("PutIfAbsentV at the tombstone = %v, %#x, %v; want true, %#x", ok, got, err, storage.Stamp(1, 9))
	}
	if ok, got, err := s.BuryV("absent", node); err != nil || !ok || got != storage.Stamp(2, node) {
		t.Fatalf("BuryV below the pair = %v, %#x, %v; want true, %#x", ok, got, err, storage.Stamp(2, node))
	}
	// A CAS expecting absence sees the tombstone absent and lands above it.
	if ok, _, got, err := s.CasV("absent", nil, []byte("cas"), storage.Stamp(1, node)); !ok || err != nil || got != storage.Stamp(3, node) {
		t.Fatalf("CasV expecting absence over a tombstone = %v, %#x, %v; want true, %#x", ok, got, err, storage.Stamp(3, node))
	}
	checkDigest(t, s, "after the tombstones were written over")
	want := map[string]pair{"k": {"put+", storage.Stamp(2, node)}, "absent": {"cas", storage.Stamp(3, node)}}
	if got := pairsOf(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("contents = %v, want %v", got, want)
	}
	if s.ntomb != 0 {
		t.Fatalf("%d tombstones left after both keys were written", s.ntomb)
	}
}

// TestTombstonesExpireByWallTime: with stamps an hour ahead of wall
// time, as a hot key's chain of writes leaves them, a tombstone
// laid longer than RemoveGrace ago by wall time is reclaimed when the
// next is laid, and a younger one is kept. Reclaimed by their stamps,
// neither would expire while the clock leads.
func TestTombstonesExpireByWallTime(t *testing.T) {
	s := openTemp(t, Options{})
	now := time.Now().UnixMilli()
	s.SetWallClock(func() int64 { return now })
	stamp := uint64(time.Now().Add(time.Hour).UnixMilli()) << 16

	if _, err := s.BuryLWW("old", stamp); err != nil {
		t.Fatal(err)
	}
	now += (RemoveGrace + time.Second).Milliseconds()
	if _, err := s.BuryLWW("young", stamp+1); err != nil {
		t.Fatal(err)
	}
	if got := storedVer(s, "old"); got != 0 {
		t.Errorf("a tombstone older than RemoveGrace by wall time was kept at stamp %d", got)
	}
	if ok, err := s.PutLWW("old", []byte("v"), stamp); !ok || err != nil {
		t.Errorf("PutLWW over a reclaimed tombstone = %v, %v; want it applied", ok, err)
	}
	if got := storedVer(s, "young"); got != stamp+1 {
		t.Errorf("a tombstone younger than RemoveGrace by wall time was reclaimed: stored stamp %d", got)
	}
	if ok, err := s.PutLWW("young", []byte("v"), stamp+1); ok || err != nil {
		t.Errorf("PutLWW at a kept tombstone = %v, %v; want it refused", ok, err)
	}
}

// A log clean after a kept remove, then a reopen: the key stays absent,
// and the clean wrote no record of the tombstone, in particular no pair
// with an empty value.
func TestCleanDropsTombstones(t *testing.T) {
	s := openTemp(t, Options{})
	path := s.log.opts.Path
	for _, k := range []string{"gone", "kept"} {
		if _, err := s.PutV(k, []byte("v-"+k), 3); err != nil {
			t.Fatal(err)
		}
	}
	if ok, _, err := s.BuryV("gone", 4); !ok || err != nil {
		t.Fatalf("BuryV = %v, %v", ok, err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(bytes.NewReader(log))
	for off := int64(0); ; {
		typ, key, val, ver, n, err := readRecord(r, int64(len(log))-off)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("cleaned log at offset %d: %v", off, err)
		}
		if string(key) != "kept" || typ != recPutV || len(val) == 0 {
			t.Errorf("cleaned log holds a record of type %d for %q (value %q, v%d)", typ, key, val, ver)
		}
		off += int64(n)
	}
	re, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := pairsOf(t, re); len(got) != 1 || got["kept"] != (pair{"v-kept", 3}) {
		t.Fatalf("reopened store holds %v, want only kept", got)
	}
}

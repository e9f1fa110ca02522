package novoht

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Additional edge-case coverage for NoVoHT.

func TestSyncDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.log")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("v"))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// After Sync the bytes must be on the file itself, not only the
	// writer buffer.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("log empty after Sync")
	}
	s.Close()
	if err := s.Sync(); err != ErrClosed {
		t.Errorf("Sync after close = %v", err)
	}
}

func TestStatsTracksState(t *testing.T) {
	s := openTemp(t, Options{CompactEvery: -1, GCRatio: 0.99})
	st := s.Stats()
	if st.Keys != 0 || !st.Persistent {
		t.Errorf("fresh stats: %+v", st)
	}
	s.Put("a", []byte("1"))
	s.Put("a", []byte("2")) // creates dead bytes
	st = s.Stats()
	if st.Keys != 1 || st.DeadBytes == 0 || st.LogBytes <= st.DeadBytes {
		t.Errorf("stats after overwrite: %+v", st)
	}
}

func TestRecoveryAppendOnlyKey(t *testing.T) {
	// A key created purely by appends (no Put record) must recover.
	path := filepath.Join(t.TempDir(), "app.log")
	s, _ := Open(Options{Path: path})
	for i := 0; i < 5; i++ {
		if _, err := s.AppendV(nil, "dir", []byte{byte('a' + i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	v, ok, _ := r.Get("dir")
	if !ok || string(v) != "abcde" {
		t.Fatalf("append-only recovery = %q %v", v, ok)
	}
}

// TestForEachVYieldsEvictedValues: a leaf-stream transfer reads a
// store through ForEachV, so an evicted value must come back from disk
// with its stamp.
func TestForEachVYieldsEvictedValues(t *testing.T) {
	s := openTemp(t, Options{MaxMemValues: 2, CompactEvery: -1, GCRatio: 0.99})
	for i := 0; i < 20; i++ {
		if err := s.PutV(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%02d", i)), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Resident > 3 {
		t.Fatalf("eviction ineffective: %d resident", st.Resident)
	}
	seen := 0
	err := s.ForEachV(func(k string, v []byte, ver uint64) error {
		var i int
		if _, err := fmt.Sscanf(k, "k%02d", &i); err != nil {
			return err
		}
		if string(v) != fmt.Sprintf("v%02d", i) || ver != uint64(i+1) {
			t.Errorf("%s = %q@%d, want v%02d@%d", k, v, ver, i, i+1)
		}
		seen++
		return nil
	})
	if err != nil || seen != 20 {
		t.Fatalf("ForEachV visited %d pairs, err %v; want 20", seen, err)
	}
}

func TestCompactWithEvictedEntries(t *testing.T) {
	s := openTemp(t, Options{MaxMemValues: 2, CompactEvery: -1, GCRatio: 0.99, SyncOnCompact: true})
	for i := 0; i < 30; i++ {
		s.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%02d", i)))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Evicted entries must have been relocated to valid offsets.
	for i := 0; i < 30; i++ {
		v, ok, err := s.Get(fmt.Sprintf("k%02d", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("k%02d after compact = %q %v %v", i, v, ok, err)
		}
	}
}

func TestRemoveEvictedEntry(t *testing.T) {
	s := openTemp(t, Options{MaxMemValues: 1, CompactEvery: -1, GCRatio: 0.99})
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte("value"))
	}
	removed, err := s.RemoveV("k0", 0)
	if err != nil || !removed {
		t.Fatalf("remove evicted = %v %v", removed, err)
	}
	if _, ok, _ := s.Get("k0"); ok {
		t.Error("evicted key still present after remove")
	}
}

func TestCasOnEvictedEntry(t *testing.T) {
	s := openTemp(t, Options{MaxMemValues: 1, CompactEvery: -1, GCRatio: 0.99})
	s.Put("target", []byte("old"))
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("fill%d", i), []byte("x"))
	}
	ok, _, err := s.CasV("target", []byte("old"), []byte("new"), 0)
	if err != nil || !ok {
		t.Fatalf("cas on evicted = %v %v", ok, err)
	}
	v, _, _ := s.Get("target")
	if string(v) != "new" {
		t.Errorf("value = %q", v)
	}
}

func TestAppendToEvictedEntry(t *testing.T) {
	s := openTemp(t, Options{MaxMemValues: 1, CompactEvery: -1, GCRatio: 0.99})
	s.Put("log", []byte("start"))
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("fill%d", i), []byte("x"))
	}
	if _, err := s.AppendV(nil, "log", []byte("+more"), 0); err != nil {
		t.Fatal(err)
	}
	v, _, _ := s.Get("log")
	if string(v) != "start+more" {
		t.Errorf("append to evicted = %q", v)
	}
}

func TestLargeValues(t *testing.T) {
	s := openTemp(t, Options{})
	big := bytes.Repeat([]byte{0xEE}, 8<<20)
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("big")
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("big value: ok=%v err=%v len=%d", ok, err, len(v))
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := openTemp(t, Options{})
	s.Put("k", []byte("original"))
	v, _, _ := s.Get("k")
	v[0] = 'X'
	v2, _, _ := s.Get("k")
	if string(v2) != "original" {
		t.Error("Get returned aliased internal buffer")
	}
}

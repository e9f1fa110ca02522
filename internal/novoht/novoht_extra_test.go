package novoht

import (
	"bytes"
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

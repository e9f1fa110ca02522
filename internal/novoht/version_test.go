package novoht

import (
	"path/filepath"
	"reflect"
	"testing"

	"zht/internal/storage"
)

// The store's versioned contract: stamps
// persist with their values, last-writer-wins mutations never let an
// older version replace a newer one, a stamp never goes backwards, and
// crash replay + compaction both keep the newest stamp.

func TestVersionedPutGet(t *testing.T) {
	s := openTemp(t, Options{})
	var _ storage.KV = s // the benchmark module's view of a store

	if _, err := s.PutV("k", []byte("v1"), 10); err != nil {
		t.Fatal(err)
	}
	buf, ver, ok, err := s.GetAppendV(nil, "k")
	if err != nil || !ok || string(buf) != "v1" || ver != 10 {
		t.Fatalf("GetAppendV = %q %d %v %v", buf, ver, ok, err)
	}
	// Get returns the value without the stamp.
	if v, ok, _ := s.Get("k"); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	// Put writes version 0.
	if err := s.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, ver, _, _ := s.GetAppendV(nil, "k"); ver != 0 {
		t.Fatalf("ver after plain Put = %d, want 0", ver)
	}
	// Every other mutation stamps the pair it leaves.
	if _, _, err := s.AppendV(nil, "k", []byte("+"), 11); err != nil {
		t.Fatal(err)
	}
	if v, ver, _, _ := s.GetAppendV(nil, "k"); string(v) != "v2+" || ver != 11 {
		t.Fatalf("after AppendV = %q %d, want v2+ 11", v, ver)
	}
	if ok, _, _, err := s.CasV("k", []byte("v2+"), []byte("v3"), 12); err != nil || !ok {
		t.Fatalf("CasV = %v %v", ok, err)
	}
	if v, ver, _, _ := s.GetAppendV(nil, "k"); string(v) != "v3" || ver != 12 {
		t.Fatalf("after CasV = %q %d, want v3 12", v, ver)
	}
	if ok, _, err := s.PutIfAbsentV("n", []byte("x"), 13, nil); err != nil || !ok {
		t.Fatalf("PutIfAbsentV = %v %v", ok, err)
	}
	if _, ver, _, _ := s.GetAppendV(nil, "n"); ver != 13 {
		t.Fatalf("after PutIfAbsentV ver = %d, want 13", ver)
	}
}

func TestPutLWW(t *testing.T) {
	s := openTemp(t, Options{})
	// An absent key accepts any write, even version 0.
	if ok, err := s.PutLWW("k", []byte("a"), 0); err != nil || !ok {
		t.Fatalf("PutLWW absent = %v %v", ok, err)
	}
	if ok, err := s.PutLWW("k", []byte("b"), 5); err != nil || !ok {
		t.Fatalf("PutLWW newer = %v %v", ok, err)
	}
	// Equal and older versions are rejected without touching the store.
	for _, ver := range []uint64{5, 3} {
		if ok, _ := s.PutLWW("k", []byte("stale"), ver); ok {
			t.Fatalf("PutLWW(%d) accepted a non-newer write", ver)
		}
	}
	if v, ver, _, _ := s.GetAppendV(nil, "k"); string(v) != "b" || ver != 5 {
		t.Fatalf("state after stale writes = %q %d", v, ver)
	}
}

func TestRemoveLWW(t *testing.T) {
	s := openTemp(t, Options{})
	if removed, err := s.RemoveLWW("missing", 9); err != nil || removed {
		t.Fatalf("RemoveLWW missing = %v %v", removed, err)
	}
	if _, err := s.PutV("k", []byte("v"), 5); err != nil {
		t.Fatal(err)
	}
	if removed, _ := s.RemoveLWW("k", 5); removed {
		t.Fatal("RemoveLWW with equal version removed the key")
	}
	if removed, _ := s.RemoveLWW("k", 4); removed {
		t.Fatal("RemoveLWW with older version removed the key")
	}
	if removed, err := s.RemoveLWW("k", 6); err != nil || !removed {
		t.Fatalf("RemoveLWW newer = %v %v", removed, err)
	}
	if _, _, ok, _ := s.GetAppendV(nil, "k"); ok {
		t.Fatal("key present after winning RemoveLWW")
	}
}

func TestVersionSurvivesReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	s := openTemp(t, Options{Path: path})
	if _, err := s.PutV("a", []byte("va"), 7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutV("b", []byte("vb"), 1<<50); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c", []byte("vc")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTemp(t, Options{Path: path})
	for _, tc := range []struct {
		key string
		val string
		ver uint64
	}{{"a", "va", 7}, {"b", "vb", 1 << 50}, {"c", "vc", 0}} {
		v, ver, ok, err := r.GetAppendV(nil, tc.key)
		if err != nil || !ok || string(v) != tc.val || ver != tc.ver {
			t.Fatalf("%s after replay = %q %d %v %v, want %q %d",
				tc.key, v, ver, ok, err, tc.val, tc.ver)
		}
	}
}

func TestVersionSurvivesCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	s := openTemp(t, Options{Path: path})
	for i := 0; i < 50; i++ {
		if _, err := s.PutV("k", []byte("x"), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ver, ok, _ := s.GetAppendV(nil, "k"); !ok || ver != 50 {
		t.Fatalf("ver after compaction = %d, want 50", ver)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTemp(t, Options{Path: path})
	if _, ver, ok, _ := r.GetAppendV(nil, "k"); !ok || ver != 50 {
		t.Fatalf("ver after compaction+replay = %d, want 50", ver)
	}
}

// An owner write given a stamp at or below the key's stored one never
// lowers the key's stamp: it lands one millisecond above the stored
// stamp with the writer's node bits (storage.StampAbove), returns that
// stamp and logs exactly one record carrying it. So the log's stamps
// rise per key in apply order, and crash replay, which keeps the
// newest, rebuilds exactly the live store. Version 0 still applies
// unconditionally.
func TestStaleStampRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	s := openTemp(t, Options{Path: path})
	st := storage.Stamp
	if err := firstErr(putErr(s.PutV("k", []byte("B"), st(5, 2))), putErr(s.PutV("r", []byte("R"), st(9, 2)))); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op   string
		key  string
		vlen int
		do   func() (uint64, error)
		want uint64
	}{
		{"PutV below the stored stamp", "k", 1, func() (uint64, error) { return s.PutV("k", []byte("A"), st(4, 7)) }, st(6, 7)},
		{"PutV at the stored stamp", "k", 2, func() (uint64, error) { return s.PutV("k", []byte("A2"), st(6, 7)) }, st(7, 7)},
		{"AppendV below, at the stored millisecond", "k", 2, func() (uint64, error) {
			_, ver, err := s.AppendV(nil, "k", []byte("+a"), st(7, 1))
			return ver, err
		}, st(8, 1)},
		{"CasV that swaps below", "k", 1, func() (uint64, error) {
			_, _, ver, err := s.CasV("k", []byte("A2+a"), []byte("C"), st(3, 9))
			return ver, err
		}, st(9, 9)},
		{"RemoveV below", "r", 0, func() (uint64, error) {
			_, ver, err := s.RemoveV("r", st(9, 1))
			return ver, err
		}, st(10, 1)},
	} {
		before := s.Stats().LogBytes
		got, err := tc.do()
		if err != nil || got != tc.want {
			t.Errorf("%s = %#x, %v; want %#x", tc.op, got, err, tc.want)
		}
		if grown, want := s.Stats().LogBytes-before, recordSize(tc.key, int64(tc.vlen), tc.want); grown != want {
			t.Errorf("%s grew the log by %d B, want one %d B record", tc.op, grown, want)
		}
	}
	// A CAS whose compare fails reports the mismatch, stamp or not.
	if ok, cur, _, err := s.CasV("k", []byte("x"), []byte("y"), 1); err != nil || ok || string(cur) != "C" {
		t.Fatalf("mismatching CasV = %v %q %v, want false \"C\" nil", ok, cur, err)
	}

	// Version 0 applies and keeps the stamp an append finds.
	if err := firstErr(
		s.Put("z", []byte("zero")),
		appendErr(s.AppendV(nil, "k", []byte("+0"), 0)),
	); err != nil {
		t.Fatal(err)
	}
	live := pairsOf(t, s)
	if want := map[string]pair{"k": {"C+0", st(9, 9)}, "z": {"zero", 0}}; !reflect.DeepEqual(live, want) {
		t.Fatalf("live %v, want %v", live, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTemp(t, Options{Path: path})
	checkDigest(t, r, "after replay")
	if got := pairsOf(t, r); !reflect.DeepEqual(got, live) {
		t.Fatalf("replayed %v, live was %v", got, live)
	}
}

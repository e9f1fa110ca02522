package novoht

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"zht/internal/storage"
)

// The versioned storage.KV contract on the flagship engine: stamps
// persist with their values, last-writer-wins mutations never let an
// older version replace a newer one, a stamp never goes backwards, and
// crash replay + compaction both keep the newest stamp.

func TestVersionedPutGet(t *testing.T) {
	s := openTemp(t, Options{})
	var _ storage.KV = s

	if err := s.PutV("k", []byte("v1"), 10); err != nil {
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
	if _, err := s.AppendV(nil, "k", []byte("+"), 11); err != nil {
		t.Fatal(err)
	}
	if v, ver, _, _ := s.GetAppendV(nil, "k"); string(v) != "v2+" || ver != 11 {
		t.Fatalf("after AppendV = %q %d, want v2+ 11", v, ver)
	}
	if ok, _, err := s.CasV("k", []byte("v2+"), []byte("v3"), 12); err != nil || !ok {
		t.Fatalf("CasV = %v %v", ok, err)
	}
	if v, ver, _, _ := s.GetAppendV(nil, "k"); string(v) != "v3" || ver != 12 {
		t.Fatalf("after CasV = %q %d, want v3 12", v, ver)
	}
	if ok, err := s.PutIfAbsentV("n", []byte("x"), 13); err != nil || !ok {
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
	if err := s.PutV("k", []byte("v"), 5); err != nil {
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
	if err := s.PutV("a", []byte("va"), 7); err != nil {
		t.Fatal(err)
	}
	if err := s.PutV("b", []byte("vb"), 1<<50); err != nil {
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
		if err := s.PutV("k", []byte("x"), uint64(i+1)); err != nil {
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

// A stamped mutation never lowers a key's stamp: one at or below the
// stored version applies nothing, logs nothing and returns
// storage.ErrStale. So the log's stamps rise per key in apply order
// and crash replay, which keeps the newest, rebuilds exactly the live
// store. Version 0 still applies unconditionally.
func TestStaleStampRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	s := openTemp(t, Options{Path: path})
	if err := firstErr(s.PutV("k", []byte("B"), 12), s.PutV("r", []byte("R"), 20)); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().LogBytes
	for _, tc := range []struct {
		op  string
		err error
	}{
		{"PutV(k, A, 11) after PutV(k, B, 12)", s.PutV("k", []byte("A"), 11)},
		{"PutV at the stored stamp", s.PutV("k", []byte("A"), 12)},
		{"RemoveV(r, 19) after PutV(r, R, 20)", boolErr(s.RemoveV("r", 19))},
		{"AppendV at the stored stamp", appendErr(s.AppendV(nil, "k", []byte("+a"), 12))},
		{"CasV that would swap", casErr(s.CasV("k", []byte("B"), []byte("A"), 11))},
	} {
		if !errors.Is(tc.err, storage.ErrStale) {
			t.Errorf("%s = %v, want storage.ErrStale", tc.op, tc.err)
		}
	}
	if grown := s.Stats().LogBytes - before; grown != 0 {
		t.Fatalf("refused writes grew the log by %d B", grown)
	}
	// A CAS whose compare fails reports the mismatch, stamp or not.
	if ok, cur, err := s.CasV("k", []byte("x"), []byte("y"), 1); err != nil || ok || string(cur) != "B" {
		t.Fatalf("mismatching CasV = %v %q %v, want false \"B\" nil", ok, cur, err)
	}
	if want := map[string]pair{"k": {"B", 12}, "r": {"R", 20}}; !reflect.DeepEqual(pairsOf(t, s), want) {
		t.Fatalf("after refused writes %v, want %v", pairsOf(t, s), want)
	}

	// Newer stamps apply, and so does version 0.
	if err := firstErr(
		s.PutV("k", []byte("A"), 13),
		boolErr(s.RemoveV("r", 21)),
		s.Put("z", []byte("zero")),
		appendErr(s.AppendV(nil, "k", []byte("+0"), 0)),
	); err != nil {
		t.Fatal(err)
	}
	live := pairsOf(t, s)
	if want := map[string]pair{"k": {"A+0", 13}, "z": {"zero", 0}}; !reflect.DeepEqual(live, want) {
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

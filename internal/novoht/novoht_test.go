package novoht

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"zht/internal/storage"
)

func openTemp(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Path == "" {
		opts.Path = filepath.Join(t.TempDir(), "novoht.log")
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRemove(t *testing.T) {
	s := openTemp(t, Options{})
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("a")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := s.Get("missing"); ok {
		t.Error("Get(missing) reported present")
	}
	if err := s.Put("a", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Get("a"); string(v) != "2" {
		t.Errorf("overwrite: got %q", v)
	}
	removed, _, err := s.RemoveV("a", 0)
	if err != nil || !removed {
		t.Fatalf("Remove = %v %v", removed, err)
	}
	if _, ok, _ := s.Get("a"); ok {
		t.Error("key present after Remove")
	}
	if removed, _, _ := s.RemoveV("a", 0); removed {
		t.Error("second Remove reported true")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestEmptyValueAndKey(t *testing.T) {
	s := openTemp(t, Options{})
	if err := s.Put("", nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("")
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty key/value: %q %v %v", v, ok, err)
	}
}

func TestPutIfAbsent(t *testing.T) {
	s := openTemp(t, Options{})
	ok, _, err := s.PutIfAbsentV("k", []byte("v1"), 0, nil)
	if err != nil || !ok {
		t.Fatalf("first PutIfAbsent = %v %v", ok, err)
	}
	ok, _, err = s.PutIfAbsentV("k", []byte("v2"), 0, nil)
	if err != nil || ok {
		t.Fatalf("second PutIfAbsent = %v %v", ok, err)
	}
	if v, _, _ := s.Get("k"); string(v) != "v1" {
		t.Errorf("value clobbered: %q", v)
	}

	// A value that dead reports gone counts as absent: the put replaces
	// it above its stamp. A live value is refused as with a nil dead, and
	// a tombstone is absent whatever dead would say of it.
	dead := func(v []byte) bool { return bytes.HasPrefix(v, []byte("dead")) }
	if _, err := s.PutV("d", []byte("dead-pair"), storage.Stamp(5, 1)); err != nil {
		t.Fatal(err)
	}
	if ok, _, err := s.PutIfAbsentV("d", []byte("x"), storage.Stamp(9, 2), nil); err != nil || ok {
		t.Fatalf("PutIfAbsentV over a dead value, nil dead = %v, %v; want refused", ok, err)
	}
	want := storage.Stamp(6, 2)
	if ok, got, err := s.PutIfAbsentV("d", []byte("fresh"), storage.Stamp(3, 2), dead); err != nil || !ok || got != want {
		t.Fatalf("PutIfAbsentV over a dead value = %v, %#x, %v; want true, %#x", ok, got, err, want)
	}
	if v, ver, _, _ := s.GetAppendV(nil, "d"); string(v) != "fresh" || ver != want {
		t.Fatalf("after replacing the dead value: %q@%#x, want %q@%#x", v, ver, "fresh", want)
	}
	for _, k := range []string{"d", "k"} {
		if ok, _, err := s.PutIfAbsentV(k, []byte("again"), storage.Stamp(9, 2), dead); err != nil || ok {
			t.Fatalf("PutIfAbsentV(%q) over a live value = %v, %v; want refused", k, ok, err)
		}
	}
	if _, _, err := s.BuryV("t", storage.Stamp(7, 1)); err != nil {
		t.Fatal(err)
	}
	live := func([]byte) bool { return false }
	want = storage.Stamp(8, 2)
	if ok, got, err := s.PutIfAbsentV("t", []byte("over-tomb"), storage.Stamp(2, 2), live); err != nil || !ok || got != want {
		t.Fatalf("PutIfAbsentV over a tombstone = %v, %#x, %v; want true, %#x", ok, got, err, want)
	}
}

func TestAppend(t *testing.T) {
	s := openTemp(t, Options{})
	// Append creates when absent (FusionFS appends directory entries
	// under a key that may not exist yet).
	if _, _, err := s.AppendV(nil, "dir", []byte("a,"), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AppendV(nil, "dir", []byte("b,"), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AppendV(nil, "dir", []byte("c"), 0); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("dir")
	if err != nil || !ok || string(v) != "a,b,c" {
		t.Fatalf("Append result = %q %v %v", v, ok, err)
	}
}

func TestAppendConcurrent(t *testing.T) {
	s := openTemp(t, Options{})
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, _, err := s.AppendV(nil, "shared", []byte{byte('a' + w)}, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	v, _, _ := s.Get("shared")
	if len(v) != workers*per {
		t.Fatalf("appended value has %d bytes, want %d", len(v), workers*per)
	}
	counts := map[byte]int{}
	for _, b := range v {
		counts[b]++
	}
	for w := 0; w < workers; w++ {
		if counts[byte('a'+w)] != per {
			t.Errorf("worker %d contributed %d bytes, want %d", w, counts[byte('a'+w)], per)
		}
	}
}

func TestCas(t *testing.T) {
	s := openTemp(t, Options{})
	// Expect-absent insert.
	ok, cur, _, err := s.CasV("t", nil, []byte("queued"), 0)
	if err != nil || !ok || cur != nil {
		t.Fatalf("cas absent = %v %q %v", ok, cur, err)
	}
	// Wrong expectation.
	ok, cur, _, err = s.CasV("t", []byte("running"), []byte("done"), 0)
	if err != nil || ok || string(cur) != "queued" {
		t.Fatalf("cas mismatch = %v %q %v", ok, cur, err)
	}
	// Correct swap.
	ok, _, _, err = s.CasV("t", []byte("queued"), []byte("running"), 0)
	if err != nil || !ok {
		t.Fatalf("cas swap = %v %v", ok, err)
	}
	if v, _, _ := s.Get("t"); string(v) != "running" {
		t.Errorf("after cas: %q", v)
	}
	// Expect-absent on present key fails and reports current.
	ok, cur, _, _ = s.CasV("t", nil, []byte("x"), 0)
	if ok || string(cur) != "running" {
		t.Errorf("cas expect-absent on present = %v %q", ok, cur)
	}
	// Cas on missing key with expectation fails.
	ok, cur, _, _ = s.CasV("missing", []byte("x"), []byte("y"), 0)
	if ok || cur != nil {
		t.Errorf("cas missing = %v %q", ok, cur)
	}
}

func TestRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.log")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i += 2 {
		if _, _, err := s.RemoveV(fmt.Sprintf("k%03d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.AppendV(nil, "k099", []byte("-suffix"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 75 {
		t.Errorf("recovered %d keys, want 75", r.Len())
	}
	if v, ok, _ := r.Get("k099"); !ok || string(v) != "v99-suffix" {
		t.Errorf("k099 = %q %v", v, ok)
	}
	if _, ok, _ := r.Get("k000"); ok {
		t.Error("removed key resurrected")
	}
	if v, ok, _ := r.Get("k001"); !ok || string(v) != "v1" {
		t.Errorf("k001 = %q %v", v, ok)
	}
}

func TestRecoveryTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.log")
	s, _ := Open(Options{Path: path})
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{'x'}, 100))
	}
	s.Close()
	// Simulate a crash mid-write: chop bytes off the final record.
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-37); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 9 {
		t.Errorf("recovered %d keys after torn tail, want 9", r.Len())
	}
	// The store must be writable again (torn tail truncated away).
	if err := r.Put("new", []byte("val")); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if v, ok, _ := r2.Get("new"); !ok || string(v) != "val" {
		t.Errorf("post-torn write lost: %q %v", v, ok)
	}
}

// TestOpenFreshLogAllocatesLittle pins replay's read buffer to the
// log's size: an instance opens one log per partition, most of them
// empty, so a megabyte per open would be gigabytes of garbage per boot.
func TestOpenFreshLogAllocatesLittle(t *testing.T) {
	dir := t.TempDir()
	open := func(name string) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := Open(Options{Path: filepath.Join(dir, name)})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// The minimum of several opens filters out allocations other
	// goroutines make while one is measured.
	least := open("fresh-0.log")
	for i := 1; i < 5; i++ {
		least = min(least, open(fmt.Sprintf("fresh-%d.log", i)))
	}
	if least >= 64<<10 {
		t.Fatalf("Open of a fresh log allocated %d bytes, want < 64 KiB", least)
	}
}

func TestRecoveryCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.log")
	s, _ := Open(Options{Path: path})
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte("value"))
	}
	s.Close()
	// Flip a byte early in the log: replay must stop there and keep
	// only the prefix.
	f, _ := os.OpenFile(path, os.O_RDWR, 0)
	f.WriteAt([]byte{0xff}, 20)
	f.Close()
	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() >= 10 {
		t.Errorf("corrupt log replayed fully: %d keys", r.Len())
	}
}

func TestCompactionReclaimsSpace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.log")
	s, err := Open(Options{Path: path, CompactEvery: -1, GCRatio: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'v'}, 1000)
	for i := 0; i < 100; i++ {
		s.Put("hot", val) // 99 dead versions
	}
	before := s.Stats()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.LogBytes >= before.LogBytes/10 {
		t.Errorf("compaction: %d -> %d bytes; want >10x shrink", before.LogBytes, after.LogBytes)
	}
	if after.DeadBytes != 0 {
		t.Errorf("dead bytes after compact = %d", after.DeadBytes)
	}
	if v, ok, _ := s.Get("hot"); !ok || !bytes.Equal(v, val) {
		t.Error("value lost by compaction")
	}
	// Store must remain fully usable and recoverable after compaction.
	s.Put("post", []byte("compact"))
	s.Close()
	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, ok, _ := r.Get("post"); !ok || string(v) != "compact" {
		t.Error("post-compaction write lost")
	}
	if v, ok, _ := r.Get("hot"); !ok || !bytes.Equal(v, val) {
		t.Error("compacted value lost after recovery")
	}
}

func TestAutoCompactByMutations(t *testing.T) {
	s := openTemp(t, Options{CompactEvery: 50, GCRatio: 0.99})
	for i := 0; i < 120; i++ {
		if err := s.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Mutations >= 50 {
		t.Errorf("auto-compaction never ran: mutations=%d", st.Mutations)
	}
}

func TestAutoCompactByDeadRatio(t *testing.T) {
	s := openTemp(t, Options{CompactEvery: -1, GCRatio: 0.5})
	// Values large enough that the 64 KiB dead-bytes floor is crossed
	// after a single overwrite, so the ratio trigger governs.
	val := bytes.Repeat([]byte{'v'}, 128<<10)
	for i := 0; i < 20; i++ {
		if err := s.Put("k", val); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if float64(st.DeadBytes) > 0.6*float64(st.LogBytes) {
		t.Errorf("dead ratio %.2f exceeds GC threshold; auto-compact did not run", float64(st.DeadBytes)/float64(st.LogBytes))
	}
	if st.LogBytes > 3*int64(len(val)) {
		t.Errorf("log grew to %d bytes despite GC (value is %d)", st.LogBytes, len(val))
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.Get("k"); !ok || string(v) != "v" {
		t.Errorf("memory store get = %q %v", v, ok)
	}
	if err := s.Compact(); err != ErrNoPersistence {
		t.Errorf("Compact on memory store = %v, want ErrNoPersistence", err)
	}
	if st := s.Stats(); st.Persistent {
		t.Error("memory store reports persistent")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, _ := Open(Options{})
	s.Close()
	if err := s.Put("k", nil); err != ErrClosed {
		t.Errorf("Put after close = %v", err)
	}
	if _, _, err := s.RemoveV("k", 0); err != ErrClosed {
		t.Errorf("Remove after close = %v", err)
	}
	if _, _, err := s.AppendV(nil, "k", nil, 0); err != ErrClosed {
		t.Errorf("Append after close = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close = %v", err)
	}
}

func TestForEach(t *testing.T) {
	s := openTemp(t, Options{})
	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	for k, v := range want {
		s.Put(k, []byte(v))
	}
	got := map[string]string{}
	err := s.ForEachV(func(k string, v []byte, _ uint64) error {
		got[k] = string(v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d keys", len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("ForEach[%s] = %q want %q", k, got[k], v)
		}
	}
	sentinel := fmt.Errorf("stop")
	if err := s.ForEachV(func(string, []byte, uint64) error { return sentinel }); err != sentinel {
		t.Errorf("ForEach error propagation = %v", err)
	}
}

// TestPropertyModelCheck runs randomized op sequences against a plain
// map model, then restarts the store and checks the recovered state.
func TestPropertyModelCheck(t *testing.T) {
	err := quick.Check(func(ops []struct {
		Kind uint8
		Key  uint8
		Val  []byte
	}) bool {
		dir := t.TempDir()
		path := filepath.Join(dir, "model.log")
		s, err := Open(Options{Path: path, CompactEvery: 17, GCRatio: 0.4})
		if err != nil {
			return false
		}
		model := map[string][]byte{}
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op.Key%16)
			ver := uint64(i + 1) // stamped like an instance's writes
			switch op.Kind % 4 {
			case 0:
				if _, err := s.PutV(key, op.Val, ver); err != nil {
					return false
				}
				model[key] = append([]byte{}, op.Val...)
			case 1:
				removed, _, err := s.RemoveV(key, ver)
				if err != nil {
					return false
				}
				_, inModel := model[key]
				if removed != inModel {
					return false
				}
				delete(model, key)
			case 2:
				if _, _, err := s.AppendV(nil, key, op.Val, ver); err != nil {
					return false
				}
				model[key] = append(model[key], op.Val...)
			case 3:
				v, ok, err := s.Get(key)
				if err != nil {
					return false
				}
				mv, mok := model[key]
				if ok != mok || !bytes.Equal(v, mv) {
					return false
				}
			}
		}
		s.Close()
		// Recover and compare full state.
		r, err := Open(Options{Path: path})
		if err != nil {
			return false
		}
		defer r.Close()
		if r.Len() != len(model) {
			return false
		}
		for k, mv := range model {
			v, ok, err := r.Get(k)
			if err != nil || !ok || !bytes.Equal(v, mv) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkNoVoHTPut(b *testing.B) {
	for _, persist := range []bool{true, false} {
		name := "persistent"
		if !persist {
			name = "memory"
		}
		b.Run(name, func(b *testing.B) {
			opts := Options{CompactEvery: -1, GCRatio: 0.99}
			if persist {
				opts.Path = filepath.Join(b.TempDir(), "bench.log")
			}
			s, err := Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			val := bytes.Repeat([]byte{'v'}, 132)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(fmt.Sprintf("key-%010d", i), val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNoVoHTGet(b *testing.B) {
	s, _ := Open(Options{})
	defer s.Close()
	val := bytes.Repeat([]byte{'v'}, 132)
	const n = 100000
	for i := 0; i < n; i++ {
		s.Put(fmt.Sprintf("key-%010d", i), val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := s.Get(fmt.Sprintf("key-%010d", i%n)); !ok {
			b.Fatal("missing")
		}
	}
}

// BenchmarkNoVoHTSpread times the store alone in the regime the
// end-to-end workloads put it in: 200 000 pre-built 15-byte keys with
// 132-byte values spread over the 1 024 stores of one volatile Log (an
// instance's partitions), uniform random access, half GetAppendV into
// scratch and half same-length PutV. The pairs far outgrow the CPU
// caches, so it times the memory touches of a lookup, where
// BenchmarkNoVoHTGet mostly times Sprintf.
func BenchmarkNoVoHTSpread(b *testing.B) {
	const keys, stores = 200_000, 1024
	l, err := OpenLog(Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ss := make([]*Store, stores)
	for i := range ss {
		ss[i] = l.Store(i)
	}
	ks := make([]string, keys)
	val := bytes.Repeat([]byte{'v'}, 132)
	for i := range ks {
		ks[i] = fmt.Sprintf("key-%011d", i)
		ss[i%stores].PutV(ks[i], val, 0)
	}
	// The access order is drawn up front, so the loop times the store.
	order := make([]int32, 1<<20)
	rng := rand.New(rand.NewSource(1))
	for i := range order {
		order[i] = int32(rng.Intn(keys))
	}
	scratch := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := order[i&(len(order)-1)]
		s := ss[int(j)%stores]
		if i&1 == 0 {
			scratch, _, _, _ = s.GetAppendV(scratch[:0], ks[j])
		} else if _, err := s.PutV(ks[j], val, 0); err != nil {
			b.Fatal(err)
		}
	}
}

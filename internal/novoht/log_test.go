package novoht

// Tests for the shared log: many stores append to one WAL file, replay
// routes each record back to its store by key, and a clean reclaims
// space a store at a time without stopping the log.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"zht/internal/storage"
)

// routeByKey routes a key to one of n stores by its last byte, so keys
// "...0" to "...7" land in different stores.
func routeByKey(n int) func(string) int {
	return func(k string) int {
		if k == "" {
			return 0
		}
		return int(k[len(k)-1]) % n
	}
}

func openLogT(t *testing.T, opts Options, stores int) *Log {
	t.Helper()
	l, err := OpenLog(opts, routeByKey(stores))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// logPairs returns every store's contents, keyed by store id, and
// checks each store's maintained digest against its contents.
func logPairs(t *testing.T, l *Log, when string) map[int]map[string]pair {
	t.Helper()
	out := map[int]map[string]pair{}
	for _, id := range l.IDs() {
		s := l.Store(id)
		checkDigest(t, s, fmt.Sprintf("%s, store %d", when, id))
		if got := pairsOf(t, s); len(got) > 0 {
			out[id] = got
		}
	}
	return out
}

// writeInterleaved applies mutations from..to-1, stamped from+1 and
// up, of every kind to keys spread over the stores, so consecutive
// records of the log belong to different stores.
func writeInterleaved(t *testing.T, l *Log, stores, from, to int, rng *rand.Rand) {
	t.Helper()
	for i := from; i < to; i++ {
		k := fmt.Sprintf("k%02d-%d", rng.Intn(12), i%stores)
		s := l.Store(l.route(k))
		ver := uint64(i + 1)
		var err error
		switch rng.Intn(4) {
		case 0:
			_, _, err = s.RemoveV(k, ver)
		case 1:
			_, _, err = s.AppendV(nil, k, []byte(fmt.Sprintf("+%d", i)), ver)
		default:
			_, err = s.PutV(k, []byte(fmt.Sprintf("v%d", i)), ver)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// reopen copies the log's files into a fresh directory, as a crash at
// this instant would leave them, and opens the copy.
func reopen(t *testing.T, path string, files map[string][]byte, stores int) *Log {
	t.Helper()
	dir := t.TempDir()
	for suffix, b := range files {
		if err := os.WriteFile(filepath.Join(dir, "log"+suffix), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return openLogT(t, Options{Path: filepath.Join(dir, "log")}, stores)
}

// snapshotFiles reads the log's files as they are on disk.
func snapshotFiles(t *testing.T, path string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for _, suffix := range []string{"", oldSuffix} {
		b, err := os.ReadFile(path + suffix)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		files[suffix] = b
	}
	return files
}

// TestSharedLogTornTailEveryOffset writes records of eight stores into
// one log and cuts the file at every byte offset of its last record:
// every store replays to the state acknowledged before that record,
// with a digest matching its contents, and the whole record replays
// once the cut passes its end.
func TestSharedLogTornTailEveryOffset(t *testing.T) {
	const stores = 8
	path := filepath.Join(t.TempDir(), "shared.log")
	l := openLogT(t, Options{Path: path, CompactEvery: -1}, stores)
	writeInterleaved(t, l, stores, 0, 300, rand.New(rand.NewSource(1)))
	before := logPairs(t, l, "before the last record")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	prefix := int64(len(snapshotFiles(t, path)[""]))
	last := l.Store(l.route("last-3"))
	if _, err := last.PutV("last-3", []byte("the record cut at every offset"), 1000); err != nil {
		t.Fatal(err)
	}
	after := logPairs(t, l, "after the last record")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full := snapshotFiles(t, path)[""]
	for cut := prefix; cut <= int64(len(full)); cut++ {
		r := reopen(t, path, map[string][]byte{"": full[:cut]}, stores)
		want := before
		if cut == int64(len(full)) {
			want = after
		}
		if got := logPairs(t, r, fmt.Sprintf("cut %d", cut)); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: replayed\n %v\nwant %v", cut, got, want)
		}
		if _, err := r.Store(0).PutV("after-0", []byte("x"), 2000); err != nil {
			t.Fatalf("cut %d: write after recovery: %v", cut, err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedLogCrashMidClean crashes a clean between its rotation and
// its unlink, before any store is copied, halfway and after every
// copy: replay reads the frozen file, then the active one, and every
// store comes back exactly, with matching digests. The open finishes
// the clean.
func TestSharedLogCrashMidClean(t *testing.T) {
	const stores = 8
	for _, copied := range []int{0, stores / 2, stores} {
		t.Run(fmt.Sprintf("copied-%d-of-%d", copied, stores), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "shared.log")
			l := openLogT(t, Options{Path: path, CompactEvery: -1}, stores)
			rng := rand.New(rand.NewSource(int64(copied) + 1))
			writeInterleaved(t, l, stores, 0, 400, rng)
			// No clean trips on its own: CompactEvery is off and too
			// few bytes die for GCRatio.
			if err := l.rotate(); err != nil {
				t.Fatal(err)
			}
			// Writes that land in the new file before the copies.
			writeInterleaved(t, l, stores, 400, 450, rng)
			base := l.wal.base.Load()
			for id := 0; id < copied; id++ {
				if _, _, err := l.Store(id).copyLive(base); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.wal.flushTo(l.wal.size.Load()); err != nil {
				t.Fatal(err)
			}
			want := logPairs(t, l, "live")
			files := snapshotFiles(t, path)
			if len(files) != 2 {
				t.Fatalf("mid-clean the log has %d files, want the frozen and the active one", len(files))
			}
			r := reopen(t, path, files, stores)
			if got := logPairs(t, r, "replayed"); !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed\n %v\nwant %v", got, want)
			}
			if _, err := os.Stat(r.opts.Path + oldSuffix); !os.IsNotExist(err) {
				t.Fatalf("open left the frozen file behind: %v", err)
			}
			if err := l.clean(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCleanRacesWritersAndAppends runs cleans back to back while
// writers put, append and remove across eight stores: every store
// keeps exactly its writers' pairs and stamps, with a digest matching
// its contents, live and after reopen.
func TestCleanRacesWritersAndAppends(t *testing.T) {
	const stores, writers, ops = 8, 4, 2000
	path := filepath.Join(t.TempDir(), "shared.log")
	l := openLogT(t, Options{Path: path, CompactEvery: 150}, stores)
	models := make([]map[string]pair, writers)
	var wg sync.WaitGroup
	written, stop := make(chan struct{}), make(chan struct{})
	cleans := 0
	go func() {
		defer close(stop)
		for {
			select {
			case <-written:
				return
			default:
			}
			if err := l.Store(0).Compact(); err != nil {
				t.Error(err)
				return
			}
			cleans++
		}
	}()
	for w := 0; w < writers; w++ {
		models[w] = map[string]pair{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			model := models[w]
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("w%d-%02d-%d", w, rng.Intn(10), rng.Intn(stores))
				s := l.Store(l.route(k))
				ver := uint64(i+1)*writers + uint64(w)
				var err error
				switch rng.Intn(5) {
				case 0:
					_, _, err = s.RemoveV(k, ver)
					delete(model, k)
				case 1, 2:
					_, _, err = s.AppendV(nil, k, []byte(fmt.Sprintf("+%d", i)), ver)
					model[k] = pair{model[k].val + fmt.Sprintf("+%d", i), ver}
				default:
					v := fmt.Sprintf("w%d-%d", w, i)
					_, err = s.PutV(k, []byte(v), ver)
					model[k] = pair{v, ver}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(written)
	<-stop
	if cleans == 0 {
		t.Fatal("no clean ran")
	}
	want := map[int]map[string]pair{}
	for _, m := range models {
		for k, p := range m {
			id := l.route(k)
			if want[id] == nil {
				want[id] = map[string]pair{}
			}
			want[id][k] = p
		}
	}
	if got := logPairs(t, l, "live"); !reflect.DeepEqual(got, want) {
		t.Fatalf("live stores\n %v\nwant %v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := openLogT(t, Options{Path: path, CompactEvery: -1}, stores)
	if got := logPairs(t, r, "replayed"); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed stores\n %v\nwant %v", got, want)
	}
}

// TestCleanDoesNotStopTheWorld parks the cleaner inside one store and
// requires a Put to another store to complete: a clean holds one
// store's lock at a time, never the log's.
func TestCleanDoesNotStopTheWorld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.log")
	l := openLogT(t, Options{Path: path, CompactEvery: -1}, 2)
	a, b := l.Store(0), l.Store(1)
	if err := firstErr(a.Put("a0", []byte("old")), b.Put("b1", []byte("old"))); err != nil {
		t.Fatal(err)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testCleanStore = func(s *Store) {
		if s == a {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
	}
	defer func() { testCleanStore = nil }()
	cleaned := make(chan error, 1)
	go func() { cleaned <- a.Compact() }()
	<-parked

	done := make(chan error, 1)
	go func() { done <- b.Put("b1", []byte("new")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Put(b1) blocked behind a clean parked in another store")
	}
	close(release)
	if err := <-cleaned; err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s        *Store
		key, val string
	}{{a, "a0", "old"}, {b, "b1", "new"}} {
		if v, ok, err := c.s.Get(c.key); err != nil || !ok || string(v) != c.val {
			t.Fatalf("%s = %q %v %v, want %q", c.key, v, ok, err, c.val)
		}
	}
}

// TestOneWritePerCommit pins that a commit issues one write for its
// whole batch: a storage.Fault sees one BeforeWrite per commit, sized
// to the batch.
func TestOneWritePerCommit(t *testing.T) {
	fault := &countingFault{}
	l := openLogT(t, Options{Path: filepath.Join(t.TempDir(), "w.log"), Fault: fault, CompactEvery: -1}, 4)
	s := l.Store(0)
	for i := 0; i < 5; i++ {
		if _, err := s.wal.append(mustRecord(t, fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	size := l.wal.size.Load()
	if err := l.wal.flushTo(size); err != nil {
		t.Fatal(err)
	}
	if len(fault.writes) != 1 || int64(fault.writes[0]) != size {
		t.Fatalf("5 pending records took writes %v, want one of %d bytes", fault.writes, size)
	}
}

func mustRecord(t *testing.T, key string) []byte {
	t.Helper()
	rec, _ := encodeRecord(nil, recPut, key, []byte("value"), 1)
	return rec
}

// countingFault records every write size and injects nothing.
type countingFault struct {
	mu     sync.Mutex
	writes []int
}

func (f *countingFault) BeforeWrite(n int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes = append(f.writes, n)
	return n, nil
}

func (f *countingFault) BeforeSync() error { return nil }

var _ storage.Fault = (*countingFault)(nil)
